// SweepExecutor: fan independent simulation runs out across a worker-thread
// pool. Each task is a fully self-contained, seeded-deterministic simulation
// (its own Engine, cluster, workload and Rng; the simulator has no mutable
// global state), so task results are bit-identical to serial execution
// regardless of worker count -- only wall-clock time changes. Tasks write
// into their own pre-sized result slot; nothing about the output depends on
// scheduling order.

#ifndef SRC_HARNESS_SWEEP_H_
#define SRC_HARNESS_SWEEP_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace xenic::harness {

class SweepExecutor {
 public:
  // jobs == 0 picks std::thread::hardware_concurrency(). jobs == 1 runs
  // everything inline on the calling thread (no threads spawned).
  explicit SweepExecutor(uint32_t jobs = 0);

  uint32_t jobs() const { return jobs_; }

  // Execute every task exactly once. Tasks must be independent (no shared
  // mutable state); each should write its result into a slot owned by its
  // index. If a task throws, the first exception is rethrown on the calling
  // thread after all workers join.
  void RunAll(const std::vector<std::function<void()>>& tasks);

  // Convenience: run `tasks` and collect their return values by index.
  template <typename T>
  std::vector<T> Map(const std::vector<std::function<T()>>& tasks) {
    std::vector<T> out(tasks.size());
    std::vector<std::function<void()>> wrapped;
    wrapped.reserve(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      wrapped.push_back([&out, &tasks, i] { out[i] = tasks[i](); });
    }
    RunAll(wrapped);
    return out;
  }

 private:
  uint32_t jobs_;
};

}  // namespace xenic::harness

#endif  // SRC_HARNESS_SWEEP_H_
