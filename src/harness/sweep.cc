#include "src/harness/sweep.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace xenic::harness {

SweepExecutor::SweepExecutor(uint32_t jobs) : jobs_(jobs) {
  if (jobs_ == 0) {
    jobs_ = std::thread::hardware_concurrency();
    if (jobs_ == 0) {
      jobs_ = 1;
    }
  }
}

void SweepExecutor::RunAll(const std::vector<std::function<void()>>& tasks) {
  if (jobs_ <= 1 || tasks.size() <= 1) {
    for (const auto& t : tasks) {
      t();
    }
    return;
  }

  std::atomic<size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) {
        return;
      }
      try {
        tasks[i]();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  };

  const size_t n_threads = std::min<size_t>(jobs_, tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (size_t i = 0; i < n_threads; ++i) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace xenic::harness
