// Flags: the one command-line parser of the benches and tools.
//
// A tool declares a table of flags -- name, value kind, target, help line --
// and calls Parse once. The grammar is the same for every tool:
//
//   --name value  and  --name=value   both set a valued flag;
//   --name                            sets a switch (a switch takes no value);
//   --help / -h                       prints usage built from the table to
//                                     stdout and exits 0;
//   an unknown flag, a missing value, a malformed number or an unknown
//   choice                            prints a message to stderr and exits 2.
//
// Flags shared by several tools (seed, jobs, replication, the contention
// and observability groups) are declared once, in src/harness/cli.h.

#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace xenic {

class Flags {
 public:
  // `about` is printed under the usage line of --help.
  explicit Flags(std::string about = "") : about_(std::move(about)) {}

  // Every target must outlive Parse.

  // Sets *target to true when present.
  void Switch(const std::string& name, bool* target, const std::string& help);

  // Decimal unsigned integer that must fit the target type. Positive also
  // rejects 0.
  template <typename T>
  void Uint(const std::string& name, T* target, const std::string& help) {
    AddUint(name, help, std::numeric_limits<T>::max(), false,
            [target](uint64_t v) { *target = static_cast<T>(v); });
  }
  template <typename T>
  void Positive(const std::string& name, T* target, const std::string& help) {
    AddUint(name, help, std::numeric_limits<T>::max(), true,
            [target](uint64_t v) { *target = static_cast<T>(v); });
  }

  // Finite decimal number.
  void Real(const std::string& name, double* target, const std::string& help);

  // Any string (a path, a spec parsed later).
  void Text(const std::string& name, std::string* target, const std::string& metavar,
            const std::string& help);

  // One of a fixed set of spellings; the usage line lists them.
  template <typename T>
  void Choice(const std::string& name, T* target, std::vector<std::pair<std::string, T>> choices,
              const std::string& help) {
    std::string metavar;
    for (const auto& c : choices) {
      metavar += (metavar.empty() ? "" : "|") + c.first;
    }
    Add(name, metavar, "one of " + metavar, help,
        [target, choices = std::move(choices)](const std::string& v) {
          for (const auto& c : choices) {
            if (c.first == v) {
              *target = c.second;
              return true;
            }
          }
          return false;
        });
  }
  void StringChoice(const std::string& name, std::string* target,
                    const std::vector<std::string>& names, const std::string& help);

  // A value with its own syntax: `parse` returns false to reject it.
  void Custom(const std::string& name, const std::string& metavar, const std::string& help,
              std::function<bool(const std::string&)> parse);

  // Parse argv[1..argc), or exit (0 after --help, 2 on bad input).
  void Parse(int argc, char** argv) const;

  // The --help text for program `prog`.
  std::string Usage(const std::string& prog) const;

  // The decimal grammar of Uint: digits only, no sign, no overflow.
  static bool ParseUint(const std::string& text, uint64_t* out);

 private:
  struct Flag {
    std::string name;
    std::string metavar;  // empty for a switch
    std::string expects;  // names a valid value in the error message
    std::string help;
    std::function<bool(const std::string&)> set;
  };

  void Add(const std::string& name, const std::string& metavar, const std::string& expects,
           const std::string& help, std::function<bool(const std::string&)> set);
  void AddUint(const std::string& name, const std::string& help, uint64_t max, bool positive,
               std::function<void(uint64_t)> set);

  std::string about_;
  std::vector<Flag> flags_;
};

}  // namespace xenic

#endif  // SRC_COMMON_FLAGS_H_
