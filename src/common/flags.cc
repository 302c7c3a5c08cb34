#include "src/common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace xenic {

void Flags::Add(const std::string& name, const std::string& metavar, const std::string& expects,
                const std::string& help, std::function<bool(const std::string&)> set) {
  flags_.push_back(Flag{name, metavar, expects, help, std::move(set)});
}

void Flags::Switch(const std::string& name, bool* target, const std::string& help) {
  Add(name, "", "", help, [target](const std::string&) {
    *target = true;
    return true;
  });
}

void Flags::AddUint(const std::string& name, const std::string& help, uint64_t max,
                    bool positive, std::function<void(uint64_t)> set) {
  const std::string expects = positive ? "a positive integer" : "an unsigned integer";
  Add(name, "N", expects, help,
      [max, positive, set = std::move(set)](const std::string& v) {
        uint64_t n = 0;
        if (!ParseUint(v, &n) || n > max || (positive && n == 0)) {
          return false;
        }
        set(n);
        return true;
      });
}

bool Flags::ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno != ERANGE;
}

void Flags::Real(const std::string& name, double* target, const std::string& help) {
  Add(name, "X", "a number", help, [target](const std::string& v) {
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(x)) {
      return false;
    }
    *target = x;
    return true;
  });
}

void Flags::Text(const std::string& name, std::string* target, const std::string& metavar,
                 const std::string& help) {
  Add(name, metavar, metavar, help, [target](const std::string& v) {
    *target = v;
    return true;
  });
}

void Flags::StringChoice(const std::string& name, std::string* target,
                         const std::vector<std::string>& names, const std::string& help) {
  std::vector<std::pair<std::string, std::string>> choices;
  for (const std::string& n : names) {
    choices.emplace_back(n, n);
  }
  Choice(name, target, std::move(choices), help);
}

void Flags::Custom(const std::string& name, const std::string& metavar, const std::string& help,
                   std::function<bool(const std::string&)> parse) {
  Add(name, metavar, metavar, help, std::move(parse));
}

std::string Flags::Usage(const std::string& prog) const {
  std::string out = "usage: " + prog + " [flags]\n";
  if (!about_.empty()) {
    out += "\n" + about_ + "\n";
  }
  out += "\nflags:\n";
  for (const Flag& f : flags_) {
    std::string left = "  " + f.name + (f.metavar.empty() ? "" : " " + f.metavar);
    if (left.size() < 24) {
      left.resize(24, ' ');
    } else {
      left += "\n" + std::string(24, ' ');
    }
    out += left + f.help + "\n";
  }
  out += "  --help, -h            print this help and exit\n";
  return out;
}

void Flags::Parse(int argc, char** argv) const {
  const char* prog = argc > 0 ? argv[0] : "prog";
  auto fail = [prog](const std::string& msg) {
    std::fprintf(stderr, "%s: %s (see --help)\n", prog, msg.c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage(prog).c_str(), stdout);
      std::exit(0);
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (f.name == name) {
        flag = &f;
      }
    }
    if (flag == nullptr) {
      fail("unknown flag " + arg);
    }
    std::string value;
    if (flag->metavar.empty()) {
      if (eq != std::string::npos) {
        fail(name + " takes no value");
      }
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      fail("missing value for " + name);
    }
    if (!flag->set(value)) {
      fail(name + " expects " + flag->expects + ", got '" + value + "'");
    }
  }
}

}  // namespace xenic
