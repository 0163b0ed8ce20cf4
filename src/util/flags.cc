#include "util/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/params.h"
#include "util/units.h"

namespace vrc::util {

void FlagSet::add(const std::string& name, Flag flag) {
  if (!flags_.emplace(name, std::move(flag)).second) {
    std::fprintf(stderr, "duplicate flag registration: --%s\n", name.c_str());
    std::abort();
  }
}

void FlagSet::add_int(const std::string& name, int* target, std::string help) {
  Flag f;
  f.help = std::move(help);
  f.set = [target](const std::string& v) { return parse_integer(v, target); };
  f.default_value = [target] { return std::to_string(*target); };
  add(name, std::move(f));
}

void FlagSet::add_bool(const std::string& name, bool* target, std::string help) {
  Flag f;
  f.help = std::move(help);
  f.is_bool = true;
  f.set = [target](const std::string& v) {
    if (!v.empty()) return parse_bool(v, target);
    *target = true;  // --flag alone
    return true;
  };
  f.default_value = [target] { return *target ? "true" : "false"; };
  add(name, std::move(f));
}

void FlagSet::add_string(const std::string& name, std::string* target, std::string help) {
  Flag f;
  f.help = std::move(help);
  f.set = [target](const std::string& v) {
    *target = v;
    return true;
  };
  f.default_value = [target] { return *target; };
  add(name, std::move(f));
}

bool FlagSet::parse(int argc, const char* const* argv) {
  positional_.clear();
  help_requested_ = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body == "help") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      help_requested_ = true;
      return false;
    }
    std::string name = body;
    std::string value;
    bool has_value = false;
    if (auto eq = body.find('='); eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n%s", name.c_str(), usage(argv[0]).c_str());
      return false;
    }
    Flag& flag = it->second;
    if (!has_value && !flag.is_bool) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!flag.set(value)) {
      std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

std::string FlagSet::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << "  (default: " << flag.default_value() << ")\n      " << flag.help
       << "\n";
  }
  return os.str();
}

}  // namespace vrc::util
