// Minimal command-line flag parser for bench/example binaries.
//
// Usage:
//   vrc::util::FlagSet flags;
//   int trace = 3;
//   bool verbose = false;
//   flags.add_int("trace", &trace, "trace index 1..5");
//   flags.add_bool("verbose", &verbose, "print per-job details");
//   flags.parse(argc, argv);   // accepts --trace=4, --trace 4, --verbose
//
// A bool flag alone is true; with a value it takes the bool vocabulary of
// util/params.h (--verbose=off, --verbose=0).
//
// Unknown flags are a hard error (they indicate a typo in an experiment
// sweep); positional arguments are collected and available via positional().
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace vrc::util {

/// A registry of typed command-line flags with GNU-style "--name[=value]"
/// syntax. Not thread safe; intended for use once at program startup.
class FlagSet {
 public:
  void add_int(const std::string& name, int* target, std::string help);
  void add_bool(const std::string& name, bool* target, std::string help);
  void add_string(const std::string& name, std::string* target, std::string help);

  /// Parses argv. Returns true on success; on failure prints a diagnostic and
  /// usage to stderr and returns false. "--help" prints usage to stdout and
  /// returns false with help_requested() set, so the caller exits 0.
  bool parse(int argc, const char* const* argv);
  bool help_requested() const { return help_requested_; }

  /// Arguments that were not flags, in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders the usage/help text.
  std::string usage(const std::string& program) const;

 private:
  struct Flag {
    std::string help;
    bool is_bool = false;
    std::function<bool(const std::string&)> set;  // returns false on parse error
    std::function<std::string()> default_value;
  };

  void add(const std::string& name, Flag flag);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace vrc::util
