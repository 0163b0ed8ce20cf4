// String-keyed policy registry: the declarative face of the policy layer.
//
// A scenario names a policy as text — `"v-reconf:early_release=0,
// max_reservations=2"` — instead of wiring a C++ enum and an Options struct
// by hand. PolicySpec is the parsed form (name + key=value params, with a
// canonical print that round-trips); PolicyRegistry maps names to factories
// that validate the params and construct a fresh SchedulerPolicy.
//
// The five shipped policies self-register on first use; custom policies (see
// examples/custom_policy.cpp) register through the same mechanism:
//
//   core::PolicyRegistry::instance().register_policy(
//       "random-fit",
//       [](const core::PolicyParams& params, std::string* error)
//           -> std::unique_ptr<cluster::SchedulerPolicy> {
//         core::ParamReader reader("random-fit", params);
//         long long seed = 7;
//         reader.read_int64("seed", &seed);
//         if (!reader.finish(error)) return nullptr;
//         return std::make_unique<RandomFit>(seed);
//       },
//       {{"seed", "int", "7", "placement RNG seed"}});
//
// Registration is expected at startup, before any concurrent create() calls
// (scenario cells create policies from worker threads).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/policy.h"

namespace vrc::core {

/// key=value parameters of one policy instantiation. std::map (not
/// unordered) so iteration — and therefore every printed spec and error
/// message — is deterministic.
using PolicyParams = std::map<std::string, std::string>;

/// A parsed policy description: registry name plus parameters.
///
/// Text form: `name` or `name:key=value,key=value`. print() emits the
/// canonical form (params in sorted key order), and
/// parse(print(spec)) == spec for every well-formed spec.
struct PolicySpec {
  std::string name;
  PolicyParams params;

  PolicySpec() = default;
  explicit PolicySpec(std::string policy_name, PolicyParams policy_params = {})
      : name(std::move(policy_name)), params(std::move(policy_params)) {}

  bool operator==(const PolicySpec&) const = default;

  /// Canonical text form: `name[:k=v,...]`, params sorted by key.
  std::string print() const;

  /// Parses `name[:k=v,...]`. Returns std::nullopt and fills *error on
  /// malformed text (empty name, missing '=', empty key, duplicate key).
  /// Does NOT consult the registry: a spec can be parsed before the policy
  /// it names is registered.
  static std::optional<PolicySpec> parse(const std::string& text, std::string* error = nullptr);
};

/// Documentation record for one policy parameter; drives error messages and
/// the DESIGN.md §9 parameter table.
struct PolicyParamDoc {
  std::string key;
  std::string type;           // "bool" | "int" | "double" | "duration"
  std::string default_value;  // printed default, e.g. "1" or "120s"
  std::string help;
};

/// Validating reader for a factory's PolicyParams. Each read_* records a
/// precise error on a malformed value; finish() additionally rejects keys no
/// read_* consumed. bool accepts 0/1/true/false/on/off; duration accepts
/// unit suffixes ("10ms", "2min", plain seconds).
class ParamReader {
 public:
  ParamReader(std::string policy_name, const PolicyParams& params);

  void read_bool(const std::string& key, bool* out);
  void read_int(const std::string& key, int* out);
  void read_int64(const std::string& key, long long* out);
  void read_double(const std::string& key, double* out);
  void read_duration(const std::string& key, SimTime* out);

  /// True if every param parsed and none were left unconsumed; otherwise
  /// fills *error with the first failure (key, expected type, an example).
  bool finish(std::string* error);

 private:
  const std::string* find(const std::string& key);
  void fail(const std::string& key, const std::string& value, const std::string& type,
            const std::string& example);

  std::string policy_;
  const PolicyParams& params_;
  std::vector<std::string> consumed_;
  std::string error_;
};

/// Name → factory map for every scheduler policy a scenario can reference.
class PolicyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<cluster::SchedulerPolicy>(
      const PolicyParams& params, std::string* error)>;

  /// The process-wide registry, with the shipped policies pre-registered.
  static PolicyRegistry& instance();

  /// Registers a policy under `name`, its only name. Registering an
  /// existing name replaces it (latest wins, so tests can stub).
  void register_policy(const std::string& name, Factory factory,
                       std::vector<PolicyParamDoc> params = {});

  /// Sorted names of every registered policy.
  std::vector<std::string> names() const;

  /// Parameter docs of `name`; nullptr if unknown.
  const std::vector<PolicyParamDoc>* param_docs(const std::string& name) const;

  /// Constructs a policy from `spec`. On failure returns nullptr and fills
  /// *error: unknown names list every registered policy, factory errors
  /// (unknown key, malformed value) pass through verbatim.
  std::unique_ptr<cluster::SchedulerPolicy> create(const PolicySpec& spec,
                                                   std::string* error) const;

 private:
  struct Entry {
    Factory factory;
    std::vector<PolicyParamDoc> params;
  };

  std::map<std::string, Entry> entries_;
};

/// Constructs a policy from a spec via the registry (nullptr + *error on
/// unknown name or bad params).
std::unique_ptr<cluster::SchedulerPolicy> make_policy(const PolicySpec& spec, std::string* error);

}  // namespace vrc::core
