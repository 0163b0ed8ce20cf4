// String-keyed policy registry: the declarative face of the policy layer.
//
// A scenario names a policy as text — `"v-reconf:early_release=0,
// max_reservations=2"` — instead of wiring a C++ enum and an Options struct
// by hand. PolicySpec is the parsed form (name + key=value params, with a
// canonical print that round-trips); PolicyRegistry maps each name to its
// options table (util/params.h) and a factory that receives the filled
// options.
//
// The shipped policies self-register on first use; custom policies register
// through the same mechanism (examples/custom_policy.cpp registers
// "random-fit" with its seed).
//
// Registration is expected at startup, before any concurrent create() calls
// (scenario cells create policies from worker threads).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/policy.h"
#include "util/params.h"

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

/// Name → options table and factory for every scheduler policy a scenario
/// can reference.
class PolicyRegistry {
 public:
  /// Builds a policy from its filled options.
  template <typename Options>
  using Factory = std::function<std::unique_ptr<cluster::SchedulerPolicy>(const Options&)>;

  /// The process-wide registry, with the shipped policies pre-registered.
  static PolicyRegistry& instance();

  /// Registers a policy under `name`, its only name. create() starts from
  /// the table's defaults, sets the spec's params through the table and
  /// hands the options to `factory`. Registering an existing name replaces
  /// it (latest wins, so tests can stub).
  template <typename Options>
  void register_policy(const std::string& name, util::ParamTable<Options> params,
                       std::type_identity_t<Factory<Options>> factory) {
    auto table = std::make_shared<const util::ParamTable<Options>>(std::move(params));
    entries_[name] = Entry{
        [name, table, factory = std::move(factory)](
            const PolicyParams& values,
            std::string* error) -> std::unique_ptr<cluster::SchedulerPolicy> {
          Options options = table->defaults();
          std::string nested;
          if (!table->apply(values, &options, "param", &nested)) {
            if (error) *error = name + ": " + nested;
            return nullptr;
          }
          return factory(options);
        },
        table};
  }

  /// Registers a policy that takes no params.
  void register_policy(const std::string& name,
                       std::function<std::unique_ptr<cluster::SchedulerPolicy>()> factory);

  /// Sorted names of every registered policy.
  std::vector<std::string> names() const;

  /// The param table of `name` with its defaults; nullptr if unknown.
  const util::ParamList* params(const std::string& name) const;

  /// Constructs a policy from `spec`. On failure returns nullptr and fills
  /// *error: unknown names list every registered policy, unknown params and
  /// malformed values name the policy, the param and the expected kind.
  std::unique_ptr<cluster::SchedulerPolicy> create(const PolicySpec& spec,
                                                   std::string* error) const;

 private:
  struct Entry {
    std::function<std::unique_ptr<cluster::SchedulerPolicy>(const PolicyParams&, std::string*)>
        create;
    std::shared_ptr<const util::ParamList> params;
  };

  std::map<std::string, Entry> entries_;
};

/// Constructs a policy from a spec via the registry (nullptr + *error on
/// unknown name or bad params).
std::unique_ptr<cluster::SchedulerPolicy> make_policy(const PolicySpec& spec, std::string* error);

}  // namespace vrc::core
