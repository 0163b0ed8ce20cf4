#include "core/policy_registry.h"

#include "core/baselines.h"
#include "core/g_load_sharing.h"
#include "core/m_reconfiguration.h"
#include "core/oracle.h"
#include "core/v_reconfiguration.h"

namespace vrc::core {

// --- PolicySpec -------------------------------------------------------------

std::string PolicySpec::print() const {
  std::string out = name;
  for (const auto& [key, value] : params) {
    out += (out.size() == name.size() ? ":" : ",") + key + "=" + value;
  }
  return out;
}

std::optional<PolicySpec> PolicySpec::parse(const std::string& text, std::string* error) {
  auto fail = [error, &text](const std::string& message) -> std::optional<PolicySpec> {
    if (error) *error = "policy spec '" + text + "': " + message;
    return std::nullopt;
  };
  const std::size_t colon = text.find(':');
  PolicySpec spec;
  spec.name = text.substr(0, colon);
  if (spec.name.empty()) return fail("empty policy name");
  std::string nested;
  if (colon != std::string::npos &&
      !util::split_params(text.substr(colon + 1), &spec.params, &nested)) {
    return fail(nested);
  }
  return spec;
}

// --- PolicyRegistry ---------------------------------------------------------

namespace {

// The factory of a policy constructed from its options.
template <typename Policy, typename Options>
std::unique_ptr<cluster::SchedulerPolicy> build(const Options& options) {
  return std::make_unique<Policy>(options);
}

void register_builtins(PolicyRegistry& registry) {
  using enum util::ParamKind;
  using util::field;
  using util::kAnyValue;
  using util::kNonNegative;
  using util::within;
  using G = GLoadSharing::Options;
  using V = VReconfiguration::Options;
  using M = MReconfiguration::Options;
  using S = SuspensionPolicy::Options;
  // Declared once; the derived policies reach it through their `base`.
  const util::ParamRow migration{"enable_migration", kBool, kAnyValue, "0",
                                 "preemptive migration on/off (ablation)"};
  registry.register_policy<G>("g-loadsharing",
                              util::ParamTable<G>({{migration, field<&G::enable_migration>}}),
                              build<GLoadSharing, G>);
  registry.register_policy<V>(
      "v-reconf",
      util::ParamTable<V>({
          {migration, field<&V::base, &G::enable_migration>},
          {"early_release", field<&V::early_release>, kBool, kAnyValue, "0",
           "end the reserving period once the blocked job fits (§2.1 alternative)"},
          {"max_reservations", field<&V::max_reservations>, kInt, kNonNegative, "2",
           "maximum simultaneously reserved workstations"},
          {"min_cluster_idle_factor", field<&V::min_cluster_idle_factor>, kDouble, kNonNegative,
           "1.5", "reconfigure only while idle memory > factor * avg user memory"},
          {"big_job_factor", field<&V::big_job_factor>, kDouble, kNonNegative, "2",
           "demand multiple of the admission estimate that marks a job as big"},
          {"growth_headroom", field<&V::growth_headroom>, kDouble, kNonNegative, "1.2",
           "idle-memory headroom a reserved workstation needs before accepting"},
          {"min_overcommit", field<&V::min_overcommit>, kDouble, within(0.0, 1.0), "0.1",
           "minimum overcommit that justifies isolation"},
          {"blocking_resolve_timeout", field<&V::blocking_resolve_timeout>, kDuration, kNonNegative,
           "30s", "quiet period after which a draining reservation is cancelled"},
          {"reserve_timeout", field<&V::reserve_timeout>, kDuration, kNonNegative, "5min",
           "abandon a reserving period after this long"},
          {"timeout_backoff", field<&V::timeout_backoff>, kDuration, kNonNegative, "60s",
           "pause after an abandoned reserving period"},
      }),
      build<VReconfiguration, V>);
  registry.register_policy<M>(
      "m-reconfiguration",
      util::ParamTable<M>({
          {migration, field<&M::base, &G::enable_migration>},
          {"shrink_threshold", field<&M::shrink_threshold>, kDuration, kNonNegative, "2s",
           "how long a submission stays blocked before malleable jobs are shrunk"},
          {"regrow_free_slots", field<&M::regrow_free_slots>, kInt, kNonNegative, "2",
           "slots kept free on a node after a re-grow"},
          {"resize_cooldown", field<&M::resize_cooldown>, kDuration, kNonNegative, "5s",
           "min spacing between policy-initiated resizes per node"},
      }),
      build<MReconfiguration, M>);
  registry.register_policy("local-only", [] { return std::make_unique<LocalOnly>(); });
  registry.register_policy<S>(
      "suspension",
      util::ParamTable<S>({
          {migration, field<&S::base, &G::enable_migration>},
          {"min_runnable", field<&S::min_runnable>, kInt, kNonNegative, "2",
           "never suspend below this many runnable jobs per node"},
      }),
      build<SuspensionPolicy, S>);
  registry.register_policy<G>("oracle",
                              util::ParamTable<G>({{migration, field<&G::enable_migration>}}),
                              build<OracleDemands, G>);
}

}  // namespace

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry* registry = [] {
    auto* fresh = new PolicyRegistry();
    register_builtins(*fresh);
    return fresh;
  }();
  return *registry;
}

void PolicyRegistry::register_policy(
    const std::string& name, std::function<std::unique_ptr<cluster::SchedulerPolicy>()> factory) {
  struct NoParams {};
  register_policy<NoParams>(name, util::ParamTable<NoParams>({}),
                            [factory = std::move(factory)](const NoParams&) { return factory(); });
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) result.push_back(name);
  return result;  // std::map iteration: already sorted
}

const util::ParamList* PolicyRegistry::params(const std::string& name) const {
  const auto entry = entries_.find(name);
  return entry == entries_.end() ? nullptr : entry->second.params.get();
}

std::unique_ptr<cluster::SchedulerPolicy> PolicyRegistry::create(const PolicySpec& spec,
                                                                 std::string* error) const {
  const auto entry = entries_.find(spec.name);
  if (entry == entries_.end()) {
    if (error) {
      std::string known;
      for (const std::string& name : names()) known += (known.empty() ? "" : ", ") + name;
      *error = "unknown policy '" + spec.name + "' (registered policies: " + known + ")";
    }
    return nullptr;
  }
  return entry->second.create(spec.params, error);
}

std::unique_ptr<cluster::SchedulerPolicy> make_policy(const PolicySpec& spec,
                                                      std::string* error) {
  return PolicyRegistry::instance().create(spec, error);
}

}  // namespace vrc::core
