#include "core/policy_registry.h"

#include <algorithm>
#include <sstream>

#include "core/baselines.h"
#include "core/g_load_sharing.h"
#include "core/m_reconfiguration.h"
#include "core/oracle.h"
#include "core/v_reconfiguration.h"
#include "util/units.h"

namespace vrc::core {

// --- PolicySpec -------------------------------------------------------------

std::string PolicySpec::print() const {
  if (params.empty()) return name;
  std::ostringstream out;
  out << name << ':';
  bool first = true;
  for (const auto& [key, value] : params) {
    if (!first) out << ',';
    first = false;
    out << key << '=' << value;
  }
  return out.str();
}

std::optional<PolicySpec> PolicySpec::parse(const std::string& text, std::string* error) {
  auto fail = [error](const std::string& message) -> std::optional<PolicySpec> {
    if (error) *error = message;
    return std::nullopt;
  };
  const std::size_t colon = text.find(':');
  PolicySpec spec;
  spec.name = text.substr(0, colon);
  if (spec.name.empty()) return fail("policy spec '" + text + "': empty policy name");
  if (colon == std::string::npos) return spec;

  const std::string param_text = text.substr(colon + 1);
  if (param_text.empty()) {
    return fail("policy spec '" + text + "': ':' must be followed by key=value params");
  }
  std::size_t start = 0;
  while (start <= param_text.size()) {
    std::size_t end = param_text.find(',', start);
    if (end == std::string::npos) end = param_text.size();
    const std::string item = param_text.substr(start, end - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return fail("policy spec '" + text + "': param '" + item +
                  "' is not of the form key=value");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key.empty()) return fail("policy spec '" + text + "': empty param key");
    if (spec.params.count(key) != 0) {
      return fail("policy spec '" + text + "': duplicate param '" + key + "'");
    }
    spec.params[key] = value;
    if (end == param_text.size()) break;
    start = end + 1;
  }
  return spec;
}

// --- ParamReader ------------------------------------------------------------

namespace {

bool parse_bool_text(const std::string& text, bool* out) {
  if (text == "1" || text == "true" || text == "on" || text == "yes") {
    *out = true;
    return true;
  }
  if (text == "0" || text == "false" || text == "off" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

ParamReader::ParamReader(std::string policy_name, const PolicyParams& params)
    : policy_(std::move(policy_name)), params_(params) {}

const std::string* ParamReader::find(const std::string& key) {
  consumed_.push_back(key);
  const auto it = params_.find(key);
  return it == params_.end() ? nullptr : &it->second;
}

void ParamReader::fail(const std::string& key, const std::string& value, const std::string& type,
                       const std::string& example) {
  if (!error_.empty()) return;  // keep the first failure
  error_ = policy_ + ": invalid value '" + value + "' for param '" + key + "' (expected " +
           type + ", e.g. " + key + "=" + example + ")";
}

void ParamReader::read_bool(const std::string& key, bool* out) {
  if (const std::string* value = find(key)) {
    if (!parse_bool_text(*value, out)) fail(key, *value, "bool", "0");
  }
}

void ParamReader::read_int(const std::string& key, int* out) {
  if (const std::string* value = find(key)) {
    if (!parse_integer(*value, out)) fail(key, *value, "int", "2");
  }
}

void ParamReader::read_int64(const std::string& key, long long* out) {
  if (const std::string* value = find(key)) {
    if (!parse_integer(*value, out)) fail(key, *value, "int", "7");
  }
}

void ParamReader::read_double(const std::string& key, double* out) {
  if (const std::string* value = find(key)) {
    if (!parse_finite_double(*value, out)) fail(key, *value, "double", "1.5");
  }
}

void ParamReader::read_duration(const std::string& key, SimTime* out) {
  if (const std::string* value = find(key)) {
    if (!parse_duration(*value, out)) fail(key, *value, "duration", "120s");
  }
}

bool ParamReader::finish(std::string* error) {
  if (error_.empty()) {
    for (const auto& [key, value] : params_) {
      if (std::find(consumed_.begin(), consumed_.end(), key) != consumed_.end()) continue;
      std::string known;
      for (const std::string& k : consumed_) known += (known.empty() ? "" : ", ") + k;
      error_ = policy_ + ": unknown param '" + key + "'" +
               (known.empty() ? " (policy takes no params)" : " (known params: " + known + ")");
      break;
    }
  }
  if (error_.empty()) return true;
  if (error) *error = error_;
  return false;
}

// --- PolicyRegistry ---------------------------------------------------------

namespace {

std::unique_ptr<cluster::SchedulerPolicy> make_g_load_sharing(const PolicyParams& params,
                                                              std::string* error) {
  ParamReader reader("g-loadsharing", params);
  GLoadSharing::Options options;
  reader.read_bool("enable_migration", &options.enable_migration);
  if (!reader.finish(error)) return nullptr;
  return std::make_unique<GLoadSharing>(options);
}

std::unique_ptr<cluster::SchedulerPolicy> make_v_reconfiguration(const PolicyParams& params,
                                                                 std::string* error) {
  ParamReader reader("v-reconf", params);
  VReconfiguration::Options options;
  reader.read_bool("enable_migration", &options.base.enable_migration);
  reader.read_bool("early_release", &options.early_release);
  reader.read_int("max_reservations", &options.max_reservations);
  reader.read_double("min_cluster_idle_factor", &options.min_cluster_idle_factor);
  reader.read_double("big_job_factor", &options.big_job_factor);
  reader.read_double("growth_headroom", &options.growth_headroom);
  reader.read_double("min_overcommit", &options.min_overcommit);
  reader.read_duration("blocking_resolve_timeout", &options.blocking_resolve_timeout);
  reader.read_duration("reserve_timeout", &options.reserve_timeout);
  reader.read_duration("timeout_backoff", &options.timeout_backoff);
  if (!reader.finish(error)) return nullptr;
  return std::make_unique<VReconfiguration>(options);
}

std::unique_ptr<cluster::SchedulerPolicy> make_m_reconfiguration(const PolicyParams& params,
                                                                 std::string* error) {
  ParamReader reader("m-reconfiguration", params);
  MReconfiguration::Options options;
  reader.read_bool("enable_migration", &options.base.enable_migration);
  reader.read_duration("shrink_threshold", &options.shrink_threshold);
  reader.read_int("regrow_free_slots", &options.regrow_free_slots);
  reader.read_duration("resize_cooldown", &options.resize_cooldown);
  if (!reader.finish(error)) return nullptr;
  return std::make_unique<MReconfiguration>(options);
}

std::unique_ptr<cluster::SchedulerPolicy> make_local_only(const PolicyParams& params,
                                                          std::string* error) {
  ParamReader reader("local-only", params);
  if (!reader.finish(error)) return nullptr;
  return std::make_unique<LocalOnly>();
}

std::unique_ptr<cluster::SchedulerPolicy> make_suspension(const PolicyParams& params,
                                                          std::string* error) {
  ParamReader reader("suspension", params);
  SuspensionPolicy::Options options;
  reader.read_bool("enable_migration", &options.base.enable_migration);
  reader.read_int("min_runnable", &options.min_runnable);
  if (!reader.finish(error)) return nullptr;
  return std::make_unique<SuspensionPolicy>(options);
}

std::unique_ptr<cluster::SchedulerPolicy> make_oracle(const PolicyParams& params,
                                                      std::string* error) {
  ParamReader reader("oracle", params);
  GLoadSharing::Options options;
  reader.read_bool("enable_migration", &options.enable_migration);
  if (!reader.finish(error)) return nullptr;
  return std::make_unique<OracleDemands>(options);
}

void register_builtins(PolicyRegistry& registry) {
  const PolicyParamDoc migration = {"enable_migration", "bool", "1",
                                    "preemptive migration on/off (ablation)"};
  registry.register_policy("g-loadsharing", make_g_load_sharing, {migration});
  registry.register_policy(
      "v-reconf", make_v_reconfiguration,
      {migration,
       {"early_release", "bool", "1",
        "end the reserving period once the blocked job fits (§2.1 alternative)"},
       {"max_reservations", "int", "4", "maximum simultaneously reserved workstations"},
       {"min_cluster_idle_factor", "double", "1.0",
        "reconfigure only while idle memory > factor * avg user memory"},
       {"big_job_factor", "double", "1.5",
        "demand multiple of the admission estimate that marks a job as big"},
       {"growth_headroom", "double", "1.4",
        "idle-memory headroom a reserved workstation needs before accepting"},
       {"min_overcommit", "double", "0.03", "minimum overcommit that justifies isolation"},
       {"blocking_resolve_timeout", "duration", "10s",
        "quiet period after which a draining reservation is cancelled"},
       {"reserve_timeout", "duration", "120s", "abandon a reserving period after this long"},
       {"timeout_backoff", "duration", "120s", "pause after an abandoned reserving period"}});
  registry.register_policy(
      "m-reconfiguration", make_m_reconfiguration,
      {migration,
       {"shrink_threshold", "duration", "0.5s",
        "how long a submission stays blocked before malleable jobs are shrunk"},
       {"regrow_free_slots", "int", "1", "slots kept free on a node after a re-grow"},
       {"resize_cooldown", "duration", "2s",
        "min spacing between policy-initiated resizes per node"}});
  registry.register_policy("local-only", make_local_only);
  registry.register_policy(
      "suspension", make_suspension,
      {migration,
       {"min_runnable", "int", "1", "never suspend below this many runnable jobs per node"}});
  registry.register_policy("oracle", make_oracle, {migration});
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

void PolicyRegistry::register_policy(const std::string& name, Factory factory,
                                     std::vector<PolicyParamDoc> params) {
  entries_[name] = Entry{std::move(factory), std::move(params)};
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) result.push_back(name);
  return result;  // std::map iteration: already sorted
}

const std::vector<PolicyParamDoc>* PolicyRegistry::param_docs(const std::string& name) const {
  const auto entry = entries_.find(name);
  return entry == entries_.end() ? nullptr : &entry->second.params;
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
  return entry->second.factory(spec.params, error);
}

std::unique_ptr<cluster::SchedulerPolicy> make_policy(const PolicySpec& spec,
                                                      std::string* error) {
  return PolicyRegistry::instance().create(spec, error);
}

}  // namespace vrc::core
