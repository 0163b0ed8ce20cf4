// The string-keyed policy registry: spec parse/print round-trips, one name
// per policy, param validation, and the precise error text the declarative
// scenario layer relies on.
#include "core/policy_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace vrc::core {
namespace {

TEST(PolicySpecTest, PrintsCanonicalSortedForm) {
  PolicySpec spec("v-reconf", {{"max_reservations", "2"}, {"early_release", "0"}});
  EXPECT_EQ(spec.print(), "v-reconf:early_release=0,max_reservations=2");
  EXPECT_EQ(PolicySpec("g-loadsharing").print(), "g-loadsharing");
}

TEST(PolicySpecTest, ParsePrintRoundTripsForEveryRegisteredPolicyAndParam) {
  // Every registered policy, bare...
  for (const std::string& name : PolicyRegistry::instance().names()) {
    const PolicySpec spec(name);
    const auto reparsed = PolicySpec::parse(spec.print());
    ASSERT_TRUE(reparsed.has_value()) << name;
    EXPECT_EQ(*reparsed, spec) << name;

    // ...and with every param pinned to its printed default, both one at a
    // time and all at once. The printed defaults and each row's example must
    // also be values the factory accepts.
    const util::ParamList* table = PolicyRegistry::instance().params(name);
    ASSERT_NE(table, nullptr) << name;
    PolicySpec all(name);
    for (std::size_t i = 0; i < table->rows().size(); ++i) {
      const util::ParamRow& row = table->rows()[i];
      PolicySpec single(name, {{row.key, row.write(table->default_values()[i])}});
      const auto single_reparsed = PolicySpec::parse(single.print());
      ASSERT_TRUE(single_reparsed.has_value()) << single.print();
      EXPECT_EQ(*single_reparsed, single);
      std::string error;
      EXPECT_NE(make_policy(PolicySpec(name, {{row.key, row.example}}), &error), nullptr)
          << name << " rejected its own example " << row.key << "=" << row.example << ": "
          << error;
      all.params[row.key] = single.params[row.key];
    }
    const auto all_reparsed = PolicySpec::parse(all.print());
    ASSERT_TRUE(all_reparsed.has_value()) << all.print();
    EXPECT_EQ(*all_reparsed, all);

    std::string error;
    EXPECT_NE(make_policy(all, &error), nullptr)
        << all.print() << " rejected its own documented defaults: " << error;
  }
}

TEST(PolicySpecTest, ParseRejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(PolicySpec::parse("", &error).has_value());
  EXPECT_NE(error.find("empty policy name"), std::string::npos);
  EXPECT_FALSE(PolicySpec::parse(":early_release=0", &error).has_value());
  EXPECT_FALSE(PolicySpec::parse("v-reconf:", &error).has_value());
  EXPECT_FALSE(PolicySpec::parse("v-reconf:early_release", &error).has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos);
  EXPECT_FALSE(PolicySpec::parse("v-reconf:=1", &error).has_value());
  EXPECT_NE(error.find("empty param key"), std::string::npos);
  EXPECT_FALSE(PolicySpec::parse("v-reconf:a=1,a=2", &error).has_value());
  EXPECT_NE(error.find("duplicate param 'a'"), std::string::npos);
}

TEST(PolicyRegistryTest, EveryRegisteredPolicyConstructsWithDefaults) {
  for (const std::string& name : PolicyRegistry::instance().names()) {
    std::string error;
    const auto policy = make_policy(PolicySpec(name), &error);
    ASSERT_NE(policy, nullptr) << name << ": " << error;
    EXPECT_STRNE(policy->name(), "") << name;
  }
}

TEST(PolicyRegistryTest, FormerAliasesAreUnknownPolicies) {
  // Each policy has exactly one name: `policy gls` next to `policy
  // g-loadsharing` used to run one policy twice under two labels.
  for (const char* alias : {"gls", "vrecon", "v-reconfiguration", "mrecon", "m-reconf", "local",
                            "suspend", "oracle-demands"}) {
    std::string error;
    EXPECT_EQ(make_policy(PolicySpec(alias), &error), nullptr) << alias;
    EXPECT_NE(error.find("unknown policy '" + std::string(alias) + "'"), std::string::npos)
        << error;
    EXPECT_EQ(PolicyRegistry::instance().params(alias), nullptr) << alias;
  }
}

TEST(PolicyRegistryTest, UnknownPolicyErrorListsRegisteredNames) {
  std::string error;
  EXPECT_EQ(make_policy(PolicySpec("no-such-policy"), &error), nullptr);
  EXPECT_NE(error.find("unknown policy 'no-such-policy'"), std::string::npos) << error;
  for (const std::string& name : PolicyRegistry::instance().names()) {
    EXPECT_NE(error.find(name), std::string::npos) << error;
  }
}

TEST(PolicyRegistryTest, UnknownParamErrorNamesTheKeyAndKnownParams) {
  std::string error;
  EXPECT_EQ(make_policy(PolicySpec("v-reconf", {{"bogus", "1"}}), &error), nullptr);
  EXPECT_NE(error.find("unknown param 'bogus'"), std::string::npos) << error;
  EXPECT_NE(error.find("early_release"), std::string::npos) << error;

  // A policy with no params says so instead of listing an empty set.
  EXPECT_EQ(make_policy(PolicySpec("local-only", {{"x", "1"}}), &error), nullptr);
  EXPECT_NE(error.find("local-only: unknown param 'x' (takes no params)"), std::string::npos)
      << error;
}

TEST(PolicyRegistryTest, MalformedValueErrorGivesTypeAndExample) {
  std::string error;
  EXPECT_EQ(make_policy(PolicySpec("v-reconf", {{"early_release", "maybe"}}), &error), nullptr);
  EXPECT_NE(error.find("v-reconf: param 'early_release': invalid value 'maybe'"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("expected bool"), std::string::npos) << error;

  EXPECT_EQ(make_policy(PolicySpec("v-reconf", {{"max_reservations", "many"}}), &error),
            nullptr);
  EXPECT_NE(error.find("expected non-negative int"), std::string::npos) << error;

  EXPECT_EQ(make_policy(PolicySpec("v-reconf", {{"reserve_timeout", "2 fortnights"}}), &error),
            nullptr);
  EXPECT_NE(error.find("expected non-negative duration"), std::string::npos) << error;
}

// Each option row carries a bound: a value outside it fails with the table's
// error shape instead of running.
TEST(PolicyRegistryTest, NegativeMaxReservationsIsRejected) {
  std::string error;
  EXPECT_EQ(make_policy(PolicySpec("v-reconf", {{"max_reservations", "-3"}}), &error), nullptr);
  EXPECT_EQ(error,
            "v-reconf: param 'max_reservations': invalid value '-3' (expected non-negative int, "
            "e.g. max_reservations=2)");
}

TEST(PolicyRegistryTest, NegativeGrowthHeadroomIsRejected) {
  std::string error;
  EXPECT_EQ(make_policy(PolicySpec("v-reconf", {{"growth_headroom", "-2"}}), &error), nullptr);
  EXPECT_EQ(error,
            "v-reconf: param 'growth_headroom': invalid value '-2' (expected non-negative double, "
            "e.g. growth_headroom=1.2)");
}

TEST(PolicyRegistryTest, NegativeRegrowFreeSlotsIsRejected) {
  std::string error;
  EXPECT_EQ(make_policy(PolicySpec("m-reconfiguration", {{"regrow_free_slots", "-5"}}), &error),
            nullptr);
  EXPECT_EQ(error,
            "m-reconfiguration: param 'regrow_free_slots': invalid value '-5' (expected "
            "non-negative int, e.g. regrow_free_slots=2)");
}

TEST(PolicyRegistryTest, IntParamsRejectValuesBeyondInt) {
  // max_reservations=4294967298 used to wrap to 2 and run without a word.
  const std::pair<const char*, const char*> params[] = {{"v-reconf", "max_reservations"},
                                                       {"m-reconfiguration", "regrow_free_slots"},
                                                       {"suspension", "min_runnable"}};
  for (const auto& [policy, key] : params) {
    std::string error;
    EXPECT_EQ(make_policy(PolicySpec(policy, {{key, "4294967298"}}), &error), nullptr) << key;
    EXPECT_NE(error.find(std::string("param '") + key + "': invalid value '4294967298'"),
              std::string::npos)
        << error;
    EXPECT_NE(make_policy(PolicySpec(policy, {{key, "2147483647"}}), &error), nullptr) << error;
  }
}

TEST(PolicyRegistryTest, DurationParamsAcceptUnitSuffixes) {
  std::string error;
  EXPECT_NE(make_policy(PolicySpec("v-reconf", {{"reserve_timeout", "2min"},
                                                {"blocking_resolve_timeout", "500ms"}}),
                        &error),
            nullptr)
      << error;
}

TEST(PolicyRegistryTest, CustomRegistrationIsCreatableLikeBuiltins) {
  auto& registry = PolicyRegistry::instance();
  registry.register_policy("test-stub",
                           [] { return make_policy(PolicySpec("local-only"), nullptr); });
  const std::vector<std::string> names = registry.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test-stub"), names.end());
  std::string error;
  EXPECT_NE(make_policy(PolicySpec("test-stub"), &error), nullptr) << error;
}

TEST(PolicyRegistryTest, CustomOptionsReachTheFactoryFilled) {
  // A custom policy declares its options once, as a table; the factory sees
  // the defaults with the spec's params set through the table.
  struct Options {
    int slots = 1;
    SimTime delay = 2.0;
  };
  static Options seen;  // outlives the test: the registry keeps the factory
  PolicyRegistry::instance().register_policy<Options>(
      "test-options",
      util::ParamTable<Options>({
          {"slots", util::field<&Options::slots>, util::ParamKind::kInt, util::kPositive, "3",
           "slots"},
          {"delay", util::field<&Options::delay>, util::ParamKind::kDuration, util::kAnyValue,
           "1s", "delay"},
      }),
      [](const Options& options) {
        seen = options;
        return make_policy(PolicySpec("local-only"), nullptr);
      });
  std::string error;
  ASSERT_NE(make_policy(PolicySpec("test-options", {{"slots", "3"}}), &error), nullptr) << error;
  EXPECT_EQ(seen.slots, 3);
  EXPECT_EQ(seen.delay, 2.0);
  ASSERT_NE(make_policy(PolicySpec("test-options", {{"delay", "250ms"}}), &error), nullptr)
      << error;
  EXPECT_EQ(seen.slots, 1);
  EXPECT_EQ(seen.delay, 0.25);
  EXPECT_EQ(make_policy(PolicySpec("test-options", {{"slots", "0"}}), &error), nullptr);
  EXPECT_EQ(error,
            "test-options: param 'slots': invalid value '0' (expected positive int, e.g. "
            "slots=3)");
  EXPECT_EQ(PolicyRegistry::instance().params("test-options")->keys(), "slots, delay");
}

TEST(PolicyRegistryTest, NonFiniteDoubleAndDurationParamsAreRejected) {
  for (const std::string value : {"nan", "inf", "-inf", "1e999"}) {
    for (const std::string key : {"growth_headroom", "reserve_timeout"}) {
      std::string error;
      EXPECT_EQ(make_policy(PolicySpec("v-reconf", {{key, value}}), &error), nullptr)
          << key << "=" << value;
      EXPECT_NE(error.find("param '" + key + "': invalid value '" + value + "'"),
                std::string::npos)
          << error;
    }
  }
}

}  // namespace
}  // namespace vrc::core
