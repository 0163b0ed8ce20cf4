// Clean fixture for scripts/vrc_lint.py --self-test: zero findings
// expected. Exercises the false-positive guards — banned names inside
// comments and string literals, the NOLINT-determinism escape hatch (same
// line and preceding line), locally-named lookalikes, and members with
// default initializers.
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

using SimTime = double;

namespace fixture {

// Prose mentions of rand(), time(), std::random_device, and
// std::unordered_map must not trip the linter; neither must /* srand(7) */.
const char* kBannedNamesInStrings =
    "call rand() or time(nullptr) or iterate an std::unordered_map";

// Same-line escape hatch with a mandatory reason.
std::unordered_map<std::string, int> g_symbol_ids;  // NOLINT-determinism(ids assigned once at startup in file order; table is never iterated)

// Preceding-line escape hatch.
// NOLINT-determinism(scratch table rebuilt per query; results are sorted before use)
std::unordered_map<int, double> g_scratch;

// Prose about fesetround(FE_UPWARD), <cfenv> and FENV_ACCESS is fine, and so
// are reads of the environment and lookalike names.
const char* kRoundingNote = "never call fesetround( or #include <cfenv>";
int reset_fesetround_calls(int calls) { return std::fegetround() == 0 ? calls : 0; }

int lookalike_names(int operand) {
  int random_count = 0;          // identifier containing "random" is fine
  int time_budget_ms = operand;  // identifier containing "time" is fine
  double uptime(double);         // declaration, not a call of time(
  (void)uptime;
  return random_count + time_budget_ms;
}

// Deterministic replacements for the banned constructs.
std::map<int, double> ordered_lookup;

class FullyInitialized {
 public:
  double elapsed() const { return end_ - start_; }

 private:
  SimTime start_ = 0.0;
  SimTime end_{0.0};
  bool running_ = false;
  std::vector<int> history_;  // non-scalar members need no initializer
};

}  // namespace fixture
