// Seeded-violation fixture for scripts/vrc_lint.py --self-test.
//
// Every line tagged `// SEED: <rule>` must be flagged with exactly that rule;
// no other line may be flagged. This file is never compiled — it exists only
// so the linter's regexes are themselves under test and a refactor that
// silently stops detecting a category fails CI.
#include <cfenv>  // SEED: fp-env
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include "fenv.h"  // SEED: fp-env

using SimTime = double;

namespace fixture {

double wall_clock_reads() {
  auto a = std::chrono::system_clock::now();          // SEED: wall-clock
  auto b = std::chrono::steady_clock::now();          // SEED: wall-clock
  auto c = std::chrono::high_resolution_clock::now(); // SEED: wall-clock
  std::time_t d = time(nullptr);                      // SEED: wall-clock
  long e = clock();                                   // SEED: wall-clock
  (void)a; (void)b; (void)c; (void)d;
  return static_cast<double>(e);
}

int libc_rng() {
  srand(42);                // SEED: libc-rng
  int r = rand();           // SEED: libc-rng
  double d = drand48();     // SEED: libc-rng
  return r + static_cast<int>(d);
}

unsigned nondeterministic_seed() {
  std::random_device device;  // SEED: random-device
  return device();
}

int unordered_iteration(int key) {
  std::unordered_map<int, int> table;       // SEED: unordered-iter
  std::unordered_set<int> members;          // SEED: unordered-iter
  std::unordered_multimap<int, int> multi;  // SEED: unordered-iter
  (void)members;
  (void)multi;
  return table[key];
}

struct Job { int id; };

void pointer_ordering(Job* lhs, Job* rhs) {
  std::set<Job*> by_address;                      // SEED: pointer-key
  std::map<Job*, int> ranks;                      // SEED: pointer-key
  std::set<int, std::less<int*>> weird;           // SEED: pointer-key
  bool before = &lhs < &rhs;                      // SEED: pointer-compare
  (void)by_address; (void)ranks; (void)weird; (void)before;
}

const char* environment_read() {
  return getenv("VRC_TRACE_DIR");  // SEED: env-read
}

void rounding_mode_changes(std::fenv_t* saved) {
#pragma STDC FENV_ACCESS ON  // SEED: fp-env
  std::fesetround(FE_UPWARD);  // SEED: fp-env
  fesetenv(saved);             // SEED: fp-env
  ::feupdateenv(saved);        // SEED: fp-env
}

class UninitializedMembers {
 public:
  int initialized_ = 0;

 private:
  double speed_;     // SEED: uninit-member
  bool enabled_;     // SEED: uninit-member
  SimTime deadline_; // SEED: uninit-member
};

void empty_reason() {
  std::unordered_set<int> cache;  // NOLINT-determinism() SEED: empty-nolint
  (void)cache;
}

}  // namespace fixture
