// Seeded fixture impl: one key expression drifted from the DESIGN.md table,
// one case exists that the table never documents.
#include "indexed_heap.h"
#include "load_index.h"

namespace fixture {

struct LoadInfo {
  int slots_used = 0;
  long idle_memory = 0;
};

struct LoadInfoBoard {
  static Key key_for(Order order, const LoadInfo& info);
};

Key LoadInfoBoard::key_for(Order order, const LoadInfo& info) {
  switch (order) {
    case Order::kMinSlotsMaxIdle:
      return {info.slots_used, -info.idle_memory};
    case Order::kMaxIdle:  // SEED: heap-order
      return {-info.idle_memory, 1};
    case Order::kUndocumented:  // SEED: heap-order
      return {info.slots_used, 0};
  }
  return {};
}

}  // namespace fixture
