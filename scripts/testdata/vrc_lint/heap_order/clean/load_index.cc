// Clean fixture impl: key expressions agree with DESIGN.md
// (whitespace differences are deliberately present — the comparison is
// whitespace-insensitive).
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
    case Order::kMaxIdle:
      return {-info.idle_memory, 0};
  }
  return {};
}

}  // namespace fixture
