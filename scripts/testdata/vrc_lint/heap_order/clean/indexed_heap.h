// Clean fixture heap: the node tie-break the analyzer reads from precedes().
#pragma once

namespace fixture {

struct Key {
  int primary = 0;
  int secondary = 0;
};

struct Entry {
  Key key;
  int node = 0;
};

inline bool precedes(const Entry& a, const Entry& b) {
  if (a.key.primary != b.key.primary) return a.key.primary < b.key.primary;
  if (a.key.secondary != b.key.secondary) {
    return a.key.secondary < b.key.secondary;
  }
  return a.node < b.node;
}

}  // namespace fixture
