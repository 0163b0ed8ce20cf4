// Seeded fixture for the publish-audit analyzer: a miniature board-visible
// class exercising every mutation kind the analyzer recognizes.
#pragma once

#include <cstdint>
#include <vector>

namespace fixture {

struct Row {
  int slots_used = 0;
};

class Board {
 public:
  void publish();  // vrc:publish-fn

  // Inline write with no publish before the implicit exit.
  void set_value(int v) { value_ = v; }  // SEED: publish-audit

  // Inline write followed by a publish: clean.
  void set_value_published(int v) {
    value_ = v;
    publish();
  }

  void bump();
  void drain();
  void note(int n);
  void member_write(int n);
  void alias_write(int n);
  std::vector<Row> take_rows();
  void bulk_import(std::vector<Row> rows);
  void noop();
  void rebroadcast_all();  // vrc:must-publish
  void silent_flip();      // vrc:must-publish

  int value() const { return static_cast<int>(value_); }

 private:
  std::int64_t value_ = 0;  // vrc:board-visible
  std::vector<Row> rows_;   // vrc:board-visible
  int untracked_ = 0;
};

}  // namespace fixture
