// Seeded fixture bodies: each SEED line is a board-visible write that can
// reach an exit without a republish, or a vrc:must-publish definition with
// no publish call at all.
#include "board.h"

#include <utility>

namespace fixture {

void Board::publish() {
  // The publisher itself is exempt: it rewrites state while broadcasting.
  untracked_ = static_cast<int>(value_);
}

void Board::bump() {
  ++value_;  // SEED: publish-audit
}

void Board::drain() {
  if (rows_.empty()) return;
  rows_.clear();  // SEED: publish-audit
}

// Early return before any write, then write + publish: clean.
void Board::note(int n) {
  if (n < 0) return;
  rows_.push_back(Row{});
  publish();
}

void Board::member_write(int n) {
  rows_[static_cast<std::size_t>(n)].slots_used = n;  // SEED: publish-audit
}

void Board::alias_write(int n) {
  Row& row = rows_[static_cast<std::size_t>(n)];  // SEED: publish-audit
  row.slots_used++;
}

std::vector<Row> Board::take_rows() {
  std::vector<Row> out = std::move(rows_);  // SEED: publish-audit
  return out;
}

void Board::bulk_import(std::vector<Row> rows) {
  // NOLINT-publish-audit(caller batches imports and publishes once at the end)
  rows_ = std::move(rows);
}

void Board::noop() {
  // NOLINT-publish-audit()  SEED: empty-nolint
}

void Board::rebroadcast_all() { publish(); }

void Board::silent_flip() {  // SEED: missing-publish
  untracked_ = 1;
}

}  // namespace fixture
