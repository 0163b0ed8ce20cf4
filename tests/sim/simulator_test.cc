#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace vrc::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, EqualTimesFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  SimTime observed = -1.0;
  sim.schedule_at(42.5, [&] { observed = sim.now(); });
  sim.run();
  EXPECT_EQ(observed, 42.5);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime observed = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(5.0, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, 15.0);
}

TEST(SimulatorTest, PastTimesClampToNow) {
  Simulator sim;
  SimTime observed = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_at(3.0, [&] { observed = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(observed, 10.0);
}

TEST(SimulatorTest, NegativeDelayClampsToZero) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(-5.0, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelReturnsFalseForUnknownId) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(12345));
  EXPECT_FALSE(sim.cancel(kInvalidEventId));
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run();
}

TEST(SimulatorTest, CancelAfterFiringReturnsFalse) {
  Simulator sim;
  EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, PendingEventsTracksLiveCount) {
  Simulator sim;
  EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunReturnsExecutedCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<SimTime> fired;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(5.0);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired.size(), 10u);
}

TEST(SimulatorTest, RunUntilAdvancesNowEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(100.0);
  EXPECT_EQ(sim.now(), 100.0);
}

TEST(SimulatorTest, RunUntilIncludesEventsAtDeadline) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, EventsScheduledDuringExecutionRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99.0);
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

// --- determinism contract (locked down before the slab-heap rewrite) ---

TEST(SimulatorTest, EqualTimeFifoSurvivesCancellations) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.schedule_at(5.0, [&order, i] { order.push_back(i); }));
  }
  sim.cancel(ids[0]);
  sim.cancel(ids[4]);
  sim.cancel(ids[9]);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 6, 7, 8}));
}

TEST(SimulatorTest, TopLevelPastTimeClampsToNow) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 10.0);
  SimTime observed = -1.0;
  sim.schedule_at(2.0, [&] { observed = sim.now(); });  // already in the past
  sim.run();
  EXPECT_EQ(observed, 10.0);
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(SimulatorTest, CancelAtSameTimestampPreventsFiring) {
  Simulator sim;
  bool second_fired = false;
  EventId second = kInvalidEventId;
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(second)); });
  second = sim.schedule_at(1.0, [&] { second_fired = true; });
  sim.run();
  EXPECT_FALSE(second_fired);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimulatorTest, RunUntilAtExactTimestampRunsAllEqualEvents) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) sim.schedule_at(3.0, [&] { ++fired; });
  sim.schedule_at(3.0 + 1e-9, [&] { fired += 100; });
  EXPECT_EQ(sim.run_until(3.0), 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, PendingEventsAccountingAcrossCancelsAndFires) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(sim.schedule_at(1.0 + i, [] {}));
  EXPECT_EQ(sim.pending_events(), 6u);
  EXPECT_TRUE(sim.cancel(ids[1]));
  EXPECT_TRUE(sim.cancel(ids[3]));
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_TRUE(sim.step());  // fires ids[0]
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_FALSE(sim.cancel(ids[0]));  // already fired
  EXPECT_FALSE(sim.cancel(ids[1]));  // already cancelled
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, StaleIdNeverCancelsALaterEvent) {
  Simulator sim;
  // Exhaust and recycle ids heavily; a cancelled/fired id must stay dead even
  // after its storage is reused by later events.
  std::vector<EventId> dead;
  for (int round = 0; round < 8; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 64; ++i) ids.push_back(sim.schedule_after(1.0, [] {}));
    for (EventId id : ids) EXPECT_TRUE(sim.cancel(id));
    dead.insert(dead.end(), ids.begin(), ids.end());
  }
  int fired = 0;
  std::vector<EventId> live;
  for (int i = 0; i < 64; ++i) live.push_back(sim.schedule_after(1.0, [&] { ++fired; }));
  for (EventId id : dead) EXPECT_FALSE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 64);
  for (EventId id : live) EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, StressMatchesReferenceModel) {
  // Deterministic schedule/cancel/run storm checked against a naive model:
  // a sorted-by-(time, insertion) list with eager deletion. Some events are
  // reserved now and scheduled later, before the next run call, under
  // their reserved numbers; the model inserts them at the reservation.
  struct ModelEvent {
    SimTime when;
    std::uint64_t seq;
    int tag;
  };
  struct Deferred {
    std::uint64_t reserved;  // the simulator's number
    int tag;
  };
  Simulator sim;
  std::vector<ModelEvent> model;
  std::vector<std::pair<EventId, ModelEvent>> live;  // kInvalidEventId while deferred
  std::vector<Deferred> deferred;
  std::vector<int> fired;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull, seq = 0;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  // Schedules the deferred events, latest reservation first.
  auto schedule_deferred = [&] {
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      for (auto& [id, event] : live) {
        if (event.tag != it->tag) continue;
        id = sim.schedule_reserved(event.when, it->reserved,
                                   [&fired, tag = it->tag] { fired.push_back(tag); });
      }
    }
    deferred.clear();
  };
  int reserved_ties = 0;  // deferred events reserved at a live event's time
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t roll = next() % 100;
    if (roll < 45 || live.empty()) {
      const SimTime when = sim.now() + static_cast<double>(next() % 1000) / 10.0;
      const int tag = op;
      EventId id = sim.schedule_at(when, [&fired, tag] { fired.push_back(tag); });
      live.push_back({id, ModelEvent{when, seq++, tag}});
    } else if (roll < 55) {
      // A block of one to three numbers, half of them at the time of a live
      // event, so the events scheduled before they are tie with them.
      const std::uint64_t count = 1 + next() % 3;
      const std::uint64_t first = sim.reserve_sequence(count);
      for (std::uint64_t k = 0; k < count; ++k) {
        const bool tie = next() % 2 == 0;
        const SimTime when = tie ? live[next() % live.size()].second.when
                                 : sim.now() + static_cast<double>(next() % 1000) / 10.0;
        reserved_ties += tie ? 1 : 0;
        const int tag = 100000 + op * 4 + static_cast<int>(k);
        deferred.push_back({first + k, tag});
        live.push_back({kInvalidEventId, ModelEvent{when, seq++, tag}});
      }
    } else if (roll < 75) {
      const std::size_t victim = next() % live.size();
      if (live[victim].first != kInvalidEventId) {
        EXPECT_TRUE(sim.cancel(live[victim].first));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    } else if (roll < 90) {
      schedule_deferred();
      for (int i = 0; i < 3 && !live.empty(); ++i) {
        // Fire the earliest (time, insertion) live event in the model.
        std::size_t best = 0;
        for (std::size_t i2 = 1; i2 < live.size(); ++i2) {
          const auto& a = live[i2].second;
          const auto& b = live[best].second;
          if (a.when < b.when || (a.when == b.when && a.seq < b.seq)) best = i2;
        }
        model.push_back(live[best].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
        EXPECT_TRUE(sim.step());
      }
    } else {
      schedule_deferred();
      const SimTime deadline = sim.now() + static_cast<double>(next() % 200) / 10.0;
      auto due = [&](const ModelEvent& e) { return e.when <= deadline; };
      while (true) {
        std::size_t best = live.size();
        for (std::size_t i2 = 0; i2 < live.size(); ++i2) {
          if (!due(live[i2].second)) continue;
          if (best == live.size()) {
            best = i2;
            continue;
          }
          const auto& a = live[i2].second;
          const auto& b = live[best].second;
          if (a.when < b.when || (a.when == b.when && a.seq < b.seq)) best = i2;
        }
        if (best == live.size()) break;
        model.push_back(live[best].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
      }
      sim.run_until(deadline);
    }
    ASSERT_EQ(sim.pending_events() + deferred.size(), live.size());
  }
  EXPECT_GT(reserved_ties, 200);
  schedule_deferred();
  sim.run();
  // Drain the model in order.
  std::sort(model.begin(), model.end(), [](const ModelEvent& a, const ModelEvent& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  });
  // model holds already-fired events in fire order; append remaining live.
  std::vector<ModelEvent> rest;
  for (auto& entry : live) rest.push_back(entry.second);
  std::sort(rest.begin(), rest.end(), [](const ModelEvent& a, const ModelEvent& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  });
  std::vector<int> expected;
  for (const auto& e : model) expected.push_back(e.tag);
  for (const auto& e : rest) expected.push_back(e.tag);
  EXPECT_EQ(fired, expected);
}

TEST(SimulatorTest, NextTimeExceptOnAnEmptyHeapIsNever) {
  Simulator sim;
  EXPECT_EQ(sim.next_time_except(kInvalidEventId), Simulator::kNever);
  const EventId only = sim.schedule_at(1.0, [] {});
  EXPECT_EQ(sim.next_time_except(only), Simulator::kNever);
  EXPECT_EQ(sim.next_time_except(kInvalidEventId), 1.0);
  EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorTest, NextTimeExceptSkipsTheExcludedTopAndKeepsItsOrder) {
  Simulator sim;
  std::vector<int> order;
  const EventId first = sim.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId second = sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.next_time_except(first), 2.0);
  EXPECT_EQ(sim.next_time_except(second), 1.0);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, NextTimeExceptPassesCancelledEntries) {
  Simulator sim;
  std::vector<int> order;
  const EventId cancelled_top = sim.schedule_at(0.5, [&] { order.push_back(0); });
  const EventId first = sim.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId cancelled_next = sim.schedule_at(1.5, [&] { order.push_back(9); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  ASSERT_TRUE(sim.cancel(cancelled_top));
  ASSERT_TRUE(sim.cancel(cancelled_next));
  // The cancelled top is purged, the excluded event popped, and the
  // cancelled entry under it purged before the time is read.
  EXPECT_EQ(sim.next_time_except(first), 2.0);
  EXPECT_EQ(sim.next_time_except(cancelled_top), 1.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, NextTimeExceptKeepsATieInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  const EventId first = sim.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId second = sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.next_time_except(first), 1.0);
  EXPECT_EQ(sim.next_time_except(second), 1.0);
  EXPECT_EQ(sim.next_time_except(first), 1.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, HorizonFollowsTheRunCall) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.schedule_at(1.0, [&] { seen.push_back(sim.horizon()); });
  sim.schedule_at(2.0, [&] { seen.push_back(sim.horizon()); });
  sim.schedule_at(3.0, [&] { seen.push_back(sim.horizon()); });
  sim.run_until(1.5);
  ASSERT_TRUE(sim.step());
  sim.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{1.5, 1.5, Simulator::kNever}));
}

TEST(PeriodicTaskTest, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, 1.0, 2.0, [&](SimTime now) { fires.push_back(now); });
  sim.run_until(9.0);
  task.stop();
  EXPECT_EQ(fires, (std::vector<SimTime>{1.0, 3.0, 5.0, 7.0, 9.0}));
}

TEST(PeriodicTaskTest, StopPreventsFurtherFires) {
  Simulator sim;
  int fires = 0;
  PeriodicTask task(sim, 1.0, 1.0, [&](SimTime) {
    if (++fires == 3) task.stop();
  });
  sim.run();  // would never drain unless stop() works
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, StopIsIdempotent) {
  Simulator sim;
  PeriodicTask task(sim, 1.0, 1.0, [](SimTime) {});
  task.stop();
  task.stop();
  EXPECT_FALSE(task.running());
  EXPECT_EQ(sim.run(), 0u);
}

TEST(PeriodicTaskTest, DestructorCancelsPendingEvent) {
  Simulator sim;
  {
    PeriodicTask task(sim, 1.0, 1.0, [](SimTime) {});
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
}

/// The firing time `periods` periods after `start`, by the additions a
/// PeriodicTask makes.
SimTime stepped(SimTime start, SimTime period, int periods) {
  SimTime when = start;
  for (int i = 0; i < periods; ++i) when += period;
  return when;
}

TEST(PeriodicTaskTest, SkipStopsAtTheNextOtherEvent) {
  Simulator sim;
  std::vector<SimTime> fires;
  std::uint64_t skipped = 0;
  sim.schedule_at(1.0, [] {});
  PeriodicTask task(sim, 0.1, 0.1, [&](SimTime now) {
    fires.push_back(now);
    if (fires.size() == 1) skipped = task.skip(1000);
    if (fires.size() == 2) task.stop();
  });
  sim.run();
  // Firings 0.2 .. 0.9 come before the event at 1.0; the first firing at or
  // after it is the tenth.
  int periods = 0;
  while (stepped(0.2, 0.1, periods) < 1.0) ++periods;
  EXPECT_EQ(skipped, static_cast<std::uint64_t>(periods));
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[1], stepped(0.2, 0.1, periods));
  EXPECT_GE(fires[1], 1.0);
}

TEST(PeriodicTaskTest, SkipStopsAfterMaxPeriods) {
  Simulator sim;
  std::vector<SimTime> fires;
  std::uint64_t skipped = 0;
  sim.schedule_at(100.0, [] {});
  PeriodicTask task(sim, 1.0, 1.0, [&](SimTime now) {
    fires.push_back(now);
    if (fires.size() == 1) skipped = task.skip(3);
    if (fires.size() == 2) task.stop();
  });
  sim.run();
  EXPECT_EQ(skipped, 3u);
  EXPECT_EQ(fires, (std::vector<SimTime>{1.0, 5.0}));
}

TEST(PeriodicTaskTest, BlockedSkipTouchesNothing) {
  // The callback creates an event at exactly the next firing time. That
  // firing was armed before the callback ran, so it must still fire first,
  // which a re-arm at the same time would reverse.
  Simulator sim;
  std::vector<std::string> order;
  std::uint64_t skipped = 99;
  std::uint64_t zero_max = 99;
  PeriodicTask task(sim, 1.0, 1.0, [&](SimTime now) {
    order.push_back("tick@" + std::to_string(static_cast<int>(now)));
    if (order.size() > 1) {
      task.stop();
      return;
    }
    sim.schedule_at(2.0, [&] { order.push_back("event@2"); });
    skipped = task.skip(10);
    zero_max = task.skip(0);
  });
  sim.run();
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(zero_max, 0u);
  EXPECT_EQ(order, (std::vector<std::string>{"tick@1", "tick@2", "event@2"}));
}

TEST(PeriodicTaskTest, ResumedFiringTiesAfterOlderEventsAndBeforeNewerOnes) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule_at(5.0, [&] { order.push_back("older@5"); });
  std::uint64_t skipped = 0;
  PeriodicTask task(sim, 1.0, 1.0, [&](SimTime now) {
    order.push_back("tick@" + std::to_string(static_cast<int>(now)));
    if (order.size() == 1) {
      skipped = task.skip(100);
      sim.schedule_at(5.0, [&] { order.push_back("newer@5"); });
    } else {
      task.stop();
    }
  });
  sim.run();
  EXPECT_EQ(skipped, 3u);  // 2, 3 and 4
  EXPECT_EQ(order, (std::vector<std::string>{"tick@1", "older@5", "tick@5", "newer@5"}));
}

TEST(PeriodicTaskTest, SkipLandsOnTheBitsOfRepeatedAddition) {
  // A 10 ms period is inexact in binary: the resumed time must be the one
  // the unskipped task reaches, not start + n * period.
  const SimTime period = 0.01;
  const auto first_firing_from = [&](bool skip) {
    Simulator sim;
    sim.schedule_at(123.456, [] {});
    SimTime landed = 0.0;
    PeriodicTask task(sim, period, period, [&](SimTime now) {
      if (now >= 123.456) {
        landed = now;
        task.stop();
      } else if (skip) {
        task.skip(std::numeric_limits<std::uint64_t>::max());
      }
    });
    sim.run();
    return landed;
  };
  const SimTime resumed = first_firing_from(true);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed),
            std::bit_cast<std::uint64_t>(first_firing_from(false)));
  EXPECT_NE(std::bit_cast<std::uint64_t>(resumed),
            std::bit_cast<std::uint64_t>(period * 12346.0));
}

TEST(PeriodicTaskTest, SkipStopsAtTheHorizon) {
  Simulator sim;
  std::vector<SimTime> fires;
  std::uint64_t skipped = 0;
  PeriodicTask task(sim, 1.0, 1.0, [&](SimTime now) {
    fires.push_back(now);
    if (fires.size() == 1) skipped = task.skip(100);
  });
  // No other event: run_until's deadline is the only bound, so the rounds
  // skipped are ones the call would have fired.
  sim.run_until(4.5);
  EXPECT_EQ(skipped, 3u);
  EXPECT_EQ(fires, (std::vector<SimTime>{1.0}));
  sim.run_until(5.0);
  EXPECT_EQ(fires, (std::vector<SimTime>{1.0, 5.0}));
  // Under step() control returns after each event, so nothing is skipped.
  fires.clear();
  PeriodicTask stepped_task(sim, 6.0, 1.0, [&](SimTime now) {
    fires.push_back(now);
    skipped = stepped_task.skip(100);
  });
  task.stop();
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(fires, (std::vector<SimTime>{6.0}));
  stepped_task.stop();
}

TEST(PeriodicTaskTest, StoppedTaskSkipsNothing) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  PeriodicTask task(sim, 1.0, 1.0, [](SimTime) {});
  task.stop();
  EXPECT_EQ(task.skip(5), 0u);
  EXPECT_EQ(sim.run(), 1u);
}

}  // namespace
}  // namespace vrc::sim
