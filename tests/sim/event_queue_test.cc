#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace stark::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(2.0, [&] { order.push_back(2); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(3.0, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.push(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(1.0, [&] { ++fired; });
  q.push(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelHeadUpdatesNextTime) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(5.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(123));
}

TEST(EventQueue, StaleIdFromReusedSlotIsRejected) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  // The slot is reused by the next push, but under a new generation: the
  // old id must not cancel the new occupant.
  const EventId b = q.push(2.0, [] {});
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
}

// Regression test for unbounded event-queue memory growth: storage must be
// bounded by the peak number of *live* events, not by the total number of
// events ever pushed. A long simulation that pushes and retires millions of
// events (heartbeats, timers, task completions) must not accumulate a slot
// per push. Along the way, every push is accounted for: it either pops once
// or is removed by exactly one cancel that returned true.
TEST(EventQueue, SlotCountBoundedByLiveEventsOverMillionCycles) {
  EventQueue q;
  constexpr std::size_t kLive = 1'000;        // steady-state live events
  constexpr std::size_t kCycles = 1'000'000;  // total push/pop/cancel cycles
  std::vector<EventId> ids;
  ids.reserve(kLive);
  double t = 0.0;
  std::size_t peak_live = 0;
  std::size_t pushes = 0;
  std::size_t pops = 0;
  std::size_t cancelled = 0;  // cancels that returned true
  std::size_t rearms = 0;
  std::size_t stale_rearms = 0;
  const auto push = [&](std::size_t i) {
    const EventId id = q.push(t + 1.0 + static_cast<double>(i % 97), [] {});
    ++pushes;
    peak_live = std::max(peak_live, q.size());
    return id;
  };
  for (std::size_t i = 0; i < kCycles; ++i) {
    ids.push_back(push(i));
    if (ids.size() >= kLive) {
      // Retire half by firing, half by cancellation, so both release
      // paths (pop and cancel) feed the free list.
      if (i % 2 == 0) {
        q.pop();
        ++pops;
        ids.erase(ids.begin());
      } else {
        EXPECT_TRUE(q.cancel(ids.back()));
        ++cancelled;
        ids.pop_back();
      }
    }
    if (i % 7 == 0) {
      // Push back a mid-age timer. Pops take the earliest event, not the
      // oldest id, so this one may already have fired, and its slot may
      // hold a newer event: then the cancel must return false, and there
      // is nothing to rearm.
      EventId& victim = ids[i % ids.size()];
      ++rearms;
      if (q.cancel(victim)) {
        ++cancelled;
        victim = push(i);
      } else {
        ++stale_rearms;
      }
    }
    t += 1e-3;
  }
  // Some rearms found their event live and some found it already fired.
  EXPECT_GT(stale_rearms, 0u);
  EXPECT_LT(stale_rearms, rearms);
  // O(live): allocated slots never exceed the peak live count (plus the
  // transient +1 while at peak), no matter how many events were pushed.
  EXPECT_LE(q.slots_allocated(), peak_live + 1);
  EXPECT_GE(q.slots_allocated(), q.size());
  // Drain cleanly: every event still live pops exactly once.
  const std::size_t live_at_end = q.size();
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, live_at_end);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(pops + fired, pushes - cancelled);
}

}  // namespace
}  // namespace stark::sim
