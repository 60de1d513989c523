// Differential lockdown of the pooled event queue against the reference
// implementation (the pre-pool seed queue, kept as the executable spec in
// tests/reference_event_queue.hpp).
//
// Both queues are driven with the same randomized push / cancel /
// reschedule script — including cancels of already-fired events, double
// cancels and bursts of simultaneous timestamps — and must produce the
// identical pop sequence: same times, same payloads, same counters at
// every step. This is what licenses the pooled rewrite: whatever the
// internal representation does (slot recycling, lazy cancellation, heap
// compaction), nothing observable may change.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "support/rng.hpp"

namespace easched::sim {
namespace {

// The script drives both queues through a payload trace: each pushed action
// appends its tag to the owning queue's log, so identical logs mean
// identical pop order of identical events.
struct Pair {
  EventQueue pooled;
  ReferenceEventQueue reference;
  std::vector<std::uint64_t> pooled_log;
  std::vector<std::uint64_t> reference_log;
  // Handles of every push, parallel across implementations; cancelled or
  // fired entries stay in place so the script can re-cancel them.
  std::vector<EventId> pooled_ids;
  std::vector<std::uint64_t> reference_ids;

  void push(SimTime t, std::uint64_t tag) {
    pooled_ids.push_back(
        pooled.push(t, [this, tag] { pooled_log.push_back(tag); }));
    reference_ids.push_back(
        reference.push(t, [this, tag] { reference_log.push_back(tag); }));
  }

  void cancel(std::size_t k) {
    pooled.cancel(pooled_ids[k]);
    reference.cancel(reference_ids[k]);
  }

  void pop() {
    ASSERT_FALSE(pooled.empty());
    ASSERT_FALSE(reference.empty());
    auto p = pooled.pop();
    auto r = reference.pop();
    ASSERT_EQ(p.time, r.time);
    p.action();
    r.action();
    ASSERT_EQ(pooled_log, reference_log);
  }

  void check_counters() const {
    ASSERT_EQ(pooled.size(), reference.size());
    ASSERT_EQ(pooled.empty(), reference.empty());
    ASSERT_EQ(pooled.cancelled(), reference.cancelled());
  }
};

TEST(EventQueueDifferential, RandomScriptsProduceIdenticalPopSequences) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    support::Rng rng(seed);
    Pair q;
    std::uint64_t tag = 0;
    for (int step = 0; step < 4000; ++step) {
      const double roll = rng.uniform01();
      if (roll < 0.45 || q.pooled.empty()) {
        // Coarse time grid on purpose: plenty of exactly-simultaneous
        // events to exercise the seq tie-break.
        q.push(static_cast<SimTime>(rng.uniform_int(0, 500)), tag++);
      } else if (roll < 0.70 && !q.pooled_ids.empty()) {
        // Cancel a random historical handle: sometimes live, sometimes
        // already fired, sometimes a double cancel. Both queues must agree
        // it is (or is not) a successful cancellation.
        q.cancel(static_cast<std::size_t>(
            rng.uniform_int(0, q.pooled_ids.size() - 1)));
      } else if (roll < 0.85 && !q.pooled_ids.empty()) {
        // Reschedule = cancel + push, the simulator's VM-finish pattern.
        q.cancel(static_cast<std::size_t>(
            rng.uniform_int(0, q.pooled_ids.size() - 1)));
        q.push(static_cast<SimTime>(rng.uniform_int(0, 500)), tag++);
      } else {
        q.pop();
      }
      q.check_counters();
    }
    while (!q.pooled.empty()) q.pop();
    q.check_counters();
    ASSERT_FALSE(q.pooled_log.empty());
    ASSERT_EQ(q.pooled_log, q.reference_log) << "seed " << seed;
  }
}

TEST(EventQueueDifferential, CancelHeavyScriptTriggersCompaction) {
  // Push far past the compaction threshold, cancel > half, then verify the
  // survivors pop identically. Exercises compact()'s Floyd rebuild.
  support::Rng rng(99);
  Pair q;
  for (std::uint64_t tag = 0; tag < 600; ++tag) {
    q.push(static_cast<SimTime>(rng.uniform_int(0, 100)), tag);
  }
  for (std::size_t k = 0; k < 600; ++k) {
    if (k % 3 != 0) q.cancel(k);  // cancel two thirds
  }
  q.check_counters();
  while (!q.pooled.empty()) q.pop();
  ASSERT_EQ(q.pooled_log.size(), 200u);
  ASSERT_EQ(q.pooled_log, q.reference_log);
}

TEST(EventQueueDifferential, StaleHandleOfRecycledSlotIsRejected) {
  EventQueue q;
  int fired = 0;
  const EventId first = q.push(10, [&fired] { ++fired; });
  q.cancel(first);  // frees the slot
  ASSERT_EQ(q.cancelled(), 1u);

  // The next push recycles the freed slot; the old id must not be able to
  // cancel the new occupant.
  const EventId second = q.push(20, [&fired] { ++fired; });
  ASSERT_NE(first, second);
  q.cancel(first);  // stale: generation mismatch, must be a no-op
  ASSERT_EQ(q.cancelled(), 1u);
  ASSERT_EQ(q.size(), 1u);

  auto f = q.pop();
  ASSERT_EQ(f.time, 20);
  f.action();
  ASSERT_EQ(fired, 1);

  // And the id of a fired event is equally inert after recycling.
  q.cancel(second);
  ASSERT_EQ(q.cancelled(), 1u);
  ASSERT_TRUE(q.empty());
}

TEST(EventQueueDifferential, HandlesStayDistinctAcrossHeavyRecycling) {
  // One slot recycled many times must hand out a fresh id every time.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    const EventId id = q.push(i, [] {});
    for (const EventId prior : ids) ASSERT_NE(id, prior);
    ids.push_back(id);
    q.pop();
  }
  // All historical ids are stale now; none may cancel anything.
  EventId live = q.push(1000, [] {});
  for (const EventId prior : ids) q.cancel(prior);
  ASSERT_EQ(q.size(), 1u);
  ASSERT_EQ(q.cancelled(), 0u);
  q.cancel(live);
  ASSERT_TRUE(q.empty());
}

}  // namespace
}  // namespace easched::sim
