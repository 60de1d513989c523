// The pre-pool event queue, kept in test code as an executable
// specification.
//
// This is the seed implementation the pooled queue replaced: one
// heap-allocated `Entry` per event carrying a `std::function` action, a
// `std::push_heap`-managed binary heap of owning pointers, and an
// `unordered_map` id index. It is deliberately naive — its pop order
// (time, then push sequence; cancelled entries skipped) *defines* the
// kernel's ordering semantics, and `tests/test_event_queue_differential.cpp`
// drives it and `EventQueue` with identical scripts to prove the
// pooled rewrite changes nothing observable. `bench_event_queue --smoke`
// (ctest: `bench_sim_smoke`) fails if the pooled queue ever regresses below
// it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "support/contracts.hpp"

namespace easched::sim {

class ReferenceEventQueue {
 public:
  template <typename F>
  std::uint64_t push(SimTime t, F&& fn) {
    auto entry = std::make_unique<Entry>();
    entry->time = t;
    entry->seq = next_seq_++;
    entry->id = next_id_++;
    entry->fn = std::forward<F>(fn);
    EA_EXPECTS(entry->fn != nullptr);
    const std::uint64_t id = entry->id;
    index_.emplace(id, entry.get());
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return id;
  }

  void cancel(std::uint64_t id) {
    if (id == 0) return;  // kNoEvent
    const auto it = index_.find(id);
    if (it == index_.end()) return;  // already fired or cancelled
    it->second->fn = nullptr;
    index_.erase(it);
    EA_ASSERT(live_ > 0);
    --live_;
    ++cancelled_;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::uint64_t cancelled() const noexcept { return cancelled_; }

  [[nodiscard]] SimTime next_time() {
    EA_EXPECTS(!empty());
    prune_top();
    return heap_.front()->time;
  }

  struct Fired {
    SimTime time;
    std::function<void()> action;
  };

  Fired pop() {
    EA_EXPECTS(!empty());
    prune_top();
    EA_ASSERT(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    auto entry = std::move(heap_.back());
    heap_.pop_back();
    index_.erase(entry->id);
    EA_ASSERT(live_ > 0);
    --live_;
    Fired fired{entry->time, std::move(entry->fn)};
    prune_top();
    return fired;
  }

 private:
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;
    std::function<void()> fn;  // empty once cancelled
  };
  struct Later {
    bool operator()(const std::unique_ptr<Entry>& a,
                    const std::unique_ptr<Entry>& b) const noexcept {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  void prune_top() {
    while (!heap_.empty() && heap_.front()->fn == nullptr) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  std::vector<std::unique_ptr<Entry>> heap_;
  std::unordered_map<std::uint64_t, Entry*> index_;  // live events only
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;
};

}  // namespace easched::sim
