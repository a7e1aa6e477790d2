#include "sim/event_loop.h"

#include <algorithm>
#include <limits>

namespace nimbus::sim {

EventLoop::EventLoop() { bucket_head_.fill(kNoSlot); }

std::uint32_t EventLoop::grow_slot() {
  NIMBUS_CHECK_MSG(total_slots_ <= kSlotMask, "event slot pool exhausted");
  if (total_slots_ == slots_.size()) {
    callbacks_.push_back(std::make_unique<Callback[]>(kChunkSize));
    slots_.resize(slots_.size() + kChunkSize);
  }
  return total_slots_++;
}

void EventLoop::fire_slot(std::uint32_t s, TimeNs t) {
  now_ = t;
  slot_ref(s).pending_id = 0;  // a self-cancel inside the callback is a no-op
  --live_;
  ++processed_;
  obs_fired_.inc();
  // In-place invocation: chunked callbacks have stable addresses, so the
  // callback may grow the pools or the queue freely while running.  The
  // slot is not on the free list yet, so nothing can re-occupy it.
  Callback& cb = callback_ref(s);
  cb();
  cb.reset();
  slot_ref(s).wnext = free_head_;  // re-indexed: slots_ may have grown
  free_head_ = s;
}

void EventLoop::release_slot(std::uint32_t s) {
  Slot& slot = slot_ref(s);
  slot.pending_id = 0;
  slot.anchor_id = 0;  // a pending anchor entry becomes a tombstone
  callback_ref(s).reset();  // free for inline callables (no destructor work)
  slot.wnext = free_head_;
  free_head_ = s;
}

std::uint64_t EventLoop::next_nonempty_bucket() const {
  const std::uint64_t start = cursor_ & kWheelMask;
  std::uint64_t w = start >> 6;
  std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (start & 63));
  while (word == 0) {
    w = (w + 1) & (kOccWords - 1);
    word = occ_[w];
  }
  const auto pos =
      (w << 6) | static_cast<std::uint64_t>(__builtin_ctzll(word));
  // Convert the circular position back to an absolute bucket index.
  const std::uint64_t base = cursor_ - start;
  return pos >= start ? base + pos : base + pos + kWheelSize;
}

void EventLoop::wheel_unlink(std::uint32_t s, Slot& slot, std::uint64_t b) {
  const std::uint32_t next = slot.wnext;
  const std::uint32_t prev = slot.wprev;
  // O(1) link consistency: both neighbours must point back at `s`.
  const bool linked =
      (prev == kNoSlot ? bucket_head_[b] == s
                       : prev < total_slots_ && slot_ref(prev).wnext == s) &&
      (next == kNoSlot || (next < total_slots_ && slot_ref(next).wprev == s));
  NIMBUS_CHECK_MSG(linked, "pending near event missing from its bucket");
  if (prev == kNoSlot) {
    bucket_head_[b] = next;
    if (next == kNoSlot) occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  } else {
    slot_ref(prev).wnext = next;
  }
  if (next != kNoSlot) slot_ref(next).wprev = prev;
  slot.wnext = kNoSlot;  // a stale link to this slot now fails the check
  --wheel_count_;
}

// Eagerly unlinks the pending entry for slot `s` if it lives in the wheel.
// A far event's heap entry (its own, or its slot's anchor) is left behind
// as a lazy tombstone that pull drops.  Far tombstones stay rare: a
// re-arm to a later far deadline keeps the anchor instead of making one
// (see reschedule), so only earlier moves and cancels leave them.  An
// event in the drain batch is already off the wheel.  Buckets therefore
// hold exactly the live near events: a flow's per-ACK RTO rearms leave
// nothing behind for the drain's min-scan to wade through.
void EventLoop::wheel_unlink_if_near(std::uint32_t s, Slot& slot) {
  if (in_far_heap(slot.time) || slot.wprev == kInBatch) return;
  wheel_unlink(s, slot, abs_bucket(slot.time) & kWheelMask);
}

void EventLoop::pull_far_into_window() {
  while (!heap_.empty()) {
    const TimeNs t = time_of(heap_[0].key);
    const std::uint64_t ab = static_cast<std::uint64_t>(t) >> kBucketShift;
    if (ab >= cursor_ + kWheelSize) break;
    const auto id = static_cast<std::uint64_t>(heap_[0].key);
    heap_pop_min();
    // Drop far tombstones here instead of carrying them into a bucket.
    const auto s = static_cast<std::uint32_t>(id & kSlotMask);
    Slot& slot = slot_ref(s);
    if (slot.pending_id == id) {
      wheel_insert(s, slot, ab);
    } else if (slot.anchor_id == id) {
      // The anchor stood in for a later (or equal) deadline: enqueue the
      // real key now — into the wheel, or back into the heap if it is
      // still beyond the window.
      slot.anchor_id = 0;
      enqueue_entry(s, slot);
    }
  }
}

void EventLoop::heap_push(Entry e) {
  obs_heap_inserts_.inc();
  // Hole-based sift-up: shift parents down and place the new entry once.
  heap_.push_back(e);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (heap_[parent].key <= e.key) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventLoop::heap_pop_min() {
  // Hole-based sift-down of the last entry from the root.
  const std::size_t n = heap_.size() - 1;
  const Entry last = heap_[n];
  heap_.pop_back();
  if (n == 0) return;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].key < heap_[best].key) best = c;
    }
    if (last.key <= heap_[best].key) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

void EventLoop::cancel(EventId id) {
  const auto s = static_cast<std::uint32_t>(id & kSlotMask);
  if (id == 0 || s >= total_slots_) return;
  Slot& slot = slot_ref(s);
  if (slot.pending_id != id) return;  // fired, cancelled, or stale
  wheel_unlink_if_near(s, slot);
  release_slot(s);
  --live_;
}

EventId EventLoop::reschedule(EventId id, TimeNs t) {
  const auto s = static_cast<std::uint32_t>(id & kSlotMask);
  NIMBUS_CHECK_MSG(t >= now_, "cannot schedule events in the past");
  NIMBUS_CHECK_MSG(id != 0 && s < total_slots_ &&
                       slot_ref(s).pending_id == id,
                   "reschedule of a fired or cancelled event");
  Slot& slot = slot_ref(s);
  const EventId nid = make_event_id(s);
  if (in_far_heap(slot.time) &&
      static_cast<std::uint64_t>(t) >= slot.time) {
    // O(1) far re-arm: the heap entry already queued for this slot (the
    // pending one, or an earlier anchor) becomes / stays the anchor.  Its
    // time is <= t, so pull_far_into_window reaches it before t's bucket
    // and enqueues (t, nid) then — the key an eager push would carry.
    if (slot.anchor_id == 0) slot.anchor_id = id;
    slot.pending_id = nid;
    slot.time = static_cast<std::uint64_t>(t);
    return nid;
  }
  if (!in_far_heap(slot.time) && slot.wprev != kInBatch &&
      abs_bucket(static_cast<std::uint64_t>(t)) == abs_bucket(slot.time)) {
    // In-place re-arm: a wheel bucket is unordered (the drain scans it for
    // the smallest (time, seq) key), so a near event whose new deadline
    // lands in the bucket it already occupies only needs its key updated.
    // The fresh id gives it the FIFO position cancel() + schedule() would:
    // behind every pending event with the same deadline.
    slot.pending_id = nid;
    slot.time = static_cast<std::uint64_t>(t);
    return nid;
  }
  // Near entries are unlinked (batch entries are already off the wheel);
  // a far entry (or anchor) becomes a lazy tombstone.
  wheel_unlink_if_near(s, slot);
  slot.anchor_id = 0;
  slot.pending_id = nid;
  slot.time = static_cast<std::uint64_t>(t);
  enqueue_entry(s, slot);
  return nid;
}

void EventLoop::set_run_budget(std::uint64_t max_events,
                               double max_wall_seconds) {
  budget_stop_ = BudgetStop::kNone;
  budget_events_end_ = max_events == 0 ? 0 : processed_ + max_events;
  budget_wall_armed_ = max_wall_seconds > 0.0;
  if (budget_wall_armed_) {
    budget_wall_deadline_ =
        // detlint:allow(R1): watchdog wall-deadline arm; never feeds sim state
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(max_wall_seconds));
  }
  if (budget_events_end_ == 0 && !budget_wall_armed_) {
    budget_check_next_ = ~std::uint64_t{0};
    return;
  }
  budget_check_next_ = processed_ + kBudgetCheckInterval;
  if (budget_events_end_ != 0 && budget_events_end_ < budget_check_next_) {
    budget_check_next_ = budget_events_end_;
  }
}

void EventLoop::check_budget() {
  if (budget_events_end_ != 0 && processed_ >= budget_events_end_) {
    budget_stop_ = BudgetStop::kEvents;
    stopped_ = true;
    return;
  }
  if (budget_wall_armed_ &&
      // detlint:allow(R1): watchdog wall-deadline poll; never feeds sim state
      std::chrono::steady_clock::now() >= budget_wall_deadline_) {
    budget_stop_ = BudgetStop::kWall;
    stopped_ = true;
    return;
  }
  budget_check_next_ = processed_ + kBudgetCheckInterval;
  if (budget_events_end_ != 0 && budget_events_end_ < budget_check_next_) {
    budget_check_next_ = budget_events_end_;
  }
}

// NIMBUS_HOT_PATH begin
void EventLoop::run_until(TimeNs t_end) {
  stopped_ = false;
  while (!stopped_) {
    // Move the window to the next non-empty bucket (or jump it to the far
    // heap's earliest entry), then migrate far events that the slide
    // exposed.
    if (wheel_count_ > 0) {
      cursor_ = next_nonempty_bucket();
    } else if (!heap_.empty()) {
      cursor_ =
          static_cast<std::uint64_t>(time_of(heap_[0].key)) >> kBucketShift;
    } else {
      break;  // queue empty
    }
    pull_far_into_window();

    // Drain bucket `cursor_` in (time, seq) order.  The common case
    // (distinct deadlines) is exactly the PR 2 path: unlink the
    // smallest-key slot and fire it in place.  When two consecutive
    // extractions carry the *same* deadline, the bucket holds an
    // equal-time run — a phase start waking every flow at once — and the
    // drain switches to batch mode: unlink every remaining entry with
    // that deadline in one pass and fire them in seq order (ids are
    // monotone in seq, so sorting ids sorts seqs).  A k-event burst thus
    // costs two scans plus an O(k log k) sort instead of the k
    // min-extraction scans (O(k^2)) the per-event path would pay, while
    // distinct-deadline traffic keeps the per-event path's exact cost.
    // Callbacks may append to this same bucket (they cannot make anything
    // earlier pending) with strictly larger seqs, so firing an extracted
    // run to completion before re-scanning preserves the exact global
    // (time, seq) order.
    const std::uint64_t b = cursor_ & kWheelMask;
    bool reached_end = false;
    std::uint64_t last_fired_time = 0;
    bool have_fired = false;
    while (!stopped_) {
      const std::uint32_t head = bucket_head_[b];
      if (head == kNoSlot) break;
      // Smallest (time, seq) key in the bucket, as a single 128-bit scan
      // over the slots themselves.  Every linked slot is a live pending
      // event, so its pending_id is the entry's id.
      std::uint32_t best = head;
      Slot* best_slot = &slot_ref(head);
      unsigned __int128 best_key = slot_key(*best_slot);
      for (std::uint32_t cur = best_slot->wnext; cur != kNoSlot;) {
        Slot& c = slot_ref(cur);
        const unsigned __int128 k = slot_key(c);
        if (k < best_key) {
          best_key = k;
          best = cur;
          best_slot = &c;
        }
        cur = c.wnext;
      }
      const std::uint64_t t_min = best_slot->time;
      if (static_cast<TimeNs>(t_min) > t_end) {
        reached_end = true;
        break;
      }

      if (!have_fired || t_min != last_fired_time) {
        // Distinct-deadline fast path (the PR 2 per-event drain).
        wheel_unlink(best, *best_slot, b);
        have_fired = true;
        last_fired_time = t_min;
        fire_slot(best, static_cast<TimeNs>(t_min));
        if (processed_ >= budget_check_next_) check_budget();
        continue;
      }

      // Same deadline twice in a row: equal-time run detected (its first
      // event just fired through the fast path above).  Extract the rest.
      batch_.clear();
      {
        // Pass 2: unlink the whole run, marking each slot kInBatch so
        // cancel/reschedule from inside a batch callback know the wheel
        // no longer holds it.
        std::uint32_t cur = bucket_head_[b];
        while (cur != kNoSlot) {
          Slot& c = slot_ref(cur);
          const std::uint32_t next = c.wnext;
          if (c.time == t_min) {
            wheel_unlink(cur, c, b);
            c.wprev = kInBatch;
            // detlint:allow(R5): batch_ is reused; no alloc past high-water
            batch_.push_back(c.pending_id);
          }
          cur = next;
        }
        std::sort(batch_.begin(), batch_.end());
        // +1: the run's first event fired through the fast path above.
        obs_batch_size_.observe(batch_.size() + 1);
      }

      for (std::size_t i = 0; i < batch_.size(); ++i) {
        const std::uint64_t id = batch_[i];
        const auto s = static_cast<std::uint32_t>(id & kSlotMask);
        if (slot_ref(s).pending_id != id) continue;  // cancelled mid-batch
        fire_slot(s, static_cast<TimeNs>(t_min));
        if (processed_ >= budget_check_next_) check_budget();
        if (stopped_) {
          // stop() mid-run: re-link the unfired remainder so it is still
          // pending for the next run_until call.
          for (std::size_t j = i + 1; j < batch_.size(); ++j) {
            const std::uint64_t rid = batch_[j];
            const auto rs = static_cast<std::uint32_t>(rid & kSlotMask);
            Slot& rslot = slot_ref(rs);
            if (rslot.pending_id != rid) continue;
            wheel_insert(rs, rslot, cursor_);
          }
          break;
        }
      }
    }
    if (reached_end) break;
  }
  if (!stopped_ && now_ < t_end) now_ = t_end;
}
// NIMBUS_HOT_PATH end

void EventLoop::run() { run_until(std::numeric_limits<TimeNs>::max()); }

void EventLoop::attach_metrics(obs::MetricsRegistry* m) {
  if (m == nullptr) {
    obs_fired_ = {};
    obs_wheel_inserts_ = {};
    obs_heap_inserts_ = {};
    obs_batch_size_ = {};
    return;
  }
  obs_fired_ = m->counter("loop.events_fired");
  obs_wheel_inserts_ = m->counter("loop.wheel_inserts");
  obs_heap_inserts_ = m->counter("loop.far_heap_inserts");
  obs_batch_size_ = m->histogram("loop.batch_size");
}

void Timer::cancel() {
  if (armed_) {
    loop_->cancel(pending_);
    armed_ = false;
  }
}

void Timer::fire() {
  armed_ = false;
  action_();  // in place: arming touches only the deadline and the slot
}

}  // namespace nimbus::sim
