// Discrete-event loop: integer-nanosecond timestamps, deterministic
// tie-breaking by scheduling order.
//
// Performance design (see README "Performance"):
//  * Callbacks are stored in EventCallback, a move-only type-erased callable
//    with a 56-byte inline buffer.  The common captures ([this],
//    [this, Ack], an in-flight Packet) are trivially copyable and live
//    inline with direct function-pointer dispatch and no destructor work,
//    so steady-state scheduling performs no heap allocation; anything
//    larger or non-trivially-copyable falls back to a heap cell.
//  * Pending events live in slots allocated in fixed 512-entry chunks
//    (stable addresses, recycled through an intrusive free list), so the
//    loop can invoke a callback in place — no per-event move of the
//    callable.  Each slot remembers the id of the event it currently
//    holds; a stale id simply fails that comparison, which makes cancel()
//    an O(1) store (the queue entry is left behind as a tombstone and
//    dropped lazily when reached — the cost profile of the seed's
//    hash-map erase, without the hash map).
//  * The ready queue is a timing wheel (16384 buckets of 8.2 us; ~134 ms
//    horizon) backed by an implicit 4-ary min-heap for events beyond the
//    horizon.  Wheel insertion is O(1) radix bucketing with no
//    comparisons — the cost that dominates a comparison heap on random
//    deadlines is branch misprediction, which the wheel sidesteps
//    entirely.  Far events migrate into the wheel as the window slides.
//  * Every entry carries one 128-bit key packing (time, seq, slot); seq is
//    a global monotone counter assigned per schedule call, so events fire
//    in exactly the seed implementation's (time, id) order — same-time
//    events in FIFO scheduling order, keeping simulation output
//    bit-identical.  A bucket is drained by unlinking its entire
//    earliest-time run in one pass and firing it in seq order (one scan +
//    sort per run, not one scan per event), so a k-event same-time burst —
//    a phase start waking every flow at once — costs O(k log k) instead of
//    the O(k^2) repeated min-extraction.
//  * Timer has a rearm fast path: while armed, re-arming keeps the slot
//    and the trampoline callback and only re-enqueues the 16-byte entry
//    (reschedule()), so per-ACK RTO rearming touches no callback storage.
//  * Re-arming a far event to a deadline no earlier than its current one
//    is O(1): the slot's existing far-heap entry stays put as its
//    *anchor* and reschedule() only updates the slot's pending id and
//    deadline.  When the window slide pulls the anchor, the slot's real
//    (deadline, seq) key is enqueued in its place.  The anchor's time
//    never exceeds the real deadline, so the real key reaches the wheel
//    before its bucket drains, and it is exactly the key an eager
//    re-push would have carried: firing order is unchanged.  A per-ACK
//    RTO (min_rto 200 ms, past the horizon) thus costs one heap entry
//    per window slide instead of a heap push and a tombstone per ACK.
//    Near or earlier deadlines, drain-batch events and cancel() keep the
//    eager path.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/time.h"

namespace nimbus::sim {

using EventId = std::uint64_t;

/// Move-only type-erased `void()` callable.  Trivially copyable callables
/// up to kInlineBytes live in the inline buffer (dispatch is one indirect
/// call; destruction is free); other callables go to a heap cell.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  EventCallback() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace<F>(std::forward<F>(f));
  }

  EventCallback(EventCallback&& other) noexcept { take(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  /// Constructs a callable in place (callers must reset() first if
  /// engaged; EventLoop's slots are always empty at this point).
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](unsigned char* p) {
        (*std::launder(reinterpret_cast<D*>(p)))();
      };
      destroy_ = nullptr;  // trivially destructible by construction
    } else {
      *reinterpret_cast<D**>(static_cast<void*>(storage_)) =
          new D(std::forward<F>(f));
      invoke_ = [](unsigned char* p) { (**heap_cell<D>(p))(); };
      destroy_ = [](unsigned char* p) { delete *heap_cell<D>(p); };
    }
  }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

  /// True if the stored callable lives in the inline buffer (test hook for
  /// the zero-allocation guarantee).
  bool is_inline() const noexcept {
    return invoke_ != nullptr && destroy_ == nullptr;
  }

 private:
  // Inline storage requires trivial copyability: moves are then a plain
  // byte copy and destruction is a no-op — the properties the in-place
  // invocation and zero-cost slot release rely on.  All simulator hot-path
  // captures (POD structs, [this]-style lambdas) qualify.
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_trivially_copyable_v<D> &&
           std::is_trivially_destructible_v<D>;
  }

  template <typename D>
  static D** heap_cell(unsigned char* p) {
    return reinterpret_cast<D**>(static_cast<void*>(p));
  }

  void take(EventCallback& other) noexcept {
    // Inline callables are trivially copyable and heap cells are plain
    // pointers, so relocation is a raw byte copy in both cases.
    std::memcpy(storage_, other.storage_, kInlineBytes);
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(unsigned char*) = nullptr;
  void (*destroy_)(unsigned char*) = nullptr;
};

class EventLoop {
 public:
  using Callback = EventCallback;

  EventLoop();

  /// Schedules `cb` at absolute time `t` (must be >= now()).  Accepts any
  /// callable; it is constructed directly into a pooled slot.
  template <typename F>
  EventId schedule(TimeNs t, F&& cb) {
    const std::uint32_t s = acquire_slot(t);
    Slot& slot = slot_ref(s);
    slot.cb.emplace<F>(std::forward<F>(cb));
    const EventId id = make_event_id(s);
    slot.pending_id = id;
    slot.time = static_cast<std::uint64_t>(t);
    enqueue_entry(t, id);
    ++live_;
    return id;
  }

  /// Schedules `cb` after a relative delay.
  template <typename F>
  EventId schedule_in(TimeNs delay, F&& cb) {
    return schedule(now_ + delay, std::forward<F>(cb));
  }

  /// Cancels a pending event; no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Moves a *pending* event to a new time, keeping its slot and callback.
  /// Returns the replacement id (the old id becomes invalid).  The event
  /// takes a fresh FIFO position, exactly as cancel() + schedule() would.
  /// A far event moved no earlier is re-armed in O(1) through its anchor.
  EventId reschedule(EventId id, TimeNs t);

  /// Runs events until the queue empties or the next event is past `t_end`;
  /// now() is t_end afterwards (unless stop() was called earlier).
  void run_until(TimeNs t_end);

  /// Runs until the queue is empty.
  void run();

  /// Stops the loop after the current callback returns.
  void stop() { stopped_ = true; }

  /// Why the last run stopped early, if a run budget tripped.
  enum class BudgetStop : std::uint8_t { kNone, kEvents, kWall };

  /// Arms a watchdog for subsequent run_until calls: the loop stops (as if
  /// stop() were called; unfired events stay pending) after processing
  /// `max_events` further events, or once `max_wall_seconds` of real time
  /// elapse from this call.  Either limit can be 0 = unlimited.  The event
  /// budget is exact and deterministic; the wall clock is polled every few
  /// thousand events, so it is a hang guard, not a precise timer.  With
  /// both limits 0 the drain path stays a single always-false compare per
  /// event.  Re-arming resets budget_stop().
  void set_run_budget(std::uint64_t max_events, double max_wall_seconds);
  BudgetStop budget_stop() const { return budget_stop_; }

  /// Registers the loop's instruments in `m` (NIMBUS_OBS counters layer):
  /// loop.events_fired, loop.wheel_inserts, loop.far_heap_inserts, and the
  /// loop.batch_size histogram of equal-time drain-batch sizes.  Call at
  /// setup time; pass nullptr to detach (handles become no-ops again).
  void attach_metrics(obs::MetricsRegistry* m);

  TimeNs now() const { return now_; }
  std::size_t pending_events() const { return live_; }
  std::uint64_t processed_events() const { return processed_; }
  /// High-water mark of the slot pool — the largest number of events that
  /// were ever pending at once (introspection / tests).
  std::size_t allocated_slots() const { return total_slots_; }

 private:
  // EventId layout: [seq : 44][slot : 20].  seq is a global monotone
  // counter starting at 1, so ids are unique and nonzero; ~17e12 events
  // and ~1e6 concurrent events per loop, both far beyond any scenario.
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  // Timing-wheel geometry: 2^14 buckets of 2^13 ns (~8.2 us) give a
  // ~134 ms horizon — wide enough for every per-packet event, ACK delivery
  // and report/pacing timer at paper-scale RTTs; RTOs and flow starts
  // overflow to the far heap and migrate in as the window slides.
  static constexpr std::uint64_t kBucketShift = 13;
  static constexpr std::uint64_t kWheelBits = 14;
  static constexpr std::uint64_t kWheelSize = std::uint64_t{1} << kWheelBits;
  static constexpr std::uint64_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kOccWords = kWheelSize / 64;

  // One 128-bit key = [time : 64][seq : 44][slot : 20]: a single unsigned
  // compare orders by (time, seq) — a strict total order (seq is unique),
  // so extraction follows exactly the seed implementation's (time, id)
  // order; the slot rides along for free.
  struct Entry {
    unsigned __int128 key;
  };
  static unsigned __int128 pack_key(TimeNs t, std::uint64_t id) {
    return static_cast<unsigned __int128>(static_cast<std::uint64_t>(t))
               << 64 |
           id;
  }
  static TimeNs time_of(unsigned __int128 key) {
    return static_cast<TimeNs>(static_cast<std::uint64_t>(key >> 64));
  }

  struct Slot {
    Callback cb;
    std::uint64_t pending_id = 0;    // 0 = empty/free
    std::uint64_t time = 0;          // deadline of the pending event
    // Id of the far-heap entry standing in for the pending event, or 0.
    // Nonzero only while the pending (time, id) key itself is in neither
    // the wheel nor the heap; the anchor's time is <= `time`.
    std::uint64_t anchor_id = 0;
    std::uint32_t next_free = kNoSlot;
    // True while the event sits in the drain batch (unlinked from its
    // bucket but not yet fired): cancel/reschedule must not try to unlink
    // it from the wheel again.
    bool extracted = false;
  };

  Slot& slot_ref(std::uint32_t s) {
    return chunks_[s >> kChunkShift][s & (kChunkSize - 1)];
  }

  EventId make_event_id(std::uint32_t s) {
    NIMBUS_CHECK_MSG(next_seq_ < std::uint64_t{1} << (64 - kSlotBits),
                     "event sequence space exhausted");
    return next_seq_++ << kSlotBits | s;
  }

  // Wall-clock poll cadence for the run budget: cheap enough to be
  // invisible (one steady_clock read per ~4k events), fine-grained enough
  // that a runaway cell overshoots its wall limit by milliseconds.
  static constexpr std::uint64_t kBudgetCheckInterval = 4096;

  std::uint32_t acquire_slot(TimeNs t);
  void release_slot(std::uint32_t s);
  // Slow path of the per-event budget compare: trips the event/wall limit
  // (setting stopped_ + budget_stop_) or re-arms budget_check_next_.
  void check_budget();
  // Fires a due event in place: advances now_ to `t`, retires the id, and
  // invokes the callback in its slot (shared by the drain's
  // distinct-deadline fast path and the equal-time batch loop).
  void fire_slot(Slot& slot, std::uint64_t id, TimeNs t);

  // Wheel entries are 24-byte nodes in a pooled arena, linked into their
  // bucket.  The pool's high-water mark tracks the maximum number of
  // concurrently pending near events — not which buckets simulated time
  // happens to visit — so steady-state insertion allocates nothing no
  // matter how far the clock advances.
  struct Node {
    std::uint64_t time;
    std::uint64_t id;
    std::uint32_t next;
  };
  static unsigned __int128 node_key(const Node& n) {
    return static_cast<unsigned __int128>(n.time) << 64 | n.id;
  }
  static constexpr std::uint32_t kNilNode = 0xffffffffu;

  // --- ready queue (wheel + far heap) ---
  void enqueue_entry(TimeNs t, std::uint64_t id);
  // True if a pending event due at `t` lives in the far heap (directly or
  // through its slot's anchor) rather than in the wheel.
  bool in_far_heap(std::uint64_t t) const {
    return (t >> kBucketShift) >= cursor_ + kWheelSize;
  }
  void wheel_insert(TimeNs t, std::uint64_t id, std::uint64_t abs_bucket);
  void wheel_unlink_if_near(const Slot& slot, std::uint64_t id);
  std::uint64_t next_nonempty_bucket() const;  // needs wheel_count_ > 0
  void pull_far_into_window();
  void heap_push(Entry e);
  void heap_pop_min();

  std::vector<Node> pool_;            // wheel-node arena (index-linked)
  std::vector<std::uint64_t> batch_;  // equal-time drain batch (reused)
  std::uint32_t node_free_ = kNilNode;
  std::array<std::uint32_t, kWheelSize> bucket_head_;  // kNilNode = empty
  std::array<std::uint64_t, kOccWords> occ_{};  // non-empty-bucket bitmap
  std::uint64_t cursor_ = 0;     // absolute index of the window's first bucket
  std::size_t wheel_count_ = 0;  // entries currently in the wheel
  std::vector<Entry> heap_;      // implicit 4-ary min-heap of far events

  // Fixed-size chunks give slots stable addresses, so callbacks are
  // invoked in place even if the pool grows mid-callback.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t total_slots_ = 0;
  std::size_t live_ = 0;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;

  // Run budget (set_run_budget).  budget_check_next_ is the processed_
  // count at which the drain takes the check_budget slow path; all-ones
  // when no budget is armed, so the steady-state cost is one compare.
  std::uint64_t budget_check_next_ = ~std::uint64_t{0};
  std::uint64_t budget_events_end_ = 0;  // absolute processed_ limit; 0 = off
  bool budget_wall_armed_ = false;
  std::chrono::steady_clock::time_point budget_wall_deadline_{};
  BudgetStop budget_stop_ = BudgetStop::kNone;

  // Telemetry handles (null when NIMBUS_OBS is off: each update is then a
  // single predictable branch — the cost the bench_micro obs pair gates).
  obs::Counter obs_fired_;
  obs::Counter obs_wheel_inserts_;
  obs::Counter obs_heap_inserts_;
  obs::Histogram obs_batch_size_;
};

/// A single rearmable timer (e.g. an RTO).  Re-arming cancels the previous
/// schedule; fire() is invoked at most once per arm.  The user callback is
/// stored in the timer itself and the loop only holds an 8-byte trampoline,
/// so arming never allocates; re-arming while armed reuses the pending
/// slot via EventLoop::reschedule.
class Timer {
 public:
  explicit Timer(EventLoop* loop) : loop_(loop) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void arm(TimeNs at, EventLoop::Callback cb);
  void arm_in(TimeNs delay, EventLoop::Callback cb) {
    arm(loop_->now() + delay, std::move(cb));
  }
  void cancel();
  bool armed() const { return armed_; }
  TimeNs deadline() const { return deadline_; }

 private:
  struct Fire {
    Timer* timer;
    void operator()() const { timer->fire(); }
  };
  void fire();

  EventLoop* loop_;
  EventLoop::Callback cb_;
  EventId pending_ = 0;
  bool armed_ = false;
  TimeNs deadline_ = 0;
};

}  // namespace nimbus::sim
