/// \file credits.hpp
/// \brief Backpressure signaling state: per-buffer credit counters with
///        delayed returns, and the on/off stop-bit alternative.
///
/// Credit mode is conservative by construction: a credit is consumed the
/// cycle a flit starts toward a buffer and returned `delay` cycles after
/// a flit leaves it, so
///
///   credits(b) + occupancy(b) + flits_in_flight_to(b)
///              + pending_returns(b) == capacity
///
/// holds at every cycle boundary (the conservation invariant the flow
/// tests audit) and occupancy can never exceed capacity for any delay.
///
/// On/off mode models a stop bit latched at the end of each cycle and
/// read by senders the next cycle (1-cycle signaling delay).  The stop
/// threshold leaves `head_reservation` slots of slack, which together
/// with the single-writer-per-buffer rule (VC claims) bounds occupancy
/// at capacity — see DESIGN.md "flow-control engine" for the overshoot
/// accounting.
///
/// Since the slot-sparse pool rewrite, both classes are protocol layers
/// over the FlitBufferPool they are constructed against: the per-buffer
/// counters/bits live in the pool's BufferSlot records (so idle buffers
/// cost nothing), while these classes keep only the temporal structure —
/// the credit delay line and the dirty list.  Buffer ids are
/// switch-buffer ids (< pool.switch_buffer_count()); NIC buffers are
/// unbounded and never tracked.
#pragma once

#include <cstdint>
#include <vector>

#include "nbclos/flow/buffers.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::flow {

/// Credit counters for every switch buffer, plus the delay line that
/// models the upstream credit wire.  The pool reference must outlive
/// the ledger.  Engines hand it the pool slots they already hold; the
/// id-keyed members resolve the slot per call.
class CreditLedger {
 public:
  /// \param delay cycles between a downstream pop and the credit being
  ///        visible upstream again; must be >= 1 (a same-cycle return
  ///        would make transmissions order-dependent within the phase).
  CreditLedger(FlitBufferPool& pool, std::uint32_t delay);

  /// Apply the credit returns due this cycle.  Call once at the start of
  /// every cycle, before transmissions read the counters.
  void advance(std::uint64_t now);

  /// A flit started toward the buffer bound to slot `s` this cycle.
  void consume_at(std::uint32_t s) {
    FlitBufferPool::BufferSlot& sl = pool_->slot(s);
    NBCLOS_ASSERT(sl.credits_used < pool_->capacity());
    ++sl.credits_used;
  }

  /// A flit left the buffer bound to slot `s` this cycle; its credit
  /// becomes visible at now + delay.  The pending return pins the slot
  /// until advance() applies it, so the delay line holds slot ids.
  void schedule_return_at(std::uint32_t s, std::uint64_t now) {
    ++pool_->slot(s).pending_returns;
    delay_line_[(now + delay_) & delay_mask_].push_back(s);
  }

  // --- by buffer id (one slot lookup per call) --------------------------

  [[nodiscard]] std::uint32_t credits(std::uint32_t b) const {
    const std::uint32_t s = pool_->slot_id(b);
    return pool_->capacity() -
           (s == FlitBufferPool::kNoSlot ? 0 : pool_->slot(s).credits_used);
  }
  void consume(std::uint32_t b) { consume_at(pool_->bind(b)); }
  void schedule_return(std::uint32_t b, std::uint64_t now) {
    schedule_return_at(pool_->bind(b), now);
  }
  /// Returns scheduled but not yet applied for `b`.
  [[nodiscard]] std::uint64_t pending_returns(std::uint32_t b) const {
    const std::uint32_t s = pool_->slot_id(b);
    return s == FlitBufferPool::kNoSlot ? 0 : pool_->slot(s).pending_returns;
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return pool_->capacity();
  }

 private:
  FlitBufferPool* pool_;
  std::uint32_t delay_ = 1;
  /// Buckets of slot ids indexed by cycle & delay_mask_: a power of two
  /// > delay, so a bucket is drained by advance() before the cycle that
  /// refills it.
  std::uint64_t delay_mask_ = 0;
  std::vector<std::vector<std::uint32_t>> delay_line_;
};

/// Whether the buffer bound to pool slot `s` admits `reservation` more
/// flits: that many free credits in credit mode, a clear stop bit in
/// on/off mode (whose threshold already encodes the reservation).
/// kNoSlot is an idle buffer — full credits, bit clear — which admits
/// every reservation FlowConfig::validate() allows.
[[nodiscard]] inline bool backpressure_admits(const FlitBufferPool& pool,
                                              std::uint32_t s,
                                              std::uint32_t reservation,
                                              bool credit_mode) {
  if (s == FlitBufferPool::kNoSlot) return true;
  const FlitBufferPool::BufferSlot& sl = pool.slot(s);
  if (credit_mode) return pool.capacity() - sl.credits_used >= reservation;
  return sl.off == 0;
}

/// On/off stop bits for every switch buffer.  Senders read the slot's
/// `off` bit during the cycle; occupancy changes mark buffers dirty, and
/// latch() recomputes the dirty bits at the end of the cycle — so a bit
/// read at cycle t always reflects occupancy at the end of cycle t-1.
class OnOffSignal {
 public:
  /// \param off_threshold occupancy at which the stop bit asserts
  ///        (FlowConfig::onoff_off_threshold()); must be >= 1 so an
  ///        empty buffer always reads "on".
  OnOffSignal(FlitBufferPool& pool, std::uint32_t off_threshold);

  [[nodiscard]] bool off(std::uint32_t b) const {
    const std::uint32_t s = pool_->slot_id(b);
    return s != FlitBufferPool::kNoSlot && pool_->slot(s).off != 0;
  }

  /// Occupancy of the buffer bound to slot `s` changed this cycle;
  /// recompute its bit at latch().  The dirty flag pins the slot until
  /// then, so the dirty list holds slot ids.
  void mark_dirty_at(std::uint32_t s) {
    FlitBufferPool::BufferSlot& sl = pool_->slot(s);
    if (sl.in_dirty != 0) return;
    sl.in_dirty = 1;
    dirty_.push_back(s);
  }

  /// mark_dirty_at by buffer id.
  void mark_dirty(std::uint32_t b) { mark_dirty_at(pool_->bind(b)); }

  /// End-of-cycle: latch the stop bits of dirty buffers from current
  /// occupancy, calling `changed(slot, bit)` for each bit that flips (a
  /// shard cut forwards it to the buffer's writer).  Cost is O(buffers
  /// touched this cycle), not O(all).
  template <class Changed>
  void latch(Changed&& changed) {
    for (const auto s : dirty_) {
      FlitBufferPool::BufferSlot& sl = pool_->slot(s);
      const std::uint8_t off = sl.size >= threshold_ ? 1 : 0;
      sl.in_dirty = 0;
      if (off != sl.off) {
        sl.off = off;
        changed(s, off);
      }
      pool_->maybe_release_at(s);
    }
    dirty_.clear();
  }
  void latch() {
    latch([](std::uint32_t, std::uint8_t) {});
  }

 private:
  FlitBufferPool* pool_;
  std::uint32_t threshold_ = 0;
  std::vector<std::uint32_t> dirty_;
};

}  // namespace nbclos::flow
