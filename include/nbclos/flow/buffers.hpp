/// \file buffers.hpp
/// \brief Flit storage for the flow-control engine: a lazily-allocated
///        slab of per-(channel, VC) FIFO slots plus the slab of live
///        packets the flits point into.
///
/// PR 2's queue-pool idiom preallocated one ring slice per buffer for
/// *all* buffers, which is exactly what cannot exist at 10^6 terminals:
/// a 10-ary 6-tree has ~1.1e7 switch FIFOs of which only the live flit
/// front ever holds data.  The pool is therefore slot-sparse: a buffer
/// owns no storage until its first flit (or credit/claim/stop-bit
/// event) arrives, at which point it is bound to a `BufferSlot` from a
/// recycling slab.  The slot carries the ring cursor *and* every
/// per-buffer side field the engines used to keep in dense arrays
/// (out-allocation, VC claim, blocked-since, credit counters, on/off
/// bits), so the only dense residue is the 4-byte id→slot map.  A slot
/// whose fields are all back at their defaults is recycled by
/// `maybe_release`, so steady-state residency tracks the live flit
/// front, not the fabric size.
///
/// Ring layout per slot follows the old scheme (slice = capacity
/// rounded up to a power of two, wrap-around is a mask).  Unbounded
/// terminal NIC buffers keep growable power-of-two rings on the side,
/// lazily allocated the same way.
#pragma once

#include <cstdint>
#include <vector>

#include "nbclos/sim/packet.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos::flow {

/// One flit in a buffer or on a wire: the packet it belongs to (a slot
/// in the PacketPool) and its position within that packet.  Index 0 is
/// the head flit (carries the route), size_flits - 1 the tail (releases
/// the downstream VC claim).
struct FlitRef {
  std::uint32_t packet_slot = 0;
  std::uint32_t flit_index = 0;
};

/// Sentinel buffer id: "no buffer" (matches the engines' kNone).  The
/// sharded engine additionally stores its kClaimPending placeholder
/// (kNoBuffer - 1) in the claim field; the pool only cares that both
/// differ from kNoBuffer, the releasable default.
inline constexpr std::uint32_t kNoBuffer = 0xFFFFFFFFu;

/// Sentinel for "buffer has never blocked" in blocked-since queries.
inline constexpr std::uint64_t kNeverBlocked = 0xFFFFFFFFFFFFFFFFull;

/// Arena accounting the engines surface to benches and the CLI manifest
/// (summed over shards for ShardedFlowSim).
struct ArenaStats {
  std::size_t flit_arena_bytes = 0;    ///< FlitBufferPool::bytes()
  std::size_t packet_arena_bytes = 0;  ///< PacketPool::bytes()
  std::uint64_t resident_slots = 0;    ///< buffers currently bound to a slot
  std::uint64_t peak_slots = 0;        ///< high-water resident slots
};

/// Slab of live packets, indexed by slot.  Flits reference their packet
/// through a slot id instead of carrying 40-byte descriptors, and a slot
/// is recycled the cycle its tail flit is ejected.
class PacketPool {
 public:
  [[nodiscard]] std::uint32_t acquire(const sim::Packet& packet) {
    if (free_.empty()) {
      packets_.push_back(packet);
      if constexpr (kDebugChecksEnabled) {
        freed_.push_back(0);
      }
      return static_cast<std::uint32_t>(packets_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    NBCLOS_DEBUG_CHECK(slot < packets_.size(), "packet slot out of range");
    packets_[slot] = packet;
    if constexpr (kDebugChecksEnabled) {
      freed_[slot] = 0;
    }
    return slot;
  }

  void release(std::uint32_t slot) {
    NBCLOS_DEBUG_CHECK(slot < packets_.size(), "packet slot out of range");
    if constexpr (kDebugChecksEnabled) {
      NBCLOS_DEBUG_CHECK(freed_[slot] == 0, "packet slot double-released");
      freed_[slot] = 1;
      // Poison the stale descriptor so a use-after-release reads an
      // obviously-wrong packet instead of yesterday's.
      sim::Packet poison;
      poison.id = 0xDEADDEADDEADDEADull;
      poison.src_terminal = kNoBuffer;
      poison.dst_terminal = kNoBuffer;
      poison.size_flits = 0;
      poison.injected_cycle = 0xDEADDEADDEADDEADull;
      poison.flow_sequence = 0xDEADDEADDEADDEADull;
      packets_[slot] = poison;
    }
    free_.push_back(slot);
  }

  [[nodiscard]] const sim::Packet& at(std::uint32_t slot) const {
    NBCLOS_DEBUG_CHECK(slot < packets_.size(), "packet slot out of range");
    if constexpr (kDebugChecksEnabled) {
      NBCLOS_DEBUG_CHECK(freed_[slot] == 0, "packet slot used after release");
    }
    return packets_[slot];
  }

  [[nodiscard]] std::size_t live() const noexcept {
    return packets_.size() - free_.size();
  }
  /// High-water slot count — how many packets were ever simultaneously
  /// live (the slab never shrinks).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return packets_.size();
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return packets_.capacity() * sizeof(sim::Packet) +
           free_.capacity() * sizeof(std::uint32_t) + freed_.capacity();
  }

 private:
  std::vector<sim::Packet> packets_;
  std::vector<std::uint32_t> free_;
  /// Double-release detector; only maintained when debug checks compile.
  std::vector<std::uint8_t> freed_;
};

/// All flit FIFOs of one FlowSim, addressed by dense buffer id: ids
/// [0, switch_buffers) are finite switch FIFOs (capacity_flits each),
/// ids [switch_buffers, switch_buffers + nic_buffers) are unbounded
/// terminal NIC send queues.  The flow-control protocol — not this
/// container — keeps switch occupancy within capacity; push asserts it.
///
/// Storage is slot-sparse (see the file comment).  Engines touch state
/// through accessors keyed by buffer id; any write of a non-default
/// value lazily binds the buffer to a slot, and engines call
/// `maybe_release` at transaction boundaries to recycle drained slots.
class FlitBufferPool {
 public:
  /// Per-live-buffer record.  All defaults together mean "releasable":
  /// empty, unallocated, unclaimed, never/no-longer blocked, full
  /// credits, nothing pending, stop bit clear, not queued dirty.
  struct BufferSlot {
    std::uint32_t buffer = 0;  ///< owning buffer id (back-pointer)
    std::uint32_t head = 0;
    std::uint32_t size = 0;
    std::uint32_t out_alloc = kNoBuffer;
    std::uint32_t claim = kNoBuffer;
    std::uint32_t credits_used = 0;
    std::uint32_t pending_returns = 0;
    /// Cycle the buffer became blocked, plus one; 0 = not blocked.
    std::uint64_t blocked_since_plus1 = 0;
    std::uint8_t off = 0;
    std::uint8_t in_dirty = 0;
  };

  FlitBufferPool(std::uint32_t switch_buffers, std::uint32_t nic_buffers,
                 std::uint32_t capacity_flits);

  // --- FIFO operations -------------------------------------------------

  void push(std::uint32_t b, FlitRef flit) {
    const std::uint32_t s = ensure_slot(b);
    BufferSlot& sl = slot(s);
    if (b < switch_count_) {
      NBCLOS_ASSERT(sl.size < capacity_);  // flow-control protocol bound
      ring_slab_[ring_index(s, (sl.head + sl.size) & slice_mask_)] = flit;
      ++switch_flits_total_;
      if (++sl.size > peak_switch_flits_) peak_switch_flits_ = sl.size;
      return;
    }
    auto& ring = nic_rings_[b - switch_count_];
    if (sl.size == ring.size()) {
      // Full (or first use): double and relinearize so head lands at 0.
      std::vector<FlitRef> bigger(ring.empty() ? kNicRingInitialCapacity
                                               : ring.size() * 2);
      for (std::uint32_t i = 0; i < sl.size; ++i) {
        bigger[i] = ring[(sl.head + i) & (ring.size() - 1)];
      }
      ring = std::move(bigger);
      sl.head = 0;
    }
    ring[(sl.head + sl.size) & (ring.size() - 1)] = flit;
    ++sl.size;
  }

  FlitRef pop(std::uint32_t b) {
    const std::uint32_t s = slot_id(b);
    NBCLOS_ASSERT(s != kNoSlot);
    BufferSlot& sl = slot(s);
    NBCLOS_ASSERT(sl.size > 0);
    FlitRef flit;
    if (b < switch_count_) {
      flit = ring_slab_[ring_index(s, sl.head)];
      sl.head = (sl.head + 1) & slice_mask_;
      --switch_flits_total_;
    } else {
      const auto& ring = nic_rings_[b - switch_count_];
      flit = ring[sl.head];
      sl.head = (sl.head + 1) & (static_cast<std::uint32_t>(ring.size()) - 1);
    }
    --sl.size;
    return flit;
  }

  [[nodiscard]] FlitRef front(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    NBCLOS_ASSERT(s != kNoSlot);
    const BufferSlot& sl = slot(s);
    NBCLOS_ASSERT(sl.size > 0);
    if (b < switch_count_) return ring_slab_[ring_index(s, sl.head)];
    return nic_rings_[b - switch_count_][sl.head];
  }

  [[nodiscard]] std::uint32_t size(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    return s == kNoSlot ? 0 : slot(s).size;
  }

  // --- per-buffer side state (engine-owned semantics) ------------------

  [[nodiscard]] std::uint32_t out_alloc(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    return s == kNoSlot ? kNoBuffer : slot(s).out_alloc;
  }
  void set_out_alloc(std::uint32_t b, std::uint32_t value) {
    if (value == kNoBuffer && slot_id(b) == kNoSlot) return;
    slot(ensure_slot(b)).out_alloc = value;
  }

  [[nodiscard]] std::uint32_t claim(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    return s == kNoSlot ? kNoBuffer : slot(s).claim;
  }
  void set_claim(std::uint32_t b, std::uint32_t value) {
    if (value == kNoBuffer && slot_id(b) == kNoSlot) return;
    slot(ensure_slot(b)).claim = value;
  }

  [[nodiscard]] std::uint64_t blocked_since(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    if (s == kNoSlot || slot(s).blocked_since_plus1 == 0) {
      return kNeverBlocked;
    }
    return slot(s).blocked_since_plus1 - 1;
  }
  void set_blocked_since(std::uint32_t b, std::uint64_t cycle) {
    slot(ensure_slot(b)).blocked_since_plus1 = cycle + 1;
  }
  void clear_blocked_since(std::uint32_t b) {
    const std::uint32_t s = slot_id(b);
    if (s != kNoSlot) slot(s).blocked_since_plus1 = 0;
  }

  // --- credit counters (driven by CreditLedger) ------------------------

  [[nodiscard]] std::uint32_t credits(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    return capacity_ - (s == kNoSlot ? 0 : slot(s).credits_used);
  }
  void consume_credit(std::uint32_t b) {
    BufferSlot& sl = slot(ensure_slot(b));
    NBCLOS_ASSERT(sl.credits_used < capacity_);
    ++sl.credits_used;
  }
  void note_pending_return(std::uint32_t b) {
    ++slot(ensure_slot(b)).pending_returns;
  }
  void apply_credit_return(std::uint32_t b) {
    const std::uint32_t s = slot_id(b);
    NBCLOS_ASSERT(s != kNoSlot);  // pending_returns pins the slot
    BufferSlot& sl = slot(s);
    NBCLOS_ASSERT(sl.credits_used > 0);
    NBCLOS_ASSERT(sl.pending_returns > 0);
    --sl.credits_used;
    --sl.pending_returns;
    maybe_release(b);
  }
  [[nodiscard]] std::uint64_t pending_returns(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    return s == kNoSlot ? 0 : slot(s).pending_returns;
  }

  // --- on/off stop bits (driven by OnOffSignal) ------------------------

  [[nodiscard]] bool off_bit(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    return s != kNoSlot && slot(s).off != 0;
  }
  /// Returns true when the buffer was not already queued dirty.
  [[nodiscard]] bool test_and_set_dirty(std::uint32_t b) {
    BufferSlot& sl = slot(ensure_slot(b));
    if (sl.in_dirty != 0) return false;
    sl.in_dirty = 1;
    return true;
  }
  /// Latch the stop bit from current occupancy, clear the dirty flag,
  /// and recycle the slot if that left it fully default.
  void latch_off_bit(std::uint32_t b, std::uint32_t threshold) {
    const std::uint32_t s = slot_id(b);
    NBCLOS_ASSERT(s != kNoSlot);  // in_dirty pins the slot
    BufferSlot& sl = slot(s);
    sl.off = sl.size >= threshold ? 1 : 0;
    sl.in_dirty = 0;
    maybe_release(b);
  }

  // --- slot lifecycle --------------------------------------------------

  /// Recycle `b`'s slot if every field is back at its default.  Safe to
  /// call on buffers without a slot.  Engines call this at transaction
  /// boundaries (after a pop completes its credit/claim bookkeeping);
  /// a missed call costs memory, never correctness.
  void maybe_release(std::uint32_t b) {
    const std::uint32_t s = slot_id(b);
    if (s == kNoSlot) return;
    const BufferSlot& sl = slot(s);
    if (sl.size != 0 || sl.out_alloc != kNoBuffer || sl.claim != kNoBuffer ||
        sl.credits_used != 0 || sl.pending_returns != 0 ||
        sl.blocked_since_plus1 != 0 || sl.off != 0 || sl.in_dirty != 0) {
      return;
    }
    slot_of_[b] = kNoSlot;
    free_slots_.push_back(s);
    --resident_slots_;
  }

  [[nodiscard]] bool has_slot(std::uint32_t b) const {
    return slot_id(b) != kNoSlot;
  }

  /// Visit every live buffer as fn(buffer_id, slot_id, slot) — ascending
  /// slot id, i.e. allocation order, NOT buffer-id order; callers
  /// needing determinism must sort the ids they collect.  Cost is
  /// O(slots ever allocated), which tracks the high-water live set, not
  /// the fabric size.
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      const BufferSlot& sl = slot(s);
      if (slot_id(sl.buffer) == s) fn(sl.buffer, s, sl);
    }
  }

  /// Slot id bound to `b`, or kNoSlot.  Audit paths use this to index
  /// slot-sized scratch arrays.
  [[nodiscard]] std::uint32_t slot_id(std::uint32_t b) const {
    NBCLOS_DEBUG_CHECK(b < slot_of_.size(), "buffer id out of range");
    return slot_of_[b];
  }
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // --- capacities & stats ----------------------------------------------

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t switch_buffer_count() const noexcept {
    return switch_count_;
  }
  [[nodiscard]] std::uint32_t buffer_count() const noexcept {
    return static_cast<std::uint32_t>(slot_of_.size());
  }
  /// Flits currently held across all switch buffers (maintained
  /// incrementally — feeds the per-cycle queue-depth sample).
  [[nodiscard]] std::uint64_t switch_flits_total() const noexcept {
    return switch_flits_total_;
  }
  /// High-water occupancy of any single switch buffer over the run.
  [[nodiscard]] std::uint32_t peak_switch_flits() const noexcept {
    return peak_switch_flits_;
  }
  /// Buffers currently bound to a slot.
  [[nodiscard]] std::uint32_t resident_slots() const noexcept {
    return resident_slots_;
  }
  /// High-water resident slot count (== slots ever allocated, since the
  /// slab recycles before growing).
  [[nodiscard]] std::uint32_t peak_slots() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }
  /// Resident bytes of the arrays (reported as an obs gauge).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  static constexpr std::uint32_t kNicRingInitialCapacity = 16;

  [[nodiscard]] BufferSlot& slot(std::uint32_t s) {
    NBCLOS_DEBUG_CHECK(s < slots_.size(), "buffer slot out of range");
    return slots_[s];
  }
  [[nodiscard]] const BufferSlot& slot(std::uint32_t s) const {
    NBCLOS_DEBUG_CHECK(s < slots_.size(), "buffer slot out of range");
    return slots_[s];
  }

  /// ring_slab_ index of entry `pos` in switch slot `s`'s ring slice.
  [[nodiscard]] std::size_t ring_index(std::uint32_t s,
                                       std::uint32_t pos) const {
    const std::size_t i = std::size_t{s} * slice_ + pos;
    NBCLOS_DEBUG_CHECK(i < ring_slab_.size(), "ring slab index out of range");
    return i;
  }

  /// Slot bound to `b`, binding a recycled or fresh one on first touch.
  std::uint32_t ensure_slot(std::uint32_t b) {
    std::uint32_t s = slot_id(b);
    if (s != kNoSlot) return s;
    if (!free_slots_.empty()) {
      s = free_slots_.back();
      free_slots_.pop_back();
      slot(s) = BufferSlot{};
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(BufferSlot{});
      ring_slab_.resize(slots_.size() * slice_);
    }
    slot(s).buffer = b;
    slot_of_[b] = s;
    ++resident_slots_;
    return s;
  }

  std::uint32_t switch_count_ = 0;
  std::uint32_t capacity_ = 0;
  std::uint32_t slice_ = 0;       ///< bit_ceil(capacity)
  std::uint32_t slice_mask_ = 0;  ///< slice - 1
  std::uint32_t resident_slots_ = 0;
  /// Dense id→slot map — the only O(buffer_count) array left.
  std::vector<std::uint32_t> slot_of_;
  std::vector<BufferSlot> slots_;
  /// Ring storage, slice_ entries per slot (switch slots use theirs;
  /// NIC slots leave them idle and use nic_rings_).
  std::vector<FlitRef> ring_slab_;
  std::vector<std::uint32_t> free_slots_;
  /// Growable per-NIC rings, lazily sized on first push and retained
  /// across slot recycling.
  std::vector<std::vector<FlitRef>> nic_rings_;
  std::uint64_t switch_flits_total_ = 0;
  std::uint32_t peak_switch_flits_ = 0;
};

}  // namespace nbclos::flow
