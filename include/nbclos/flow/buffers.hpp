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
/// Engines resolve a buffer's slot once per flit move and then read and
/// write the slot's fields directly; the id→slot map is consulted once
/// per buffer touched, not once per field.
///
/// Ring layout per slot follows the old scheme (slice = capacity
/// rounded up to a power of two, wrap-around is a mask).  Unbounded
/// terminal NIC buffers keep growable power-of-two rings on the side,
/// lazily allocated the same way, holding one 4-byte packet slot per
/// queued *packet*: the front flit is (front packet, `nic_sent`), and
/// only the pop that sends a packet's tail advances the ring.
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

/// Sentinel buffer id: "no buffer" (matches the engines' kNone); also
/// the releasable default of the out_alloc and claim fields.
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
/// Storage is slot-sparse (see the file comment).  Engines resolve a
/// buffer's slot once per transaction — `slot_id` to look, `bind` to
/// bind on first touch — and then work on the `BufferSlot` and the
/// slot-keyed FIFO operations (`front_at`, `pop_at`, `push_at`,
/// `maybe_release_at`).  A bind may grow the slab, so a `BufferSlot&`
/// taken before a bind must be fetched again after it; slot ids stay
/// valid.  The id-keyed accessors resolve the slot per call; the
/// engines do not use them.
class FlitBufferPool {
 public:
  /// Per-live-buffer record.  All defaults together mean "releasable":
  /// empty, unallocated, unclaimed, never/no-longer blocked, full
  /// credits, nothing pending, stop bit clear, not queued dirty, no
  /// partly sent NIC packet.
  struct BufferSlot {
    std::uint32_t buffer = 0;  ///< owning buffer id (back-pointer)
    std::uint32_t head = 0;    ///< ring index of the front entry
    std::uint32_t size = 0;    ///< flits queued (NIC buffers too)
    std::uint32_t out_alloc = kNoBuffer;
    std::uint32_t claim = kNoBuffer;
    std::uint32_t credits_used = 0;
    std::uint32_t pending_returns = 0;
    /// NIC buffers: flits of the front packet already sent.
    std::uint32_t nic_sent = 0;
    /// Cycle the buffer became blocked, plus one; 0 = not blocked.
    std::uint64_t blocked_since_plus1 = 0;
    std::uint8_t off = 0;
    std::uint8_t in_dirty = 0;
  };
  static_assert(sizeof(BufferSlot) == 48, "BufferSlot must stay 48 bytes");

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// \param packet_flits flits per packet; a NIC queue holds one entry
  ///        per packet and hands its flits out one pop at a time.
  FlitBufferPool(std::uint32_t switch_buffers, std::uint32_t nic_buffers,
                 std::uint32_t capacity_flits, std::uint32_t packet_flits = 1);

  // --- slot resolution -------------------------------------------------

  /// Slot bound to `b`, or kNoSlot.
  [[nodiscard]] std::uint32_t slot_id(std::uint32_t b) const {
    NBCLOS_DEBUG_CHECK(b < slot_of_.size(), "buffer id out of range");
    return slot_of_[b];
  }

  /// Slot bound to `b`, binding a recycled or fresh one on first touch.
  /// May grow the slab: re-fetch any BufferSlot reference afterwards.
  std::uint32_t bind(std::uint32_t b) {
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

  [[nodiscard]] BufferSlot& slot(std::uint32_t s) {
    NBCLOS_DEBUG_CHECK(s < slots_.size(), "buffer slot out of range");
    return slots_[s];
  }
  [[nodiscard]] const BufferSlot& slot(std::uint32_t s) const {
    NBCLOS_DEBUG_CHECK(s < slots_.size(), "buffer slot out of range");
    return slots_[s];
  }

  // --- FIFO operations on a bound slot ----------------------------------

  /// Append one flit to switch buffer slot `s`.
  void push_at(std::uint32_t s, FlitRef flit) {
    BufferSlot& sl = slot(s);
    NBCLOS_DEBUG_CHECK(sl.buffer < switch_count_, "flit push into a NIC queue");
    NBCLOS_ASSERT(sl.size < capacity_);  // flow-control protocol bound
    ring_slab_[ring_index(s, (sl.head + sl.size) & slice_mask_)] = flit;
    ++switch_flits_total_;
    if (++sl.size > peak_switch_flits_) peak_switch_flits_ = sl.size;
  }

  [[nodiscard]] FlitRef front_at(std::uint32_t s) const {
    const BufferSlot& sl = slot(s);
    NBCLOS_ASSERT(sl.size > 0);
    if (sl.buffer < switch_count_) return ring_slab_[ring_index(s, sl.head)];
    return FlitRef{nic_rings_[sl.buffer - switch_count_][sl.head],
                   sl.nic_sent};
  }

  /// Remove the front flit.  A NIC queue advances to its next packet
  /// only when the pop sends the front packet's tail.
  FlitRef pop_at(std::uint32_t s) {
    BufferSlot& sl = slot(s);
    NBCLOS_ASSERT(sl.size > 0);
    FlitRef flit;
    if (sl.buffer < switch_count_) {
      flit = ring_slab_[ring_index(s, sl.head)];
      sl.head = (sl.head + 1) & slice_mask_;
      --switch_flits_total_;
    } else {
      const auto& ring = nic_rings_[sl.buffer - switch_count_];
      flit = FlitRef{ring[sl.head], sl.nic_sent};
      if (++sl.nic_sent == packet_flits_) {
        sl.nic_sent = 0;
        sl.head =
            (sl.head + 1) & (static_cast<std::uint32_t>(ring.size()) - 1);
      }
    }
    --sl.size;
    return flit;
  }

  /// Queue one whole packet (packet_flits flits) on NIC buffer `b`.
  void push_packet(std::uint32_t b, std::uint32_t packet_slot);

  /// Recycle slot `s` if every field is back at its default.  Engines
  /// call this at transaction boundaries (after a pop completes its
  /// credit/claim bookkeeping); a missed call costs memory, never
  /// correctness.
  void maybe_release_at(std::uint32_t s) {
    const BufferSlot& sl = slot(s);
    if (sl.size != 0 || sl.out_alloc != kNoBuffer || sl.claim != kNoBuffer ||
        sl.credits_used != 0 || sl.pending_returns != 0 ||
        sl.nic_sent != 0 || sl.blocked_since_plus1 != 0 || sl.off != 0 ||
        sl.in_dirty != 0) {
      return;
    }
    slot_of_[sl.buffer] = kNoSlot;
    free_slots_.push_back(s);
    --resident_slots_;
  }

  // --- id-keyed access (one lookup per call) ---------------------------

  /// Append one flit to switch buffer `b`, binding it if needed.
  void push(std::uint32_t b, FlitRef flit) { push_at(bind(b), flit); }

  FlitRef pop(std::uint32_t b) {
    const std::uint32_t s = slot_id(b);
    NBCLOS_ASSERT(s != kNoSlot);
    return pop_at(s);
  }

  [[nodiscard]] FlitRef front(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    NBCLOS_ASSERT(s != kNoSlot);
    return front_at(s);
  }

  [[nodiscard]] std::uint32_t size(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    return s == kNoSlot ? 0 : slot(s).size;
  }

  [[nodiscard]] std::uint32_t out_alloc(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    return s == kNoSlot ? kNoBuffer : slot(s).out_alloc;
  }

  [[nodiscard]] std::uint32_t claim(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    return s == kNoSlot ? kNoBuffer : slot(s).claim;
  }
  void set_claim(std::uint32_t b, std::uint32_t value) {
    if (value == kNoBuffer && slot_id(b) == kNoSlot) return;
    slot(bind(b)).claim = value;
  }

  [[nodiscard]] std::uint64_t blocked_since(std::uint32_t b) const {
    const std::uint32_t s = slot_id(b);
    if (s == kNoSlot || slot(s).blocked_since_plus1 == 0) {
      return kNeverBlocked;
    }
    return slot(s).blocked_since_plus1 - 1;
  }

  /// Recycle `b`'s slot if it is all-default; safe on unbound buffers.
  void maybe_release(std::uint32_t b) {
    const std::uint32_t s = slot_id(b);
    if (s != kNoSlot) maybe_release_at(s);
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

  /// ring_slab_ index of entry `pos` in switch slot `s`'s ring slice.
  [[nodiscard]] std::size_t ring_index(std::uint32_t s,
                                       std::uint32_t pos) const {
    const std::size_t i = std::size_t{s} * slice_ + pos;
    NBCLOS_DEBUG_CHECK(i < ring_slab_.size(), "ring slab index out of range");
    return i;
  }

  std::uint32_t switch_count_ = 0;
  std::uint32_t capacity_ = 0;
  std::uint32_t packet_flits_ = 1;
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
  /// Growable per-NIC rings of packet slots, one entry per queued
  /// packet, lazily sized on first push and retained across slot
  /// recycling.
  std::vector<std::vector<std::uint32_t>> nic_rings_;
  std::uint64_t switch_flits_total_ = 0;
  std::uint32_t peak_switch_flits_ = 0;
};

}  // namespace nbclos::flow
