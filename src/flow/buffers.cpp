#include "nbclos/flow/buffers.hpp"

#include <bit>

namespace nbclos::flow {

FlitBufferPool::FlitBufferPool(std::uint32_t switch_buffers,
                               std::uint32_t nic_buffers,
                               std::uint32_t capacity_flits,
                               std::uint32_t packet_flits)
    : switch_count_(switch_buffers), capacity_(capacity_flits),
      packet_flits_(packet_flits),
      slice_(std::bit_ceil(capacity_flits)), slice_mask_(slice_ - 1),
      slot_of_(std::size_t{switch_buffers} + nic_buffers, kNoSlot),
      nic_rings_(nic_buffers) {
  NBCLOS_REQUIRE(capacity_flits >= 1, "buffers need capacity >= 1 flit");
  NBCLOS_REQUIRE(packet_flits >= 1, "packets need at least one flit");
}

void FlitBufferPool::push_packet(std::uint32_t b, std::uint32_t packet_slot) {
  NBCLOS_DEBUG_CHECK(b >= switch_count_, "packet push into a switch FIFO");
  BufferSlot& sl = slot(bind(b));
  auto& ring = nic_rings_[b - switch_count_];
  // Queued packets: the partly sent front one plus the whole ones.
  const std::uint32_t packets = (sl.size + sl.nic_sent) / packet_flits_;
  if (packets == ring.size()) {
    // Full (or first use): double and relinearize so head lands at 0.
    std::vector<std::uint32_t> bigger(
        ring.empty() ? kNicRingInitialCapacity : ring.size() * 2);
    for (std::uint32_t i = 0; i < packets; ++i) {
      bigger[i] = ring[(sl.head + i) & (ring.size() - 1)];
    }
    ring = std::move(bigger);
    sl.head = 0;
  }
  ring[(sl.head + packets) & (ring.size() - 1)] = packet_slot;
  sl.size += packet_flits_;
}

std::size_t FlitBufferPool::bytes() const noexcept {
  std::size_t total = slot_of_.capacity() * sizeof(std::uint32_t) +
                      slots_.capacity() * sizeof(BufferSlot) +
                      ring_slab_.capacity() * sizeof(FlitRef) +
                      free_slots_.capacity() * sizeof(std::uint32_t) +
                      nic_rings_.capacity() * sizeof(nic_rings_[0]);
  for (const auto& ring : nic_rings_) {
    total += ring.capacity() * sizeof(std::uint32_t);
  }
  return total;
}

}  // namespace nbclos::flow
