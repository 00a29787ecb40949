#include "nbclos/flow/buffers.hpp"

#include <bit>

namespace nbclos::flow {

FlitBufferPool::FlitBufferPool(std::uint32_t switch_buffers,
                               std::uint32_t nic_buffers,
                               std::uint32_t capacity_flits)
    : switch_count_(switch_buffers), capacity_(capacity_flits),
      slice_(std::bit_ceil(capacity_flits)), slice_mask_(slice_ - 1),
      slot_of_(std::size_t{switch_buffers} + nic_buffers, kNoSlot),
      nic_rings_(nic_buffers) {
  NBCLOS_REQUIRE(capacity_flits >= 1, "buffers need capacity >= 1 flit");
}

std::size_t FlitBufferPool::bytes() const noexcept {
  std::size_t total = slot_of_.capacity() * sizeof(std::uint32_t) +
                      slots_.capacity() * sizeof(BufferSlot) +
                      ring_slab_.capacity() * sizeof(FlitRef) +
                      free_slots_.capacity() * sizeof(std::uint32_t) +
                      nic_rings_.capacity() * sizeof(nic_rings_[0]);
  for (const auto& ring : nic_rings_) {
    total += ring.capacity() * sizeof(FlitRef);
  }
  return total;
}

}  // namespace nbclos::flow
