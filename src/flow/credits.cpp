#include "nbclos/flow/credits.hpp"

#include <bit>

namespace nbclos::flow {

CreditLedger::CreditLedger(FlitBufferPool& pool, std::uint32_t delay)
    : pool_(&pool), delay_(delay) {
  NBCLOS_REQUIRE(pool.capacity() >= 1, "credit capacity must be >= 1");
  // A zero-delay return would land mid-transmission-phase and make the
  // outcome depend on channel visit order; the delay line also needs
  // more than `delay` buckets so a bucket drains before it refills.
  NBCLOS_REQUIRE(delay >= 1, "credit return delay must be >= 1 cycle");
  const std::uint64_t buckets = std::bit_ceil(std::uint64_t{delay} + 1);
  delay_mask_ = buckets - 1;
  delay_line_.resize(buckets);
}

void CreditLedger::advance(std::uint64_t now) {
  auto& due = delay_line_[now & delay_mask_];
  for (const auto s : due) {
    FlitBufferPool::BufferSlot& sl = pool_->slot(s);
    NBCLOS_ASSERT(sl.credits_used > 0);
    NBCLOS_ASSERT(sl.pending_returns > 0);
    --sl.credits_used;
    --sl.pending_returns;
    pool_->maybe_release_at(s);
  }
  due.clear();
}

OnOffSignal::OnOffSignal(FlitBufferPool& pool, std::uint32_t off_threshold)
    : pool_(&pool), threshold_(off_threshold) {
  NBCLOS_REQUIRE(off_threshold >= 1,
                 "on/off threshold must leave at least one sendable slot "
                 "(buffer too shallow for this switching mode)");
}

void OnOffSignal::latch() {
  for (const auto s : dirty_) {
    FlitBufferPool::BufferSlot& sl = pool_->slot(s);
    sl.off = sl.size >= threshold_ ? 1 : 0;
    sl.in_dirty = 0;
    pool_->maybe_release_at(s);
  }
  dirty_.clear();
}

}  // namespace nbclos::flow
