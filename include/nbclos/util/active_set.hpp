/// \file active_set.hpp
/// \brief Ordered set of ids over [0, n) with O(1) insert and ascending
///        sweeps: the cycle engines' active-channel sets.
///
/// Engines must visit active channels in ascending id (bit-reproducible
/// oracle calls, RNG draws and accumulators).  A two-level bitmap gives
/// that order without a sort: one bit per id, plus one summary bit per
/// 64-bit word so a sweep skips 64 empty words per summary-word read.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nbclos/util/check.hpp"

namespace nbclos {

class ActiveSet {
 public:
  ActiveSet() = default;
  /// An empty set over ids [0, n).
  explicit ActiveSet(std::uint32_t n)
      : words_((std::size_t{n} + 63) / 64, 0),
        summary_((words_.size() + 63) / 64, 0),
        n_(n) {}

  /// Number of members, including those a sweep has yet to drop.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Heap bytes held by the bitmap.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return (words_.capacity() + summary_.capacity()) * sizeof(std::uint64_t);
  }

  /// Add `id`; a no-op when it is already a member.
  void insert(std::uint32_t id) {
    NBCLOS_DEBUG_CHECK(id < n_, "ActiveSet id out of range");
    std::uint64_t& word = words_[id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((word & bit) != 0) return;
    word |= bit;
    summary_[id >> 12] |= std::uint64_t{1} << ((id >> 6) & 63);
    ++size_;
  }

  /// Visit every member in ascending order; `fn(id)` returns whether the
  /// member stays.  `fn` must not insert into this set.
  template <class Fn>
  void sweep(Fn&& fn) {
    for_each_word([&](std::size_t w) {
      std::uint64_t erased = 0;
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const unsigned b = lowest(bits);
        if (!fn(static_cast<std::uint32_t>(w * 64 + b))) {
          erased |= std::uint64_t{1} << b;
        }
      }
      if (erased == 0) return;
      words_[w] &= ~erased;
      size_ -= static_cast<std::size_t>(std::popcount(erased));
      if (words_[w] == 0) summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
    });
  }

  /// Visit every member in ascending order without changing the set.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for_each_word([&](std::size_t w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<std::uint32_t>(w * 64 + lowest(bits)));
      }
    });
  }

 private:
  static unsigned lowest(std::uint64_t word) noexcept {
    return static_cast<unsigned>(std::countr_zero(word));
  }

  /// Call `visit(w)` for every nonzero word index w, ascending.
  template <class Fn>
  void for_each_word(Fn&& visit) const {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t pending = summary_[s]; pending != 0;
           pending &= pending - 1) {
        visit(s * 64 + lowest(pending));
      }
    }
  }

  std::vector<std::uint64_t> words_;    ///< bit i of word w: id 64w + i
  std::vector<std::uint64_t> summary_;  ///< bit j of word s: words_[64s+j] != 0
  std::uint32_t n_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nbclos
