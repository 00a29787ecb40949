#include "nbclos/fault/degraded_routing.hpp"

#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos::fault {

DegradedYuanRouting::DegradedYuanRouting(const FoldedClos& ftree,
                                         const DegradedView& view)
    : SinglePathRouting(ftree), liveness_(ftree, view) {
  NBCLOS_REQUIRE(std::uint64_t{ftree.m()} >= std::uint64_t{ftree.n()} *
                                                 ftree.n(),
                 "Yuan routing requires m >= n^2 top switches");
}

TopId DegradedYuanRouting::primary_top(SDPair sd) const {
  const auto& ft = ftree();
  return YuanNonblockingRouting::top_index(ft.n(), ft.local_of(sd.src),
                                           ft.local_of(sd.dst));
}

std::optional<TopId> DegradedYuanRouting::try_top_for(SDPair sd) const {
  const auto& ft = ftree();
  NBCLOS_REQUIRE(ft.needs_top(sd), "same-switch pair never uses a top switch");
  const BottomId sb = ft.switch_of(sd.src);
  const BottomId db = ft.switch_of(sd.dst);
  const std::uint32_t primary = primary_top(sd).value;
  // Scan from the Theorem 3 assignment: step 0 is the pristine choice, so
  // healthy pairs keep their nonblocking slot and degraded pairs take the
  // nearest live one — deterministic, hence reproducible and table-free.
  for (std::uint32_t step = 0; step < ft.m(); ++step) {
    const TopId t{(primary + step) % ft.m()};
    if (liveness_.top_usable(sb, db, t)) return t;
  }
  return std::nullopt;
}

std::optional<FtreePath> DegradedYuanRouting::try_route(SDPair sd) const {
  const auto& ft = ftree();
  NBCLOS_REQUIRE(sd.src != sd.dst, "self-loop SD pair");
  if (!liveness_.leaf_up_alive(sd.src) || !liveness_.leaf_down_alive(sd.dst)) {
    return std::nullopt;
  }
  if (!ft.needs_top(sd)) return ft.direct_path(sd);
  const auto top = try_top_for(sd);
  if (!top.has_value()) return std::nullopt;
  return ft.cross_path(sd, *top);
}

bool DegradedYuanRouting::uses_fallback(SDPair sd) const {
  const auto top = try_top_for(sd);
  return top.has_value() && *top != primary_top(sd);
}

TopId DegradedYuanRouting::top_for(SDPair sd) const {
  const auto top = try_top_for(sd);
  NBCLOS_REQUIRE(top.has_value(),
                 "SD pair has no live path on the degraded fabric");
  return *top;
}

}  // namespace nbclos::fault
