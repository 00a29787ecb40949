/// Property tests for the delta-evaluation invariant (analysis/delta.hpp):
/// after any sequence of target swaps, SwapDeltaState::collisions() must
/// equal a from-scratch evaluation of the current pattern.
#include "nbclos/analysis/delta.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <span>

#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"

namespace nbclos {
namespace {

/// From-scratch reference: route the whole pattern into a fresh map.
std::uint64_t full_collisions(const FoldedClos& ft,
                              const SinglePathRouting& routing,
                              const std::vector<std::uint32_t>& target) {
  LinkLoadMap map(ft);
  map.add_paths(routing.route_all(permutation_from_targets(target)));
  return map.colliding_pairs();
}

std::vector<std::uint32_t> random_targets(std::uint32_t leafs,
                                          Xoshiro256& rng) {
  std::vector<std::uint32_t> target(leafs);
  std::iota(target.begin(), target.end(), 0U);
  shuffle(target.begin(), target.end(), rng);
  return target;
}

/// Thousands of random swaps; after every one, delta must equal full.
void check_delta_matches_full(const FoldedClos& ft,
                              const SinglePathRouting& routing,
                              std::uint64_t seed, std::uint32_t swaps) {
  Xoshiro256 rng(seed);
  const std::uint32_t leafs = ft.leaf_count();
  const auto cache = routing::RouteCache::materialize(routing);
  SwapDeltaState state(ft, cache);
  state.reset(random_targets(leafs, rng));
  ASSERT_EQ(state.collisions(), full_collisions(ft, routing, state.targets()));
  for (std::uint32_t step = 0; step < swaps; ++step) {
    const auto i = static_cast<std::uint32_t>(rng.below(leafs));
    auto j = static_cast<std::uint32_t>(rng.below(leafs));
    if (i == j) j = (j + 1) % leafs;
    state.apply_swap(i, j);
    ASSERT_EQ(state.collisions(),
              full_collisions(ft, routing, state.targets()))
        << "after swap " << step << " (" << i << ", " << j << ")";
  }
}

TEST(SwapDelta, MatchesFullEvaluationDModK) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const DModKRouting routing(ft);
  check_delta_matches_full(ft, routing, 101, 2000);
}

TEST(SwapDelta, MatchesFullEvaluationDModKWider) {
  const FoldedClos ft(FtreeParams{3, 4, 5});
  const DModKRouting routing(ft);
  check_delta_matches_full(ft, routing, 102, 1500);
}

TEST(SwapDelta, MatchesFullEvaluationYuanNonblocking) {
  // Nonblocking scheme: collisions should stay 0 on full permutations,
  // but the invariant must hold regardless.
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const YuanNonblockingRouting routing(ft);
  check_delta_matches_full(ft, routing, 103, 1500);
}

TEST(SwapDelta, MatchesFullEvaluationRandomFixed) {
  const FoldedClos ft(FtreeParams{2, 3, 4});
  const RandomFixedRouting routing(ft, 77);
  check_delta_matches_full(ft, routing, 104, 1500);
}

TEST(SwapDelta, MatchesFullEvaluationPaperScale) {
  // The bench topology: ftree(4+16, 8), 32 leaves.
  const FoldedClos ft(FtreeParams{4, 16, 8});
  const DModKRouting routing(ft);
  check_delta_matches_full(ft, routing, 105, 400);
}

TEST(SwapDelta, SwapIsSelfInverse) {
  const FoldedClos ft(FtreeParams{2, 2, 4});
  const DModKRouting routing(ft);
  Xoshiro256 rng(7);
  const auto cache = routing::RouteCache::materialize(routing);
  SwapDeltaState state(ft, cache);
  state.reset(random_targets(ft.leaf_count(), rng));
  const auto targets_before = state.targets();
  const auto collisions_before = state.collisions();
  state.apply_swap(1, 5);
  state.apply_swap(1, 5);
  EXPECT_EQ(state.targets(), targets_before);
  EXPECT_EQ(state.collisions(), collisions_before);
  state.apply_swap(2, 6);
  state.revert_swap(2, 6);
  EXPECT_EQ(state.targets(), targets_before);
  EXPECT_EQ(state.collisions(), collisions_before);
}

TEST(SwapDelta, PatternDropsFixedPoints) {
  const FoldedClos ft(FtreeParams{2, 4, 4});
  const auto cache = routing::RouteCache::materialize(DModKRouting(ft));
  SwapDeltaState state(ft, cache);
  std::vector<std::uint32_t> identity(ft.leaf_count());
  std::iota(identity.begin(), identity.end(), 0U);
  state.reset(identity);
  EXPECT_TRUE(state.pattern().empty());
  EXPECT_EQ(state.collisions(), 0U);
  state.apply_swap(0, 1);  // only leafs 0 and 1 now cross
  EXPECT_EQ(state.pattern().size(), 2U);
}

TEST(SwapDelta, RejectsBadSwaps) {
  const FoldedClos ft(FtreeParams{2, 2, 3});
  const auto cache = routing::RouteCache::materialize(DModKRouting(ft));
  SwapDeltaState state(ft, cache);
  std::vector<std::uint32_t> identity(ft.leaf_count());
  std::iota(identity.begin(), identity.end(), 0U);
  state.reset(identity);
  if (kDebugChecksEnabled) {
    EXPECT_THROW(state.apply_swap(0, 0), precondition_error);
    EXPECT_THROW(state.apply_swap(0, ft.leaf_count()), precondition_error);
  }
  EXPECT_THROW(state.reset({0, 1, 2}), precondition_error);
}

/// Unload a path's links from the map (the delta evaluator's remove_run
/// over the path's link ids).
void remove_path(LinkLoadMap& map, const FoldedClos& ft,
                 const FtreePath& path) {
  LinkId links[FoldedClos::kMaxPathLinks];
  const auto count = ft.links_into(path, links);
  std::uint32_t run[FoldedClos::kMaxPathLinks];
  for (std::uint32_t i = 0; i < count; ++i) run[i] = links[i].value;
  map.remove_run(std::span<const std::uint32_t>(run, count));
}

TEST(LinkLoadMapIncremental, RemovePathInvertsAddPath) {
  const FoldedClos ft(FtreeParams{3, 2, 6});
  const DModKRouting routing(ft);
  Xoshiro256 rng(9);
  LinkLoadMap map(ft);
  const auto paths =
      routing.route_all(random_permutation(ft.leaf_count(), rng));
  map.add_paths(paths);
  // Running sums agree with a freshly built map.
  LinkLoadMap fresh(ft);
  fresh.add_paths(paths);
  EXPECT_EQ(map.colliding_pairs(), fresh.colliding_pairs());
  EXPECT_EQ(map.contended_links(), fresh.contended_links());
  // Removing every path returns the map to empty.
  for (const auto& path : paths) remove_path(map, ft, path);
  EXPECT_EQ(map.colliding_pairs(), 0U);
  EXPECT_EQ(map.contended_links(), 0U);
  EXPECT_EQ(map.max_load(), 0U);
  // Underflow is a precondition error (checked in Debug builds only).
  if (kDebugChecksEnabled) {
    EXPECT_THROW(remove_path(map, ft, paths.front()), precondition_error);
  }
}

TEST(LinkLoadMapIncremental, RunningSumsMatchDirectRecount) {
  // Add and remove random subsets of paths; colliding_pairs (sum over
  // links of C(load, 2)) and contended_links (#links with load >= 2) must
  // always match a direct recount over link loads.
  const FoldedClos ft(FtreeParams{2, 2, 5});
  const DModKRouting routing(ft);
  Xoshiro256 rng(10);
  LinkLoadMap map(ft);
  std::vector<FtreePath> resident;
  for (int step = 0; step < 400; ++step) {
    if (resident.empty() || rng.below(2) == 0) {
      const auto src = static_cast<std::uint32_t>(rng.below(ft.leaf_count()));
      auto dst = static_cast<std::uint32_t>(rng.below(ft.leaf_count()));
      if (dst == src) dst = (dst + 1) % ft.leaf_count();
      resident.push_back(routing.route({LeafId{src}, LeafId{dst}}));
      map.add_path(resident.back());
    } else {
      const auto pick = rng.below(resident.size());
      remove_path(map, ft, resident[pick]);
      resident[pick] = resident.back();
      resident.pop_back();
    }
    std::uint64_t pairs = 0;
    std::uint64_t contended = 0;
    for (std::uint32_t link = 0; link < ft.link_count(); ++link) {
      const std::uint64_t load = map.load(LinkId{link});
      pairs += load * (load - 1) / 2;
      if (load >= 2) ++contended;
    }
    ASSERT_EQ(map.colliding_pairs(), pairs) << "step " << step;
    ASSERT_EQ(map.contended_links(), contended) << "step " << step;
  }
}

}  // namespace
}  // namespace nbclos
