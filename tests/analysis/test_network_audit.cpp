/// The Lemma 1 audit over any `routing::NextHop`, and the path walker it
/// reads routes with: one audit covers every fabric family the engines
/// run — ftree routings through TopChoiceNextHop, the k-ary tree, the
/// §IV multi-level fabric, the InfiniBand LFTs and a route table.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nbclos/analysis/contention.hpp"
#include "nbclos/core/multilevel.hpp"
#include "nbclos/routing/baselines.hpp"
#include "nbclos/routing/infiniband.hpp"
#include "nbclos/routing/route_cache.hpp"
#include "nbclos/routing/yuan_nonblocking.hpp"
#include "nbclos/sim/shard_router.hpp"

namespace nbclos {
namespace {

using routing::walk_path;

/// The ftree audit and the walked audit over TopChoiceNextHop must name
/// the same channels with the same exact counts.
void expect_audits_agree(
    const std::shared_ptr<const SinglePathRouting>& routing,
    const Network& net) {
  const auto specific = lemma1_audit(*routing);
  const auto walked = lemma1_audit(routing::TopChoiceNextHop(routing, net));
  ASSERT_EQ(walked.size(), specific.size()) << routing->name();
  for (std::size_t i = 0; i < walked.size(); ++i) {
    EXPECT_EQ(walked[i].link, specific[i].link) << routing->name();
    EXPECT_EQ(walked[i].distinct_sources, specific[i].distinct_sources)
        << routing->name();
    EXPECT_EQ(walked[i].distinct_destinations,
              specific[i].distinct_destinations)
        << routing->name();
  }
}

/// A test router answering each hop from a callback, to feed walk_path
/// the faults a broken routing could produce.
class ScriptedNextHop final : public routing::NextHop {
 public:
  using Answer = std::function<std::uint32_t(std::uint32_t vertex)>;
  ScriptedNextHop(const Network& net, Answer answer)
      : net_(&net), answer_(std::move(answer)) {}

  [[nodiscard]] const Network& network() const override { return *net_; }
  [[nodiscard]] std::uint32_t next_channel_from(
      std::uint32_t vertex, std::uint32_t /*src*/,
      std::uint32_t /*dst*/) const override {
    return answer_(vertex);
  }
  [[nodiscard]] std::size_t bytes() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "scripted"; }

 private:
  const Network* net_;
  Answer answer_;
};

TEST(ChannelLoad, CountsAndCollisions) {
  const auto net = build_crossbar(4);
  LinkLoadMap map(net);
  map.add_channels(ChannelPath{0, 4 + 1});
  map.add_channels(ChannelPath{2, 4 + 1});  // shares the downlink to terminal 1
  EXPECT_EQ(map.load(LinkId{0}), 1U);
  EXPECT_EQ(map.load(LinkId{5}), 2U);
  EXPECT_EQ(map.contended_links(), 1U);
  EXPECT_EQ(map.colliding_pairs(), 1U);
  EXPECT_FALSE(map.contention_free());
  EXPECT_THROW(map.add_channels(ChannelPath{9}), precondition_error);
}

TEST(ChannelLoad, NetworkHasContentionHelper) {
  const auto net = build_crossbar(4);
  EXPECT_FALSE(has_contention(net, {{0, 5}, {1, 6}}));
  EXPECT_TRUE(has_contention(net, {{0, 5}, {1, 5}}));
}

/// Three ftrees, each with m >= n^2 so Theorem 3 routing exists.
const FtreeParams kAuditFtrees[] = {FtreeParams{2, 4, 5}, FtreeParams{3, 9, 4},
                                    FtreeParams{2, 5, 7}};

TEST(NetworkAudit, AgreesWithFtreeAuditOnNonblockingRouting) {
  for (const auto params : kAuditFtrees) {
    const FoldedClos ft(params);
    const auto net = build_network(ft);
    const auto routing = std::make_shared<const YuanNonblockingRouting>(ft);
    EXPECT_TRUE(lemma1_audit(routing::TopChoiceNextHop(routing, net)).empty());
    expect_audits_agree(routing, net);
  }
}

TEST(NetworkAudit, AgreesWithFtreeAuditOnBlockingRouting) {
  // d-mod-k and s-mod-k: the same channel ids with the same exact counts.
  for (const auto params : kAuditFtrees) {
    const FoldedClos ft(params);
    const auto net = build_network(ft);
    const auto dmodk = std::make_shared<const DModKRouting>(ft);
    EXPECT_FALSE(lemma1_audit(*dmodk).empty());
    expect_audits_agree(dmodk, net);
    expect_audits_agree(std::make_shared<const SModKRouting>(ft), net);
  }
}

TEST(NetworkAudit, CrossbarIsAlwaysNonblocking) {
  const auto net = build_crossbar(6);
  const routing::ChannelRouteCache cache(net, [](SDPair sd) {
    return ChannelPath{sd.src.value, 6 + sd.dst.value};
  });
  EXPECT_TRUE(lemma1_audit(cache).empty());
}

TEST(NetworkAudit, EmptyOnMultiLevelAndInfinibandFabrics) {
  for (const auto& [n, levels] :
       {std::pair{2U, 2U}, std::pair{3U, 2U}, std::pair{2U, 3U}}) {
    const MultiLevelFabric fabric(n, levels);
    EXPECT_TRUE(lemma1_audit(fabric).empty())
        << "n=" << n << " levels=" << levels;
  }
  const FoldedClos ft(FtreeParams{3, 9, 8});
  const InfinibandFabric infiniband(ft);
  EXPECT_TRUE(lemma1_audit(infiniband).empty());
}

TEST(NetworkAudit, FlagsKaryDmodkWithExactCounts) {
  // d-mod-k on a k-ary tree is blocking; each flagged channel's counts
  // must match a brute-force count of distinct sources and destinations
  // over every walked path.
  for (const auto& [k, h, flagged] :
       {std::tuple{2U, 3U, 20U}, std::tuple{3U, 3U, 63U}}) {
    const Network net = build_kary_ntree(k, h);
    const sim::KaryDmodkRouter router(net, k, h);
    std::vector<std::set<std::uint32_t>> sources(net.channel_count());
    std::vector<std::set<std::uint32_t>> dests(net.channel_count());
    std::vector<std::uint32_t> path;
    for (const auto s : net.terminals()) {
      for (const auto d : net.terminals()) {
        if (s == d) continue;
        walk_path(router, s, d, path);
        for (const auto c : path) {
          sources[c].insert(s);
          dests[c].insert(d);
        }
      }
    }
    std::vector<LinkAuditViolation> expect;
    for (std::uint32_t c = 0; c < net.channel_count(); ++c) {
      if (sources[c].size() >= 2 && dests[c].size() >= 2) {
        expect.push_back(LinkAuditViolation{
            LinkId{c}, static_cast<std::uint32_t>(sources[c].size()),
            static_cast<std::uint32_t>(dests[c].size())});
      }
    }
    const auto got = lemma1_audit(router);
    EXPECT_EQ(got.size(), flagged) << "k=" << k << " h=" << h;
    ASSERT_EQ(got.size(), expect.size()) << "k=" << k << " h=" << h;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].link, expect[i].link);
      EXPECT_EQ(got[i].distinct_sources, expect[i].distinct_sources);
      EXPECT_EQ(got[i].distinct_destinations,
                expect[i].distinct_destinations);
    }
  }
}

TEST(WalkPath, AcceptsChainedPath) {
  const FoldedClos ft(FtreeParams{2, 4, 3});
  const auto net = build_network(ft);
  const auto routing = std::make_shared<const YuanNonblockingRouting>(ft);
  const routing::TopChoiceNextHop router(routing, net);
  const SDPair sd{LeafId{0}, LeafId{4}};
  ChannelPath expected;
  for (const auto link : ft.links_of(routing->route(sd))) {
    expected.push_back(link.value);
  }
  ChannelPath path{7, 7, 7};  // overwritten, not appended to
  walk_path(router, 0, 4, path);
  EXPECT_EQ(path, expected);
  walk_path(router, 4, 4, path);
  EXPECT_TRUE(path.empty());
}

TEST(WalkPath, RejectsBrokenPaths) {
  // Crossbar(4): terminal t's uplink is channel t, the switch (vertex 4)
  // reaches terminal t on channel 4 + t.
  const auto net = build_crossbar(4);
  ChannelPath path;
  // A channel that does not leave the current vertex: terminal 0
  // answers terminal 1's uplink.
  const ScriptedNextHop off_vertex(net, [](std::uint32_t v) {
    return v == 0 ? 1U : 4U + 1U;
  });
  EXPECT_THROW(walk_path(off_vertex, 0, 1, path), precondition_error);
  // A channel id out of range.
  const ScriptedNextHop out_of_range(net, [](std::uint32_t) { return 99U; });
  EXPECT_THROW(walk_path(out_of_range, 0, 1, path), precondition_error);
  // A router that never converges: the switch always sends to terminal
  // 2, which climbs back, while the packet is bound for terminal 1.
  const ScriptedNextHop looping(net, [](std::uint32_t v) {
    return v < 4 ? v : 4U + 2U;
  });
  EXPECT_THROW(walk_path(looping, 0, 1, path), precondition_error);
  // An endpoint that is not a terminal.
  const ScriptedNextHop sound(net, [](std::uint32_t v) {
    return v < 4 ? v : 4U + 1U;
  });
  EXPECT_NO_THROW(walk_path(sound, 0, 1, path));
  EXPECT_THROW(walk_path(sound, 0, 4, path), precondition_error);
}

}  // namespace
}  // namespace nbclos
