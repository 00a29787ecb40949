#include "nbclos/analysis/contention.hpp"

#include <algorithm>

#include "nbclos/obs/trace.hpp"

namespace nbclos {

void LinkLoadMap::add_path(const FtreePath& path) {
  NBCLOS_REQUIRE(ftree_ != nullptr, "an ftree path needs an ftree's map");
  LinkId links[FoldedClos::kMaxPathLinks];
  const auto count = ftree_->links_into(path, links);
  for (std::uint32_t i = 0; i < count; ++i) bump_index(links[i].value);
}

void LinkLoadMap::add_paths(const std::vector<FtreePath>& paths) {
  for (const auto& path : paths) add_path(path);
}

void LinkLoadMap::add_channels(std::span<const std::uint32_t> channels) {
  for (const auto c : channels) bump_index(c);
}

void LinkLoadMap::clear() {
  std::fill(load_.begin(), load_.end(), 0U);
  colliding_pairs_ = 0;
  contended_links_ = 0;
}

std::uint32_t LinkLoadMap::max_load() const {
  std::uint32_t max_load = 0;
  for (const auto l : load_) max_load = std::max(max_load, l);
  return max_load;
}

PermutationLoad::PermutationLoad(const FoldedClos& ftree)
    : ftree_(&ftree), bottom_(ftree.leaf_count()),
      load_(2 * std::size_t{ftree.r()} * ftree.m(), 0) {
  for (std::uint32_t leaf = 0; leaf < ftree.leaf_count(); ++leaf) {
    bottom_[leaf] = ftree.switch_of(LeafId{leaf}).value;
  }
}

namespace {

/// One pair of a load: its source and destination leaves and the top
/// switch it crosses; a top >= m marks a pair that loads only its leaf
/// links (a same-switch pair), or nothing when src == dst.
struct LoadPair {
  std::uint32_t src;
  std::uint32_t dst;
  std::uint32_t top;
};

constexpr std::uint32_t kNoTop = UINT32_MAX;

}  // namespace

template <typename PairOf>
void PermutationLoad::load_pairs(std::size_t count, const PairOf& pair_of) {
  std::fill(load_.begin(), load_.end(), 0U);
  // Locals, not members: the counter stores below cannot alias them, so
  // they stay in registers.
  const std::uint32_t m = ftree_->m();
  const std::uint32_t r = ftree_->r();
  std::uint32_t* const counters = load_.data();
  const std::uint32_t* const bottom = bottom_.data();
  std::uint64_t colliding_pairs = 0;
  std::uint32_t max_load = 0;
  std::uint32_t sends = 0;  // nonzero once some leaf sends
  const auto bump = [&](std::uint32_t& load) {
    const std::uint32_t resident = load++;
    colliding_pairs += resident;  // the new path collides with each one
    max_load = std::max(max_load, resident + 1);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const LoadPair pair = pair_of(i, bottom);
    sends |= pair.src ^ pair.dst;
    NBCLOS_DEBUG_CHECK(pair.top < m ||
                           pair.top >= routing::RouteCache::kTopLimit,
                       "top switch out of range");
    if (pair.top >= m) continue;  // leaf links only: never shared
    bump(counters[up_index(bottom[pair.src], pair.top, m)]);
    bump(counters[down_index(pair.top, bottom[pair.dst], m, r)]);
  }
  colliding_pairs_ = colliding_pairs;
  // Every path loads its two leaf links once; a permutation shares none.
  max_load_ = std::max(max_load, sends != 0 ? 1U : 0U);
}

void PermutationLoad::load(std::span<const std::uint32_t> target,
                           const routing::RouteCache& cache) {
  const auto leafs = static_cast<std::uint32_t>(target.size());
  NBCLOS_DEBUG_CHECK(leafs == ftree_->leaf_count() &&
                         cache.leaf_count() == leafs,
                     "route cache does not fit this permutation");
  const std::uint32_t* const to = target.data();
  const std::uint16_t* const tops = cache.tops();
  load_pairs(leafs, [leafs, to, tops](std::size_t s, const std::uint32_t*) {
    const std::uint32_t d = to[s];
    NBCLOS_DEBUG_CHECK(d < leafs, "target leaf out of range");
    NBCLOS_DEBUG_CHECK(d == s || tops[s * leafs + d] !=
                                     routing::RouteCache::kEmpty,
                       "pattern pair is unroutable in the route cache");
    // kEmpty (the diagonal) and kDirect lie above every top id (m <
    // kTopLimit): both skip.
    return LoadPair{static_cast<std::uint32_t>(s), d, tops[s * leafs + d]};
  });
}

void PermutationLoad::load(std::span<const std::uint32_t> target,
                           const SinglePathRouting& routing) {
  const auto leafs = static_cast<std::uint32_t>(target.size());
  NBCLOS_DEBUG_CHECK(leafs == ftree_->leaf_count() &&
                         routing.ftree().leaf_count() == leafs,
                     "routing does not fit this permutation");
  const std::uint32_t* const to = target.data();
  load_pairs(leafs, [leafs, to, &routing](std::size_t i,
                                          const std::uint32_t* bottom) {
    const auto s = static_cast<std::uint32_t>(i);
    const std::uint32_t d = to[s];
    NBCLOS_DEBUG_CHECK(d < leafs, "target leaf out of range");
    if (d == s || bottom[s] == bottom[d]) return LoadPair{s, d, kNoTop};
    const TopId top = routing.top_for(SDPair{LeafId{s}, LeafId{d}});
    NBCLOS_DEBUG_CHECK(top.value < routing.ftree().m(),
                       "top switch out of range");
    return LoadPair{s, d, top.value};
  });
}

void PermutationLoad::load([[maybe_unused]] const Permutation& pattern,
                           const std::vector<FtreePath>& paths) {
  NBCLOS_DEBUG_CHECK(paths.size() == pattern.size(),
                     "router returned a path count unlike the pattern's");
  const FtreePath* const path = paths.data();
  load_pairs(paths.size(), [&](std::size_t i, const std::uint32_t*) {
    const FtreePath& p = path[i];
    NBCLOS_DEBUG_CHECK(p.sd == pattern[i],
                       "router path does not match its pattern pair");
    NBCLOS_DEBUG_CHECK(p.sd.src.value < bottom_.size() &&
                           p.sd.dst.value < bottom_.size() &&
                           (p.direct || p.top.value < ftree_->m()),
                       "path out of range");
    return LoadPair{p.sd.src.value, p.sd.dst.value,
                    p.direct ? kNoTop : p.top.value};
  });
}

bool has_contention(const FoldedClos& ftree,
                    const std::vector<FtreePath>& paths) {
  LinkLoadMap map(ftree);
  map.add_paths(paths);
  return !map.contention_free();
}

bool has_contention(const Network& net, const std::vector<ChannelPath>& paths) {
  LinkLoadMap map(net);
  for (const auto& path : paths) map.add_channels(path);
  return !map.contention_free();
}

namespace {

/// Per-link source/destination tracker used by the audits.  We only need
/// to distinguish "zero", "exactly one value", and "two or more", so two
/// sentinel-coded words per link suffice — the full-network audit touches
/// r(r-1)n^2 * 4 link visits and must stay cache-friendly.
class SourceDestTracker {
 public:
  explicit SourceDestTracker(std::uint32_t link_count)
      : src_(link_count, kEmpty), dst_(link_count, kEmpty),
        src_many_(link_count, 0), dst_many_(link_count, 0) {}

  void visit(LinkId link, SDPair sd) {
    note(src_, src_many_, link.value, sd.src.value);
    note(dst_, dst_many_, link.value, sd.dst.value);
  }

  /// Links where both the source set and destination set have >= 2
  /// members — Lemma 1 violations.
  [[nodiscard]] std::vector<LinkId> violating_links() const {
    std::vector<LinkId> out;
    for (std::uint32_t l = 0; l < src_.size(); ++l) {
      if (src_many_[l] && dst_many_[l]) out.push_back(LinkId{l});
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  static void note(std::vector<std::uint32_t>& first,
                   std::vector<std::uint8_t>& many, std::uint32_t link,
                   std::uint32_t value) {
    if (first[link] == kEmpty) {
      first[link] = value;
    } else if (first[link] != value) {
      many[link] = 1;
    }
  }

  std::vector<std::uint32_t> src_;
  std::vector<std::uint32_t> dst_;
  std::vector<std::uint8_t> src_many_;
  std::vector<std::uint8_t> dst_many_;
};

/// Exact per-link distinct source/destination sets, materialized only for
/// the (typically few) violating links found by the first pass, so the
/// audit's fast path stays two sentinel words per link.
class DistinctCounter {
 public:
  DistinctCounter(std::uint32_t link_count, const std::vector<LinkId>& links)
      : slot_(link_count, kNone), sources_(links.size()), dests_(links.size()) {
    for (std::uint32_t i = 0; i < links.size(); ++i) {
      slot_[links[i].value] = i;
    }
  }

  void visit(LinkId link, SDPair sd) {
    const auto slot = slot_[link.value];
    if (slot == kNone) return;
    insert(sources_[slot], sd.src.value);
    insert(dests_[slot], sd.dst.value);
  }

  [[nodiscard]] std::vector<LinkAuditViolation> violations(
      const std::vector<LinkId>& links) const {
    std::vector<LinkAuditViolation> out;
    out.reserve(links.size());
    for (std::uint32_t i = 0; i < links.size(); ++i) {
      out.push_back(LinkAuditViolation{
          links[i], static_cast<std::uint32_t>(sources_[i].size()),
          static_cast<std::uint32_t>(dests_[i].size())});
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  static void insert(std::vector<std::uint32_t>& values, std::uint32_t value) {
    if (std::find(values.begin(), values.end(), value) == values.end()) {
      values.push_back(value);
    }
  }

  std::vector<std::uint32_t> slot_;
  std::vector<std::vector<std::uint32_t>> sources_;
  std::vector<std::vector<std::uint32_t>> dests_;
};

/// Run both audit passes over an SD-pair/link enumerator.  `for_each`
/// must invoke its callback once per (sd, link) visit and be repeatable.
template <typename ForEachVisit>
std::vector<LinkAuditViolation> audit_visits(std::uint32_t link_count,
                                             const ForEachVisit& for_each) {
  SourceDestTracker tracker(link_count);
  for_each([&tracker](LinkId link, SDPair sd) { tracker.visit(link, sd); });
  const auto links = tracker.violating_links();
  if (links.empty()) return {};
  DistinctCounter counter(link_count, links);
  for_each([&counter](LinkId link, SDPair sd) { counter.visit(link, sd); });
  return counter.violations(links);
}

}  // namespace

std::vector<LinkAuditViolation> lemma1_audit(const SinglePathRouting& routing) {
  const auto& ft = routing.ftree();
  obs::ScopedSpan span("analysis.lemma1_audit", "verify");
  span.arg("leafs", static_cast<double>(ft.leaf_count()));
  return audit_visits(ft.link_count(), [&](const auto& visit) {
    LinkId links[FoldedClos::kMaxPathLinks];
    for (std::uint32_t s = 0; s < ft.leaf_count(); ++s) {
      for (std::uint32_t d = 0; d < ft.leaf_count(); ++d) {
        if (s == d) continue;
        const SDPair sd{LeafId{s}, LeafId{d}};
        const auto count = ft.links_into(routing.route(sd), links);
        for (std::uint32_t i = 0; i < count; ++i) visit(links[i], sd);
      }
    }
  });
}

std::vector<LinkAuditViolation> lemma1_audit(const routing::NextHop& routes) {
  const Network& net = routes.network();
  const auto terminals = net.terminals();
  std::vector<std::uint32_t> path;
  return audit_visits(net.channel_count(), [&](const auto& visit) {
    for (const auto s : terminals) {
      for (const auto d : terminals) {
        if (s == d) continue;
        const SDPair sd{LeafId{s}, LeafId{d}};
        routing::walk_path(routes, s, d, path);
        for (const auto c : path) visit(LinkId{c}, sd);
      }
    }
  });
}

std::vector<LinkAuditViolation> lemma1_audit_footprints(
    const FoldedClos& ftree,
    const std::function<std::vector<LinkId>(SDPair)>& footprint) {
  return audit_visits(ftree.link_count(), [&](const auto& visit) {
    for (std::uint32_t s = 0; s < ftree.leaf_count(); ++s) {
      for (std::uint32_t d = 0; d < ftree.leaf_count(); ++d) {
        if (s == d) continue;
        const SDPair sd{LeafId{s}, LeafId{d}};
        for (const auto link : footprint(sd)) visit(link, sd);
      }
    }
  });
}

}  // namespace nbclos
