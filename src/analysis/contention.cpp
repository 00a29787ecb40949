#include "nbclos/analysis/contention.hpp"

#include <algorithm>

#include "nbclos/obs/trace.hpp"

namespace nbclos {

void LinkLoadMap::add_path(const FtreePath& path) {
  LinkId links[FoldedClos::kMaxPathLinks];
  const auto count = ftree_->links_into(path, links);
  for (std::uint32_t i = 0; i < count; ++i) bump_index(links[i].value);
}

void LinkLoadMap::add_paths(const std::vector<FtreePath>& paths) {
  for (const auto& path : paths) add_path(path);
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
    : ftree_(&ftree), load_(2 * std::size_t{ftree.r()} * ftree.m(), 0) {}

template <typename Item, typename PathOf>
void PermutationLoad::load_paths(const std::vector<Item>& items,
                                 const PathOf& path_of) {
  std::fill(load_.begin(), load_.end(), 0U);
  // Locals, not members: the counter stores below cannot alias them, so
  // they stay in registers across the routing's virtual calls.
  const FoldedClos& ft = *ftree_;
  const std::uint32_t m = ft.m();
  const std::uint32_t r = ft.r();
  std::uint32_t* const up = load_.data();
  std::uint32_t* const down = up + std::size_t{r} * m;
  std::uint64_t colliding_pairs = 0;
  // Every path loads its two leaf links once; a permutation shares none.
  std::uint32_t max_load = items.empty() ? 0 : 1;
  const auto bump = [&](std::uint32_t& load) {
    const std::uint32_t resident = load++;
    colliding_pairs += resident;  // the new path collides with each one
    max_load = std::max(max_load, resident + 1);
  };
  for (const Item& item : items) {
    const FtreePath path = path_of(item);
    if (path.direct) continue;  // leaf links only: never shared
    NBCLOS_DEBUG_CHECK(path.top.value < m, "top switch out of range");
    bump(up[ft.switch_of(path.sd.src).value * m + path.top.value]);
    bump(down[path.top.value * r + ft.switch_of(path.sd.dst).value]);
  }
  colliding_pairs_ = colliding_pairs;
  max_load_ = max_load;
}

void PermutationLoad::load(const Permutation& pattern,
                           const SinglePathRouting& routing) {
  load_paths(pattern, [&routing](SDPair sd) {
    FtreePath path;
    routing.route_into(sd, path);
    return path;
  });
}

void PermutationLoad::load([[maybe_unused]] const Permutation& pattern,
                           const std::vector<FtreePath>& paths) {
  NBCLOS_DEBUG_CHECK(paths.size() == pattern.size(),
                     "router returned a path count unlike the pattern's");
  if constexpr (kDebugChecksEnabled) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      NBCLOS_DEBUG_CHECK(paths[i].sd == pattern[i],
                         "router path does not match its pattern pair");
    }
  }
  load_paths(paths, [](const FtreePath& path) { return path; });
}

bool has_contention(const FoldedClos& ftree,
                    const std::vector<FtreePath>& paths) {
  LinkLoadMap map(ftree);
  map.add_paths(paths);
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
