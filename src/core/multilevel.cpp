#include "nbclos/core/multilevel.hpp"

#include "nbclos/analysis/contention.hpp"
#include "nbclos/analysis/permutations.hpp"
#include "nbclos/fault/degraded_view.hpp"
#include "nbclos/util/check.hpp"

namespace nbclos {

std::uint32_t MultiLevelFabric::Block::attach(std::uint32_t port,
                                              std::uint32_t n) const {
  NBCLOS_REQUIRE(port < ports, "block port out of range");
  if (level == 1) return switch_vertex;
  return bottom[port / n];
}

MultiLevelFabric::MultiLevelFabric(std::uint32_t n, std::uint32_t levels)
    : n_(n), levels_(levels) {
  NBCLOS_REQUIRE(n >= 2, "multi-level fabric needs n >= 2");
  NBCLOS_REQUIRE(levels >= 2, "multi-level fabric starts at two levels");
  // P(levels) = n^(levels+1) + n^levels.
  std::uint64_t ports = std::uint64_t{n} * n + n;  // P(1)
  for (std::uint32_t k = 2; k <= levels; ++k) {
    ports *= n;
    NBCLOS_REQUIRE(ports <= (1ULL << 20), "fabric too large");
  }
  ports_ = static_cast<std::uint32_t>(ports);

  // Terminals first so leaf index == vertex id.
  for (std::uint32_t p = 0; p < ports_; ++p) {
    net_.add_vertex(VertexKind::kTerminal, 0, p);
  }
  root_ = build_block(levels);
  NBCLOS_ASSERT(root_->ports == ports_);
  leaf_up_.resize(ports_);
  leaf_down_.resize(ports_);
  for (std::uint32_t p = 0; p < ports_; ++p) {
    const auto at = root_->attach(p, n_);
    leaf_up_[p] = net_.add_channel(p, at);
    leaf_down_[p] = net_.add_channel(at, p);
  }
  net_.finalize();
}

std::unique_ptr<MultiLevelFabric::Block> MultiLevelFabric::build_block(
    std::uint32_t level) {
  auto block = std::make_unique<Block>();
  block->level = level;
  if (level == 1) {
    block->ports = n_ * n_ + n_;
    block->switch_vertex = net_.add_vertex(VertexKind::kSwitch, 1, 0);
    ++switch_count_;
    return block;
  }
  // n^2 sub-blocks of the previous level.
  for (std::uint32_t t = 0; t < n_ * n_; ++t) {
    block->subs.push_back(build_block(level - 1));
  }
  const std::uint32_t sub_ports = block->subs.front()->ports;
  block->ports = sub_ports * n_;
  // One bottom switch per sub-block port; bottom switch q owns external
  // ports [q*n, q*n + n) and one uplink into every sub-block at sub-port q.
  block->bottom.resize(sub_ports);
  for (std::uint32_t q = 0; q < sub_ports; ++q) {
    block->bottom[q] = net_.add_vertex(VertexKind::kSwitch, level, q);
    ++switch_count_;
  }
  block->up.assign(n_ * n_, std::vector<std::uint32_t>(sub_ports, 0));
  block->down.assign(n_ * n_, std::vector<std::uint32_t>(sub_ports, 0));
  for (std::uint32_t t = 0; t < n_ * n_; ++t) {
    for (std::uint32_t q = 0; q < sub_ports; ++q) {
      const auto sub_attach = block->subs[t]->attach(q, n_);
      block->up[t][q] = net_.add_channel(block->bottom[q], sub_attach);
      block->down[t][q] = net_.add_channel(sub_attach, block->bottom[q]);
    }
  }
  return block;
}

ChannelPath MultiLevelFabric::route(SDPair sd) const {
  NBCLOS_REQUIRE(sd.src.value < ports_ && sd.dst.value < ports_,
                 "leaf id out of range");
  NBCLOS_REQUIRE(sd.src != sd.dst, "self-loop SD pair");
  ChannelPath path;
  routing::walk_path(*this, sd.src.value, sd.dst.value, path);
  return path;
}

std::uint32_t MultiLevelFabric::next_channel_from(std::uint32_t vertex,
                                                  std::uint32_t src,
                                                  std::uint32_t dst) const {
  if (src == dst) return fault::kNoRoute;
  NBCLOS_REQUIRE(src < ports_ && dst < ports_, "leaf id out of range");
  if (vertex == src) return leaf_up_[src];
  // Descend the block recursion along the pair's path, carrying the
  // ports it enters and leaves the current block by and the channel that
  // leaves the block's exit switch.  Every vertex appears on the path at
  // most once, so the first match is the answer.
  const Block* block = root_.get();
  std::uint32_t in_port = src;
  std::uint32_t out_port = dst;
  std::uint32_t exit = leaf_down_[dst];
  while (block->level > 1) {
    const std::uint32_t qin = in_port / n_;
    const std::uint32_t qout = out_port / n_;
    if (vertex == block->bottom[qout]) return exit;
    if (qin == qout) return fault::kNoRoute;  // turned at the shared switch
    // The Theorem 3 rule, applied at this level: sub-block (i, j) where i
    // and j are the local port indices within the bottom switches.
    const std::uint32_t t = (in_port % n_) * n_ + out_port % n_;
    if (vertex == block->bottom[qin]) return block->up[t][qin];
    exit = block->down[t][qout];
    block = block->subs[t].get();
    in_port = qin;
    out_port = qout;
  }
  return vertex == block->switch_vertex ? exit : fault::kNoRoute;
}

bool MultiLevelFabric::certify() const { return lemma1_audit(*this).empty(); }

bool MultiLevelFabric::verify_random(std::uint64_t trials,
                                     std::uint64_t seed) const {
  Xoshiro256 rng(seed);
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const auto pattern = random_permutation(ports_, rng);
    ChannelLoadMap map(net_);
    for (const auto sd : pattern) map.add_path(route(sd));
    if (!map.contention_free()) return false;
  }
  return true;
}

}  // namespace nbclos
