#include "nbclos/analysis/network_audit.hpp"

namespace nbclos {

std::uint32_t ChannelLoadMap::contended_channels() const {
  std::uint32_t count = 0;
  for (const auto l : load_) {
    if (l >= 2) ++count;
  }
  return count;
}

std::uint64_t ChannelLoadMap::colliding_pairs() const {
  std::uint64_t pairs = 0;
  for (const auto l : load_) {
    pairs += std::uint64_t{l} * (l - 1) / 2;
  }
  return pairs;
}

bool network_has_contention(const Network& net,
                            const std::vector<ChannelPath>& paths) {
  ChannelLoadMap map(net);
  for (const auto& path : paths) map.add_path(path);
  return !map.contention_free();
}

}  // namespace nbclos
