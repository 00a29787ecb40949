/// \file run_info.hpp
/// \brief Build + run manifest embedded in every bench JSON and trace.
///
/// Reproducing a measurement requires knowing exactly what ran: RunInfo
/// captures the build identity (git sha, compiler, build type, flags,
/// whether observability was compiled in) at compile time and lets the
/// harness fill in the per-run facts (seed, thread count, wall time).
/// Unlike obs/metrics and obs/trace this is NOT compiled out by
/// NBCLOS_OBS=OFF — a manifest is exactly as valuable for an OFF build.
#pragma once

#include <cstdint>
#include <string>

namespace nbclos {
class JsonWriter;
}

namespace nbclos::obs {

struct RunInfo {
  // --- build identity (filled by current()) ---------------------------
  std::string version;     ///< nbclos project version
  std::string git_sha;     ///< HEAD at configure time ("unknown" outside git)
  std::string compiler;    ///< id + version, e.g. "GNU 13.2.0"
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string cxx_flags;   ///< CMAKE_CXX_FLAGS (often empty)
  bool obs_enabled = false;  ///< NBCLOS_OBS compiled in?

  // --- run facts (filled by the harness; 0 / empty = not applicable) --
  std::uint64_t seed = 0;
  std::uint32_t threads = 0;
  std::uint32_t hardware_concurrency = 0;
  /// Online NUMA nodes (parsed from /sys/devices/system/node by
  /// current(); 1 where the hierarchy is absent).
  std::uint32_t numa_nodes = 1;
  double wall_seconds = 0.0;
  /// Simulation shard count (0 = not a sharded run).
  std::uint32_t shards = 0;
  /// Peak resident set in KiB, sampled by the harness *after* the big
  /// arenas exist (peak RSS is monotone, so sampling late is what makes
  /// the number honest); 0 = not sampled.
  std::uint64_t peak_rss_kb = 0;

  /// Build-time identity plus hardware_concurrency; run facts zeroed.
  [[nodiscard]] static RunInfo current();

  /// Emit as a JSON object value (caller positions the writer — typically
  /// after `writer.key("manifest")`).
  void write_json(JsonWriter& writer) const;

  /// One-line human summary for `nbclos --version`.
  [[nodiscard]] std::string summary() const;
};

/// Peak resident set size of this process in KiB (getrusage on POSIX;
/// 0 where unavailable).  Monotone over the process lifetime — call it
/// after the structures you want accounted for have been built.
[[nodiscard]] std::uint64_t peak_rss_kb();

}  // namespace nbclos::obs
