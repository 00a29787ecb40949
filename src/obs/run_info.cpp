#include "nbclos/obs/run_info.hpp"

#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "nbclos/obs/metrics.hpp"  // NBCLOS_OBS_ENABLED default
#include "nbclos/util/json.hpp"

// Build facts injected by src/obs/CMakeLists.txt; the fallbacks keep
// non-CMake compiles (e.g. IDE single-file checks) working.
#ifndef NBCLOS_VERSION_STRING
#define NBCLOS_VERSION_STRING "0.0.0"
#endif
#ifndef NBCLOS_GIT_SHA
#define NBCLOS_GIT_SHA "unknown"
#endif
#ifndef NBCLOS_BUILD_TYPE
#define NBCLOS_BUILD_TYPE "unknown"
#endif
#ifndef NBCLOS_CXX_FLAGS
#define NBCLOS_CXX_FLAGS ""
#endif

namespace nbclos::obs {

namespace {

/// Online NUMA node count parsed from sysfs.  Deliberately duplicates a
/// sliver of sim::NumaTopology::detect(): run_info lives in nbclos_util,
/// below the sim library in the dependency order, and a manifest must
/// not pull the simulation engine in.
std::uint32_t numa_node_count() {
#if defined(__linux__)
  std::uint32_t nodes = 0;
  while (true) {
    const std::string path =
        "/sys/devices/system/node/node" + std::to_string(nodes);
    if (::access(path.c_str(), F_OK) != 0) break;
    ++nodes;
  }
  return nodes > 0 ? nodes : 1;
#else
  return 1;
#endif
}

std::string compiler_string() {
#if defined(__clang__)
  return std::string("Clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("GNU ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace

RunInfo RunInfo::current() {
  RunInfo info;
  info.version = NBCLOS_VERSION_STRING;
  info.git_sha = NBCLOS_GIT_SHA;
  info.compiler = compiler_string();
  info.build_type = NBCLOS_BUILD_TYPE;
  info.cxx_flags = NBCLOS_CXX_FLAGS;
#if NBCLOS_OBS_ENABLED
  info.obs_enabled = true;
#else
  info.obs_enabled = false;
#endif
  info.hardware_concurrency = std::thread::hardware_concurrency();
  info.numa_nodes = numa_node_count();
  return info;
}

void RunInfo::write_json(JsonWriter& writer) const {
  writer.begin_object();
  writer.member("version", version);
  writer.member("git_sha", git_sha);
  writer.member("compiler", compiler);
  writer.member("build_type", build_type);
  writer.member("cxx_flags", cxx_flags);
  writer.member("obs_enabled", obs_enabled);
  writer.member("seed", seed);
  writer.member("threads", threads);
  writer.member("hardware_concurrency", hardware_concurrency);
  writer.member("numa_nodes", numa_nodes);
  writer.member("wall_seconds", wall_seconds);
  writer.member("shards", shards);
  writer.member("peak_rss_kb", peak_rss_kb);
  writer.end_object();
}

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;  // bytes
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // already KiB
#endif
#else
  return 0;
#endif
}

std::string RunInfo::summary() const {
  std::ostringstream out;
  out << "nbclos " << version << " (" << git_sha << ", " << compiler << ", "
      << build_type << ", obs " << (obs_enabled ? "on" : "off") << ")";
  return out.str();
}

}  // namespace nbclos::obs
