/// \file prom_export.hpp
/// \brief Prometheus text-exposition writer for the metrics registry.
///
/// Turns a MetricsRegistry snapshot into the Prometheus text format
/// (version 0.0.4): counters export as `counter`, gauges as `gauge`,
/// and quantile histograms as `summary` (p50/p99/p999 quantile labels
/// plus a `_count` line).  Dotted nbclos metric names are sanitized to
/// the Prometheus grammar (`sim.link.busy_flit_cycles` becomes
/// `nbclos_sim_link_busy_flit_cycles`).
///
/// Unlike the instruments themselves this writer is NOT compiled out by
/// NBCLOS_OBS=OFF — it simply exports the (empty) snapshot, so the CLI
/// surface stays identical in both builds.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "nbclos/obs/metrics.hpp"

namespace nbclos::obs {

/// Sanitize `name` to the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` and prefix it with "nbclos_": every
/// character outside the grammar maps to '_'.
[[nodiscard]] std::string prom_name(std::string_view name);

/// Write `snapshot` (as returned by MetricsRegistry::snapshot(), sorted
/// by name) in Prometheus text-exposition format.
void prom_export(std::ostream& out, const std::vector<MetricSample>& snapshot);

/// prom_export of the global registry, as a string (the --prom-out
/// payload).
[[nodiscard]] std::string prom_export_global();

}  // namespace nbclos::obs
