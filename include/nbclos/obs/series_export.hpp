/// \file series_export.hpp
/// \brief JSON and CSV writers for merged FlightRecorder series.
///
/// Both formats carry the same information (schema "nbclos-timeseries-v1",
/// documented in EXPERIMENTS.md and checked by tools/validate_timeseries.py):
///
///   JSON: { "schema": "nbclos-timeseries-v1", "cadence_cycles": C,
///           "ring_capacity": R, "shards": S,
///           "series": [ { "name", "agg" ("sum"|"max"),
///                         "scope" ("invariant"|"shard_topology"),
///                         "stride_cycles", "points": [[t, v], ...] } ] }
///
///   CSV:  one header line `series,agg,scope,stride_cycles,t,v`, then one
///         row per point, series in registration order, points in time
///         order.  The recorder geometry travels in a leading comment
///         line `# nbclos-timeseries-v1 cadence=C ring=R shards=S`.
///
/// The writers work identically under -DNBCLOS_OBS=OFF (they receive an
/// empty series list), so --timeseries-out always produces a valid file.
#pragma once

#include <iosfwd>
#include <vector>

#include "nbclos/obs/flight_recorder.hpp"

namespace nbclos::obs {

void write_timeseries_json(std::ostream& out,
                           const std::vector<MergedSeries>& series,
                           const FlightRecorder::Config& config);

void write_timeseries_csv(std::ostream& out,
                          const std::vector<MergedSeries>& series,
                          const FlightRecorder::Config& config);

}  // namespace nbclos::obs
