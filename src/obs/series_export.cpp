#include "nbclos/obs/series_export.hpp"

#include <ostream>

#include "nbclos/util/json.hpp"

namespace nbclos::obs {

namespace {

const char* agg_name(SeriesAgg agg) {
  return agg == SeriesAgg::kSum ? "sum" : "max";
}

const char* scope_name(SeriesScope scope) {
  return scope == SeriesScope::kInvariant ? "invariant" : "shard_topology";
}

}  // namespace

void write_timeseries_json(std::ostream& out,
                           const std::vector<MergedSeries>& series,
                           const FlightRecorder::Config& config) {
  JsonWriter json(out);
  json.begin_object();
  json.member("schema", "nbclos-timeseries-v1");
  json.member("cadence_cycles", config.cadence);
  json.member("ring_capacity", config.ring_capacity);
  json.member("shards", config.shards);
  json.key("series").begin_array();
  for (const auto& s : series) {
    json.begin_object();
    json.member("name", s.name);
    json.member("agg", agg_name(s.agg));
    json.member("scope", scope_name(s.scope));
    json.member("stride_cycles", s.stride_cycles);
    json.key("points").begin_array();
    for (const auto& point : s.points) {
      json.begin_array();
      json.value(point.t);
      json.value(point.v);
      json.end_array();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << "\n";
}

void write_timeseries_csv(std::ostream& out,
                          const std::vector<MergedSeries>& series,
                          const FlightRecorder::Config& config) {
  out << "# nbclos-timeseries-v1 cadence=" << config.cadence
      << " ring=" << config.ring_capacity << " shards=" << config.shards
      << "\n";
  out << "series,agg,scope,stride_cycles,t,v\n";
  for (const auto& s : series) {
    for (const auto& point : s.points) {
      out << s.name << "," << agg_name(s.agg) << "," << scope_name(s.scope)
          << "," << s.stride_cycles << "," << point.t << "," << point.v
          << "\n";
    }
  }
}

}  // namespace nbclos::obs
