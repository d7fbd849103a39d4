// Metric exporters: one snapshot model, three renderings.
//
// MetricsSnapshot is the neutral wire between a metrics producer (the
// serving layer, a solver harness, a bench) and whatever consumes the
// numbers.  Renderers are pure string producers so they slot anywhere:
//
//   renderPrometheus — Prometheus text exposition format (counters as
//     `*_total`, histograms as cumulative `_bucket{le=...}` series with
//     `_sum`/`_count`), ready for a scrape endpoint or textfile
//     collector;
//   renderJson — a flat array of {"metric","value","unit"} records,
//     easy to diff and to load from scripts;
//   renderText — human-readable table with ASCII bucket bars for
//     terminal inspection (the CLI `stats` command).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dadu/obs/histogram.hpp"

namespace dadu::obs {

struct CounterSample {
  std::string name;  ///< e.g. "dadu_service_submitted"
  std::uint64_t value = 0;
};

/// Derived scalar (rates, ratios, means) that is not a monotone count.
struct GaugeSample {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< "ratio", "ms", "iters", ... (JSON/text only)
};

struct HistogramSample {
  std::string name;  ///< e.g. "dadu_service_solve_ms"
  HistogramSnapshot hist;
  std::string unit = "ms";
};

/// Build/runtime facts with a string value rather than a number — e.g.
/// the active speculation backend.  Prometheus renders them in the
/// `name{value="..."} 1` info-metric idiom; JSON and text carry the
/// string directly.
struct InfoSample {
  std::string name;  ///< e.g. "dadu_spec_backend"
  std::string value;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<InfoSample> infos;
};

/// Prometheus text exposition format.  Counter names gain a `_total`
/// suffix per convention; histogram buckets render cumulatively with a
/// final `+Inf` bound.  Names are sanitized to [a-zA-Z0-9_:].
std::string renderPrometheus(const MetricsSnapshot& snapshot);

/// JSON array of {"metric", "value", "unit"} records.  Histograms
/// flatten to name_{count,mean,p50,p90,p99,max} records.
std::string renderJson(const MetricsSnapshot& snapshot);

/// Human-readable rendering: counters and gauges as aligned rows,
/// histograms as percentile summaries plus ASCII bucket bars (empty
/// buckets outside the populated range are elided).
std::string renderText(const MetricsSnapshot& snapshot);

}  // namespace dadu::obs
