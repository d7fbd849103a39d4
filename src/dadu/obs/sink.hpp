// ObsSink: the pluggable back end of the observability layer.
//
// The serving layer records its own counters and histograms
// unconditionally (cheap, lock-free, always on); a sink is the *extra*
// channel for callers who want per-event visibility — tracing spans
// into a profiler, counters into an external metrics pipeline, or a
// RecordingSink in tests.  The default is no sink at all: every emit
// site is behind a null-pointer check, so an unconfigured service pays
// a predicted-not-taken branch and nothing else.
//
// Sink implementations must be thread-safe: workers emit concurrently.
// Emits happen on the serving hot path, so sinks should be cheap or
// hand off quickly; a slow sink slows solves.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dadu::obs {

/// One completed trace span: a named scope and its wall duration.
struct SpanRecord {
  std::string name;
  double elapsed_ms = 0.0;
};

/// One named counter event.
struct CountRecord {
  std::string name;
  std::uint64_t delta = 0;
};

/// Callback interface.  Default implementations are no-ops so sinks
/// override only what they consume.
class ObsSink {
 public:
  virtual ~ObsSink() = default;
  /// A scope (queue wait, solve, ...) finished after `elapsed_ms`.
  virtual void onSpan(std::string_view name, double elapsed_ms) {
    (void)name;
    (void)elapsed_ms;
  }
  /// A named counter advanced by `delta` (solver iterations, FK
  /// evaluations, speculation load, cache traffic, ...).
  virtual void onCount(std::string_view name, std::uint64_t delta) {
    (void)name;
    (void)delta;
  }
};

/// Test/debug sink: retains every event under a mutex.  Not intended
/// for production traffic (it grows unboundedly and serializes
/// writers) — it exists so tests can assert exactly what was emitted.
class RecordingSink final : public ObsSink {
 public:
  void onSpan(std::string_view name, double elapsed_ms) override;
  void onCount(std::string_view name, std::uint64_t delta) override;

  std::vector<SpanRecord> spans() const;
  std::vector<CountRecord> counts() const;
  /// Number of spans recorded under `name`.
  std::size_t spanCount(std::string_view name) const;
  /// Sum of deltas recorded under `name`.
  std::uint64_t countTotal(std::string_view name) const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<CountRecord> counts_;
};

}  // namespace dadu::obs
