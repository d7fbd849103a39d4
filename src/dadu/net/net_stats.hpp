// Wire-level serving statistics (snapshot type).
//
// IkServer and its FrameDispatcher keep their live counters in the
// same lock-free machinery as the service layer (obs::ShardedCounters
// + obs::LatencyHistogram); IkServer::stats() aggregates them into
// this snapshot.  Connection counters are per-state — every accepted
// connection ends in exactly one of the closed_* buckets — so
// `accepted - sum(closed_*)` is always the live connection count,
// cross-checkable against the `active` gauge.
#pragma once

#include <cstdint>

#include "dadu/obs/export.hpp"
#include "dadu/obs/histogram.hpp"

namespace dadu::net {

/// The frame dispatcher's counters (frame_dispatcher.hpp): the same
/// set for the TCP server and the simulator's server.
struct DispatchStats {
  std::uint64_t frames_received = 0;   ///< well-formed frames parsed
  /// Grammar violations, wrong versions and non-request frames.
  std::uint64_t malformed_frames = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t errors_sent = 0;          ///< kError frames sent
  std::uint64_t requests_dispatched = 0;  ///< handed to a serving lane
  std::uint64_t requests_completed = 0;   ///< completions delivered back
  std::uint64_t shed_draining = 0;        ///< refused: server draining
  /// Requests answered kUnknownSpec: the wire spec_id named a robot
  /// absent from the server's registry.  Only that request errors; the
  /// connection survives.  A climbing rate means clients are stamping
  /// the wrong spec or pointing at the wrong shard.
  std::uint64_t spec_mismatch = 0;
  /// Requests answered kBadRequest (non-finite target or negative
  /// deadline), refused before dispatch.
  std::uint64_t bad_requests = 0;
  /// Completions answered with a kInternal error frame (solver threw).
  std::uint64_t internal_errors = 0;
  /// Completions whose connection was gone: nothing was written.
  /// requests_completed == responses_sent + internal_errors +
  /// undeliverable.
  std::uint64_t undeliverable = 0;
  /// Received-frame payload sizes (bytes).
  obs::HistogramSnapshot frame_bytes_hist;
};

struct NetStats : DispatchStats {
  // Connection lifecycle (per-state counters).
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;       ///< gauge: open right now
  std::uint64_t connections_rejected_limit = 0;  ///< over max_connections
  std::uint64_t closed_by_peer = 0;      ///< orderly remote close
  std::uint64_t closed_protocol = 0;     ///< malformed frame / bad version
  std::uint64_t closed_idle = 0;         ///< idle-timeout sweep
  std::uint64_t closed_shutdown = 0;     ///< server drain/stop
  std::uint64_t closed_error = 0;        ///< socket error (EPOLLERR, EPIPE...)

  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t read_pauses = 0;   ///< times a slow reader paused reads
  /// Solves that outlived the drain timeout and completed into a dead
  /// sink: the reply had nowhere to go.  Nonzero after a stop() means
  /// drain_timeout_ms is shorter than the worst-case solve.
  std::uint64_t orphaned_completions = 0;

  /// Wire-level end-to-end latency (frame parsed -> response queued for
  /// write, ms).
  obs::HistogramSnapshot wire_e2e_hist;
};

/// Flatten into the exporter model under the `dadu_net_` prefix for
/// obs::renderPrometheus / renderJson / renderText.
obs::MetricsSnapshot toMetricsSnapshot(const NetStats& stats);

/// Concatenate two exporter snapshots (e.g. dadu_service_* ++
/// dadu_net_*) into one dump.
obs::MetricsSnapshot merge(obs::MetricsSnapshot a,
                           const obs::MetricsSnapshot& b);

}  // namespace dadu::net
