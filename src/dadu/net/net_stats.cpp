#include "dadu/net/net_stats.hpp"

#include <utility>

namespace dadu::net {

obs::MetricsSnapshot toMetricsSnapshot(const NetStats& stats) {
  obs::MetricsSnapshot snap;
  const auto counter = [&](const char* name, std::uint64_t value) {
    snap.counters.push_back({std::string("dadu_net_") + name, value});
  };
  counter("connections_accepted", stats.connections_accepted);
  counter("connections_rejected_limit", stats.connections_rejected_limit);
  counter("connections_closed_peer", stats.closed_by_peer);
  counter("connections_closed_protocol", stats.closed_protocol);
  counter("connections_closed_idle", stats.closed_idle);
  counter("connections_closed_shutdown", stats.closed_shutdown);
  counter("connections_closed_error", stats.closed_error);
  counter("frames_received", stats.frames_received);
  counter("malformed_frames", stats.malformed_frames);
  counter("responses_sent", stats.responses_sent);
  counter("errors_sent", stats.errors_sent);
  counter("bytes_read", stats.bytes_read);
  counter("bytes_written", stats.bytes_written);
  counter("requests_dispatched", stats.requests_dispatched);
  counter("requests_completed", stats.requests_completed);
  counter("shed_draining", stats.shed_draining);
  counter("read_pauses", stats.read_pauses);
  counter("spec_mismatch", stats.spec_mismatch);
  counter("bad_requests", stats.bad_requests);
  counter("internal_errors", stats.internal_errors);
  counter("undeliverable_completions", stats.undeliverable);
  counter("orphaned_completions", stats.orphaned_completions);

  snap.gauges.push_back(
      {"dadu_net_connections_active",
       static_cast<double>(stats.connections_active), "conns"});

  snap.histograms.push_back(
      {"dadu_net_frame_bytes", stats.frame_bytes_hist, "bytes"});
  snap.histograms.push_back(
      {"dadu_net_wire_e2e_ms", stats.wire_e2e_hist, "ms"});
  return snap;
}

obs::MetricsSnapshot merge(obs::MetricsSnapshot a,
                           const obs::MetricsSnapshot& b) {
  a.counters.insert(a.counters.end(), b.counters.begin(), b.counters.end());
  a.gauges.insert(a.gauges.end(), b.gauges.begin(), b.gauges.end());
  a.histograms.insert(a.histograms.end(), b.histograms.begin(),
                      b.histograms.end());
  a.infos.insert(a.infos.end(), b.infos.begin(), b.infos.end());
  return a;
}

}  // namespace dadu::net
