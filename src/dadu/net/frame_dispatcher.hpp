// FrameDispatcher: the transport-agnostic half of a dadu_net server.
//
// IkServer (epoll) and the simulator's SimServer both feed the bytes a
// connection delivers into one dispatcher and act on the verdict it
// returns, so the simulator runs the production dispatch code by
// construction.  The dispatcher owns decode and the per-frame verdict,
// the drain shed, SpecRouter routing, content validation, submit, reply
// and error encoding (a solver exception becomes a kInternal error
// frame), and the dispatch counters (DispatchStats).  The verdict table
// is in ARCHITECTURE.md ("Frame dispatcher").
//
// The transport keeps sockets or simulated pipes, read/write
// scheduling, backpressure, idle sweeps and drain timing, and decides
// how a completion travels from a service worker back to its thread.
// onFrames() and deliver() run on that one thread; stats() is safe
// from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dadu/net/buffer.hpp"
#include "dadu/net/net_stats.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/obs/histogram.hpp"
#include "dadu/obs/sharded_counters.hpp"
#include "dadu/service/ik_service.hpp"

namespace dadu::registry {
class SpecRouter;
}

namespace dadu::net {

/// One connection as the dispatcher sees it; each transport implements
/// it over its own connection state.  Never owned through this type.
class FrameConnection {
 public:
  /// Queue one encoded frame for the peer.  False = the connection is
  /// gone and the frame was dropped.
  virtual bool write(const std::uint8_t* data, std::size_t len) = 0;
  /// The completion to submit dispatched request `request_id` with.  It
  /// runs on whichever thread finishes the request; the transport
  /// carries the Response back to its own thread and hands it to
  /// FrameDispatcher::deliver.
  virtual service::IkService::Completion completion(
      std::uint64_t request_id) = 0;
};

class FrameDispatcher {
 public:
  /// What the transport must do with the connection after onFrames().
  enum class Verdict {
    kKeepOpen,
    kClose,            ///< protocol violation: close now
    kCloseAfterFlush,  ///< stop reading, flush the error frame, close
  };

  /// `router` must outlive the dispatcher.  `max_frame_bytes` caps a
  /// frame's declared payload.
  FrameDispatcher(registry::SpecRouter& router, std::size_t max_frame_bytes);

  /// Decode and act on every complete frame buffered in `in`, consuming
  /// what it used.  With `draining` set, requests are refused with
  /// kShuttingDown instead of dispatched.
  Verdict onFrames(ByteBuffer& in, FrameConnection& conn, bool draining);

  /// Answer dispatched request `request_id` on `conn` (null = the
  /// connection is gone; counted undeliverable).
  void deliver(FrameConnection* conn, std::uint64_t request_id,
               const service::Response& response);

  DispatchStats stats() const;

 private:
  enum Counter : std::size_t {
    kFramesReceived,
    kMalformedFrames,
    kResponsesSent,
    kErrorsSent,
    kDispatched,
    kCompleted,
    kShedDraining,
    kSpecMismatch,
    kBadRequests,
    kInternalErrors,
    kUndeliverable,
    kCounterCount,
  };

  void dispatch(const WireRequest& request, FrameConnection& conn,
                bool draining);
  bool sendError(FrameConnection& conn, std::uint64_t request_id,
                 WireErrorCode code, std::string message);

  registry::SpecRouter& router_;
  const std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> scratch_;  ///< encode buffer
  obs::ShardedCounters counters_;  ///< one shard: one writer thread
  obs::LatencyHistogram frame_hist_;
};

}  // namespace dadu::net
