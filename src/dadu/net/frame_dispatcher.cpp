#include "dadu/net/frame_dispatcher.hpp"

#include <cmath>
#include <utility>

#include "dadu/registry/spec_router.hpp"

namespace dadu::net {
namespace {

/// Frame payloads are bytes, not milliseconds: give their histogram a
/// ladder that spans tiny control frames to the max frame cap.
obs::LatencyHistogram::Config frameBytesLadder() {
  obs::LatencyHistogram::Config config;
  config.min_value = 16.0;
  config.max_value = 1e8;
  config.buckets_per_decade = 4;
  return config;
}

}  // namespace

FrameDispatcher::FrameDispatcher(registry::SpecRouter& router,
                                 std::size_t max_frame_bytes)
    : router_(router),
      max_frame_bytes_(max_frame_bytes),
      counters_(kCounterCount, 1),
      frame_hist_(frameBytesLadder()) {}

FrameDispatcher::Verdict FrameDispatcher::onFrames(ByteBuffer& in,
                                                   FrameConnection& conn,
                                                   bool draining) {
  while (!in.empty()) {
    DecodedFrame frame;
    switch (decodeFrame(in.data(), in.size(), max_frame_bytes_, frame)) {
      case DecodeStatus::kNeedMore:
        return Verdict::kKeepOpen;
      case DecodeStatus::kMalformed:
        counters_.add(kMalformedFrames);
        return Verdict::kClose;
      case DecodeStatus::kUnsupportedVersion:
        counters_.add(kMalformedFrames);
        sendError(conn, frame.request_id, WireErrorCode::kUnsupportedVersion,
                  "server speaks wire version " +
                      std::to_string(int{kWireVersion}));
        in.clear();  // nothing further is trustworthy
        return Verdict::kCloseAfterFlush;
      case DecodeStatus::kOk:
        break;
    }
    in.consume(frame.consumed);
    counters_.add(kFramesReceived);
    frame_hist_.record(static_cast<double>(frame.consumed - kLengthBytes));
    if (frame.type != MsgType::kRequest) {
      // Clients must not send responses/errors at a server.
      counters_.add(kMalformedFrames);
      return Verdict::kClose;
    }
    dispatch(frame.request, conn, draining);
  }
  return Verdict::kKeepOpen;
}

void FrameDispatcher::dispatch(const WireRequest& request,
                               FrameConnection& conn, bool draining) {
  if (draining) {
    counters_.add(kShedDraining);
    sendError(conn, request.id, WireErrorCode::kShuttingDown,
              "server is draining");
    return;
  }
  service::IkService* lane = router_.serviceFor(request.spec_id);
  if (!lane) {
    counters_.add(kSpecMismatch);
    sendError(conn, request.id, WireErrorCode::kUnknownSpec,
              "no robot registered for spec " +
                  std::to_string(request.spec_id));
    return;
  }
  // Content validation before burning a dispatch: a non-finite target
  // or negative deadline would only make the solver throw later — the
  // terminal kBadRequest verdict is cheaper for everyone up front.
  if (!std::isfinite(request.target[0]) || !std::isfinite(request.target[1]) ||
      !std::isfinite(request.target[2]) ||
      !std::isfinite(request.deadline_ms) || request.deadline_ms < 0.0) {
    counters_.add(kBadRequests);
    sendError(conn, request.id, WireErrorCode::kBadRequest,
              "non-finite target or bad deadline");
    return;
  }
  counters_.add(kDispatched);
  lane->submit(toServiceRequest(request), conn.completion(request.id));
}

void FrameDispatcher::deliver(FrameConnection* conn, std::uint64_t request_id,
                              const service::Response& response) {
  counters_.add(kCompleted);
  bool sent = false;
  if (conn && response.status == service::ResponseStatus::kRejected &&
      response.reject_reason == service::RejectReason::kInternalError) {
    sent = sendError(*conn, request_id, WireErrorCode::kInternal,
                     response.message);
    if (sent) counters_.add(kInternalErrors);
  } else if (conn) {
    scratch_.clear();
    encodeResponse(toWireResponse(request_id, response), scratch_);
    sent = conn->write(scratch_.data(), scratch_.size());
    if (sent) counters_.add(kResponsesSent);
  }
  if (!sent) counters_.add(kUndeliverable);
}

bool FrameDispatcher::sendError(FrameConnection& conn,
                                std::uint64_t request_id, WireErrorCode code,
                                std::string message) {
  WireError error;
  error.id = request_id;
  error.code = code;
  error.message = std::move(message);
  scratch_.clear();
  encodeError(error, scratch_);
  if (!conn.write(scratch_.data(), scratch_.size())) return false;
  counters_.add(kErrorsSent);
  return true;
}

DispatchStats FrameDispatcher::stats() const {
  const std::vector<std::uint64_t> totals = counters_.snapshot();
  DispatchStats snapshot;
  snapshot.frames_received = totals[kFramesReceived];
  snapshot.malformed_frames = totals[kMalformedFrames];
  snapshot.responses_sent = totals[kResponsesSent];
  snapshot.errors_sent = totals[kErrorsSent];
  snapshot.requests_dispatched = totals[kDispatched];
  snapshot.requests_completed = totals[kCompleted];
  snapshot.shed_draining = totals[kShedDraining];
  snapshot.spec_mismatch = totals[kSpecMismatch];
  snapshot.bad_requests = totals[kBadRequests];
  snapshot.internal_errors = totals[kInternalErrors];
  snapshot.undeliverable = totals[kUndeliverable];
  snapshot.frame_bytes_hist = frame_hist_.snapshot();
  return snapshot;
}

}  // namespace dadu::net
