// Blocking client for the dadu_net wire protocol.
//
// One IkClient owns one TCP connection.  Two usage shapes:
//
//   synchronous RPC      — call(request) sends and waits for that
//                          reply (the quickstart / CLI shape);
//   pipelined streaming  — sendRequest() any number of requests, then
//                          waitFor(id)/receiveAny() to collect replies.
//                          Replies can arrive in ANY order (service
//                          workers finish out of order); the client
//                          buffers strays by id so waitFor(id) is safe
//                          under pipelining.
//
// connect() retries with backoff — the standard "server still binding"
// race killer for tests and load generators.  The client is blocking
// by design: callers that want concurrency open more connections, one
// thread each; the server side is the non-blocking half of the system.
// Not thread-safe: one thread per client.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "dadu/net/buffer.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/service/request.hpp"

namespace dadu::net {

/// Request-level retry knobs for callWithRetry().  Retries are
/// at-least-once: a transport failure after the frame left the socket
/// may mean the server solved the request and the reply was lost, so
/// the retried solve runs again.  IK solves are idempotent, which is
/// why this is the default policy and not an option to agonize over.
struct RetryPolicy {
  int max_attempts = 3;          ///< total tries per call (1 = no retry)
  double base_backoff_ms = 10.0; ///< first retry sleep; doubles per retry
  double max_backoff_ms = 500.0; ///< backoff ceiling
  double jitter = 0.5;           ///< fraction of backoff randomized [0,1]
  /// Retries (not first attempts) allowed across the client's lifetime.
  /// A retry storm against a dying server burns this out and turns
  /// every failure terminal instead of amplifying the outage.
  std::uint64_t budget = 1000;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;  ///< jitter RNG seed
};

struct ClientConfig {
  double connect_timeout_ms = 1000.0;  ///< per connect() attempt
  int connect_attempts = 20;           ///< total tries before giving up
  double retry_backoff_ms = 50.0;      ///< sleep between attempts
  double io_timeout_ms = 30000.0;      ///< per send/recv syscall
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::uint32_t spec_id = 0;           ///< stamped into every request
  RetryPolicy retry;                   ///< callWithRetry() behavior
};

/// What callWithRetry() has done so far (cumulative per client).
struct RetryStats {
  std::uint64_t attempts = 0;          ///< every try, including firsts
  std::uint64_t retries = 0;           ///< tries after a retryable failure
  std::uint64_t reconnects = 0;        ///< sockets rebuilt mid-call
  std::uint64_t budget_exhausted = 0;  ///< failures gone terminal on budget
};

/// One reply off the wire: either a response or an error frame.
struct ClientReply {
  MsgType type = MsgType::kResponse;
  WireResponse response;  ///< meaningful iff type == kResponse
  WireError error;        ///< meaningful iff type == kError
  std::uint64_t id() const {
    return type == MsgType::kError ? error.id : response.id;
  }
};

/// Thrown when the server answers a request with a kError frame.
class WireErrorException : public std::runtime_error {
 public:
  explicit WireErrorException(WireError error)
      : std::runtime_error("wire error [" + net::toString(error.code) +
                           "]: " + error.message),
        error_(std::move(error)) {}
  const WireError& error() const { return error_; }

 private:
  WireError error_;
};

class IkClient {
 public:
  IkClient() = default;
  ~IkClient();

  IkClient(const IkClient&) = delete;
  IkClient& operator=(const IkClient&) = delete;
  IkClient(IkClient&& other) noexcept;
  IkClient& operator=(IkClient&& other) noexcept;

  /// Connect (with retries) to host:port.  Throws std::runtime_error
  /// when every attempt fails.
  void connect(const std::string& host, std::uint16_t port,
               ClientConfig config = {});
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Send one request frame; returns the assigned request id.  Never
  /// waits for the reply — pipeline as many as you like.  Stamped with
  /// the connection's spec id (ClientConfig::spec_id / setSpecId).
  std::uint64_t sendRequest(const service::Request& request);

  /// Same, stamped with an explicit robot spec — the per-call shape for
  /// talking to a multi-spec server over one connection.
  std::uint64_t sendRequest(const service::Request& request,
                            std::uint32_t spec_id);

  /// Change the spec id stamped into subsequent requests (the
  /// connection-level default; per-call overloads win for one frame).
  /// A multi-spec server routes per request, so flipping specs
  /// mid-connection is legal and cheap.
  void setSpecId(std::uint32_t spec_id) { config_.spec_id = spec_id; }
  std::uint32_t specId() const { return config_.spec_id; }

  /// Next reply off the wire, whatever request it answers.  Throws on
  /// EOF, timeout, or protocol violation.
  ClientReply receiveAny();

  /// Reply to request `id`, buffering any other replies that arrive
  /// first (so interleaved pipelined replies are not lost).
  ClientReply waitFor(std::uint64_t id);

  /// Synchronous RPC: sendRequest + waitFor, decoded back into the
  /// service's Response type.  Throws WireErrorException if the server
  /// answered with an error frame.
  service::Response call(const service::Request& request);
  service::Response call(const service::Request& request,
                         std::uint32_t spec_id);

  /// call() wrapped in the config's RetryPolicy: retries transport
  /// failures (EOF, timeout, reset — reconnecting first) and *retryable*
  /// wire errors (see isRetryable); terminal wire errors rethrow
  /// immediately.  Exponential backoff with deterministic jitter;
  /// stops early when the retry budget is spent.  At-least-once — see
  /// RetryPolicy.
  service::Response callWithRetry(const service::Request& request);
  service::Response callWithRetry(const service::Request& request,
                                  std::uint32_t spec_id);

  const ClientConfig& config() const { return config_; }
  const RetryStats& retryStats() const { return retry_stats_; }

 private:
  void sendAll(const std::uint8_t* data, std::size_t len);
  void dial();  ///< the connect-attempt loop (fills fd_ or throws)
  void reconnect();
  bool scheduleRetry(int attempt);  ///< false = go terminal; true = slept

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  ClientConfig config_;
  ByteBuffer in_;
  std::unordered_map<std::uint64_t, ClientReply> strays_;

  // Reconnect target (remembered by connect()) and retry machinery.
  std::string host_;
  std::uint16_t port_ = 0;
  std::uint64_t retry_rng_ = 0;       ///< splitmix64 state for jitter
  std::uint64_t retry_budget_ = 0;    ///< retries left (from policy)
  RetryStats retry_stats_;
};

}  // namespace dadu::net
