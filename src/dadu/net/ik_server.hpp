// Non-blocking TCP front-end for a SpecRouter: the ingress path.
//
// One epoll EventLoop on one thread owns every socket.  The request
// path never blocks that thread:
//
//   readable -> the FrameDispatcher decodes frames off the connection's
//               in-buffer, routes each request by spec id and submits
//               it to that spec's IkService lane     [callback API]
//   worker   -> completion pushes {conn, response} onto the
//               CompletionSink and pokes the loop's eventfd
//   loop     -> drains the sink, hands each response to the dispatcher
//               to encode into the connection's out-buffer, lets
//               EPOLLOUT flush them.
//
// The frame verdicts (malformed or oversized frame => close that
// connection only, never buffering an oversized one; wrong version =>
// error frame, then close; unknown spec, bad content or draining =>
// error frame for that request only) live in the dispatcher
// (frame_dispatcher.hpp), shared with the simulator.  The server keeps
// the socket-level decisions, each load-bearing:
//   - slow reader      => when a connection's out-buffer passes
//     write_buffer_limit, stop reading its requests (clear EPOLLIN)
//     until the buffer drains below half — responses only come from
//     reads, so per-connection memory is bounded;
//   - max_connections  => accept() then immediately close, counted;
//   - idle timeout     => tick sweep closes quiet connections with no
//     in-flight work;
//   - shutdown drain   => listener closes first, reads stop, every
//     dispatched request completes and flushes (bounded by
//     drain_timeout_ms), then connections close and the loop exits.
//
// Completions can outlive the server only until stop() returns: drain
// waits for in-flight work, and the CompletionSink is shared_ptr-owned
// by every pending callback, so a late completion after a drain
// timeout writes into an orphaned sink instead of freed memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "dadu/net/buffer.hpp"
#include "dadu/net/event_loop.hpp"
#include "dadu/net/frame_dispatcher.hpp"
#include "dadu/net/net_stats.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/obs/histogram.hpp"
#include "dadu/obs/sharded_counters.hpp"
#include "dadu/service/ik_service.hpp"

namespace dadu::registry {
class SpecRouter;
}

namespace dadu::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see IkServer::port()
  int backlog = 128;
  std::size_t max_connections = 256;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Out-buffer bytes above which a connection's reads pause (slow
  /// reader backpressure); reads resume below half of this.
  std::size_t write_buffer_limit = 4u << 20;
  std::size_t read_chunk_bytes = 64 * 1024;
  double idle_timeout_ms = 0.0;  ///< close quiet connections (0 = never)
  double tick_interval_ms = 50.0;
  /// stop() waits this long for in-flight solves to complete and
  /// responses to flush before closing connections anyway.
  double drain_timeout_ms = 5000.0;
  /// Bucket ladder for the wire-latency histogram.
  obs::LatencyHistogram::Config latency;
  std::size_t stat_shards = 0;  ///< 0 = hardware concurrency
  /// Time source for idle sweeps, drain deadlines and wire-latency
  /// timestamps (null = real steady clock).  Sockets and epoll always
  /// run in real time; the clock seam only moves the *timestamps* so
  /// tests can pin idle/drain arithmetic.
  const platform::Clock* clock = nullptr;
};

class IkServer {
 public:
  /// Requests route by wire spec_id through `router` (one serving lane
  /// per registered robot; a one-spec router is a single-robot server);
  /// ids the router does not know get a kUnknownSpec error.  Does not
  /// start anything; `router` must outlive the server.
  IkServer(registry::SpecRouter& router, ServerConfig config = {});
  ~IkServer();  ///< stop()

  IkServer(const IkServer&) = delete;
  IkServer& operator=(const IkServer&) = delete;

  /// Bind, listen, and spawn the loop thread.  Throws
  /// std::runtime_error on socket/bind/listen failure.
  void start();

  /// Graceful drain (see file comment), then join the loop thread.
  /// Idempotent; safe from any one thread except the loop itself.
  void stop();

  bool running() const { return started_.load() && !stopped_.load(); }
  /// The bound port (resolves config.port == 0 to the real one).
  /// Valid after start().
  std::uint16_t port() const { return port_; }
  const std::string& address() const { return config_.bind_address; }

  NetStats stats() const;
  obs::MetricsSnapshot metrics() const { return toMetricsSnapshot(stats()); }
  std::size_t activeConnections() const { return active_conns_.load(); }
  const ServerConfig& config() const { return config_; }

 private:
  /// Logical counter ids for the sharded stat slots.
  enum Counter : std::size_t {
    kAccepted,
    kRejectedLimit,
    kClosedPeer,
    kClosedProtocol,
    kClosedIdle,
    kClosedShutdown,
    kClosedError,
    kBytesRead,
    kBytesWritten,
    kReadPauses,
    kCounterCount,
  };

  /// Why a connection is being closed (selects the stat bucket).
  enum class CloseReason {
    kPeer,
    kProtocol,
    kIdle,
    kShutdown,
    kError,
  };

  /// One client connection, and its face toward the dispatcher (loop
  /// thread only).
  struct Connection final : FrameConnection {
    IkServer* server = nullptr;
    std::uint64_t id = 0;
    int fd = -1;
    ByteBuffer in;
    ByteBuffer out;
    std::size_t in_flight = 0;   ///< dispatched, completion not yet seen
    bool reads_paused = false;   ///< EPOLLIN cleared (backpressure/drain)
    bool peer_eof = false;       ///< remote shut down its write side
    bool close_after_flush = false;
    std::chrono::steady_clock::time_point last_activity{};

    bool write(const std::uint8_t* data, std::size_t len) override;
    service::IkService::Completion completion(
        std::uint64_t request_id) override;
  };

  /// One finished request travelling worker -> loop.
  struct PendingCompletion {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    std::chrono::steady_clock::time_point dispatched{};
    service::Response response;
  };

  /// The worker->loop hand-off: a locked vector plus the eventfd that
  /// pokes the loop.  shared_ptr-held by every in-flight completion
  /// callback so it outlives the server on a drain timeout.  A
  /// completion arriving after the loop died (a solve that outlived
  /// drain_timeout_ms) is *orphaned*: counted, never delivered — the
  /// silent-drop the dadu_net_orphaned_completions counter replaces.
  struct CompletionSink {
    std::mutex mutex;
    std::vector<PendingCompletion> items;
    EventLoop* loop = nullptr;  ///< nulled under mutex when loop dies
    std::uint64_t orphaned = 0;  ///< completions into a dead sink

    void push(PendingCompletion item);
  };

  // Loop-thread-only internals.
  void onAcceptable();
  void onConnectionEvent(std::uint64_t conn_id, std::uint32_t events);
  void onReadable(Connection& conn);
  void onWritable(Connection& conn);
  /// Run the dispatcher over the buffered bytes and act on its verdict
  /// (may close and erase `conn`).
  void dispatchFrames(Connection& conn);
  void drainCompletions();
  void afterEnqueue(Connection& conn);
  void updateReadInterest(Connection& conn);
  void closeConnection(std::uint64_t conn_id, CloseReason reason);
  void onTick();
  void beginDrain();
  bool drainComplete() const;
  std::uint32_t interestOf(const Connection& conn) const;

  ServerConfig config_;
  FrameDispatcher dispatcher_;
  EventLoop loop_;
  std::thread thread_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, Connection> conns_;
  std::vector<std::uint8_t> read_chunk_;  ///< loop-thread scratch
  std::shared_ptr<CompletionSink> sink_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> active_conns_{0};
  bool drain_deadline_set_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};
  std::mutex stop_mutex_;

  obs::ShardedCounters counters_;
  obs::LatencyHistogram e2e_hist_;
};

}  // namespace dadu::net
