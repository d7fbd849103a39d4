#include "dadu/net/ik_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "dadu/fault/fault.hpp"

namespace dadu::net {
namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

[[noreturn]] void throwErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// Every write path here and in IkClient uses MSG_NOSIGNAL, but any
/// future write that forgets it would kill the whole process with
/// SIGPIPE on a dead peer — ignore it once, process-wide, at the first
/// server start (the standard belt-and-braces for socket daemons).
void ignoreSigpipeOnce() {
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

}  // namespace

void IkServer::CompletionSink::push(PendingCompletion item) {
  std::lock_guard<std::mutex> lock(mutex);
  if (!loop) {
    // The loop is gone (drain timed out and stop() returned before
    // this solve finished): the reply has nowhere to go.  Count it —
    // an orphaned completion is an operator signal, not a silent drop.
    ++orphaned;
    return;
  }
  items.push_back(std::move(item));
  // Poke under the lock: stop() nulls `loop` under the same lock after
  // joining the loop thread, so the EventLoop we poke is always alive.
  loop->wakeup();
}

bool IkServer::Connection::write(const std::uint8_t* data, std::size_t len) {
  out.append(data, len);
  server->afterEnqueue(*this);
  return true;
}

service::IkService::Completion IkServer::Connection::completion(
    std::uint64_t request_id) {
  in_flight++;
  PendingCompletion pending;
  pending.conn_id = id;
  pending.request_id = request_id;
  pending.dispatched = platform::clockNow(server->config_.clock);
  // The callback runs on a service worker (or inline on admission
  // reject); it only touches the shared sink, never loop state.
  return [sink = server->sink_, pending = std::move(pending)](
             service::Response response) mutable {
    pending.response = std::move(response);
    sink->push(std::move(pending));
  };
}

IkServer::IkServer(registry::SpecRouter& router, ServerConfig config)
    : config_(std::move(config)),
      dispatcher_(router, config_.max_frame_bytes),
      loop_(config_.clock),
      sink_(std::make_shared<CompletionSink>()),
      counters_(kCounterCount, config_.stat_shards),
      e2e_hist_(config_.latency) {
  sink_->loop = &loop_;
}

IkServer::~IkServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void IkServer::start() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (started_.load()) throw std::runtime_error("IkServer: already started");
  ignoreSigpipeOnce();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throwErrno("socket");
  const int on = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("IkServer: bad bind address '" +
                             config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throwErrno("bind");
  }
  if (::listen(listen_fd_, config_.backlog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throwErrno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  loop_.add(listen_fd_, EPOLLIN, [this](std::uint32_t) { onAcceptable(); });
  loop_.setWakeupHandler([this] {
    drainCompletions();
    if (draining_.load(std::memory_order_acquire)) beginDrain();
  });
  loop_.setTick(config_.tick_interval_ms, [this] { onTick(); });

  started_.store(true);
  thread_ = std::thread([this] { loop_.run(); });
}

void IkServer::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (!started_.load() || stopped_.load()) return;
  draining_.store(true, std::memory_order_release);
  loop_.wakeup();
  if (thread_.joinable()) thread_.join();
  {
    // From here no loop thread exists; late completions (drain timed
    // out) must not poke a dead loop.  Anything still parked in the
    // sink was pushed after the loop's last drain — those replies are
    // orphaned too.
    std::lock_guard<std::mutex> sink_lock(sink_->mutex);
    sink_->loop = nullptr;
    sink_->orphaned += sink_->items.size();
    sink_->items.clear();
  }
  stopped_.store(true, std::memory_order_release);
}

// ------------------------------------------------------------- accept

void IkServer::onAcceptable() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept errors (ECONNABORTED, EMFILE): skip
    }
    if (draining_.load(std::memory_order_acquire) ||
        conns_.size() >= config_.max_connections) {
      counters_.add(kRejectedLimit);
      ::close(fd);
      continue;
    }
    const int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on);

    const std::uint64_t conn_id = next_conn_id_++;
    Connection conn;
    conn.server = this;
    conn.id = conn_id;
    conn.fd = fd;
    conn.last_activity = platform::clockNow(config_.clock);
    conns_.emplace(conn_id, std::move(conn));
    loop_.add(fd, EPOLLIN, [this, conn_id](std::uint32_t events) {
      onConnectionEvent(conn_id, events);
    });
    counters_.add(kAccepted);
    active_conns_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --------------------------------------------------------- connection

std::uint32_t IkServer::interestOf(const Connection& conn) const {
  std::uint32_t events = 0;
  if (!conn.reads_paused && !conn.peer_eof && !conn.close_after_flush &&
      !draining_.load(std::memory_order_acquire))
    events |= EPOLLIN;
  if (!conn.out.empty()) events |= EPOLLOUT;
  return events;
}

void IkServer::updateReadInterest(Connection& conn) {
  if (loop_.watching(conn.fd)) loop_.modify(conn.fd, interestOf(conn));
}

void IkServer::onConnectionEvent(std::uint64_t conn_id, std::uint32_t events) {
  {
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    if (events & (EPOLLERR | EPOLLHUP)) {
      closeConnection(conn_id, CloseReason::kError);
      return;
    }
    if (events & EPOLLIN) onReadable(it->second);
  }
  // onReadable may have closed (and erased) the connection: re-find.
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  if (events & EPOLLOUT) onWritable(it->second);
}

void IkServer::onReadable(Connection& conn) {
  read_chunk_.resize(config_.read_chunk_bytes);
  bool saw_eof = false;
  for (;;) {
    std::size_t want = read_chunk_.size();
    fault::Decision injected;
    if (fault::FaultInjector::armed()) {
      injected = fault::decide("net.server.read");
      switch (injected.action) {
        case fault::Action::kDrop:  // peer vanishes mid-stream
          closeConnection(conn.id, CloseReason::kError);
          return;
        case fault::Action::kEintr:  // as if recv() returned EINTR
          goto done_reading;
        case fault::Action::kTruncate:  // short read
          want = std::min(want, std::max<std::size_t>(injected.max_bytes, 1));
          break;
        case fault::Action::kDelay:  // stall the whole loop
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              injected.delay_ms));
          break;
        default:
          break;
      }
    }
    {
      const ssize_t n = ::recv(conn.fd, read_chunk_.data(), want, 0);
      if (n > 0) {
        if (injected.action == fault::Action::kCorrupt)
          fault::corruptBytes(read_chunk_.data(), static_cast<std::size_t>(n),
                              injected.corrupt_seed);
        conn.in.append(read_chunk_.data(), static_cast<std::size_t>(n));
        counters_.add(kBytesRead, static_cast<std::uint64_t>(n));
        conn.last_activity = platform::clockNow(config_.clock);
        if (static_cast<std::size_t>(n) < want) break;
        continue;
      }
      if (n == 0) {
        saw_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      closeConnection(conn.id, CloseReason::kError);
      return;
    }
  }
done_reading:

  // dispatchFrames may close (and erase) `conn`, so the id must be read
  // out *before* the call — conn.id afterwards would be use-after-free.
  const std::uint64_t conn_id = conn.id;
  dispatchFrames(conn);
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& live = it->second;

  if (saw_eof) {
    // Half-close: the peer finished sending but may still be reading.
    // Flush everything in flight, then close from our side.
    live.peer_eof = true;
    if (live.out.empty() && live.in_flight == 0) {
      closeConnection(live.id, CloseReason::kPeer);
      return;
    }
    live.close_after_flush = true;
  }
  updateReadInterest(live);
}

void IkServer::dispatchFrames(Connection& conn) {
  switch (dispatcher_.onFrames(conn.in, conn,
                               draining_.load(std::memory_order_acquire))) {
    case FrameDispatcher::Verdict::kKeepOpen:
      return;
    case FrameDispatcher::Verdict::kClose:
      closeConnection(conn.id, CloseReason::kProtocol);
      return;
    case FrameDispatcher::Verdict::kCloseAfterFlush:
      conn.close_after_flush = true;
      return;
  }
}

void IkServer::drainCompletions() {
  std::vector<PendingCompletion> done;
  {
    std::lock_guard<std::mutex> lock(sink_->mutex);
    done.swap(sink_->items);
  }
  const auto now = platform::clockNow(config_.clock);
  for (PendingCompletion& item : done) {
    e2e_hist_.record(msBetween(item.dispatched, now));

    // A connection that died mid-solve is gone from the map: null.
    const auto it = conns_.find(item.conn_id);
    Connection* conn = it == conns_.end() ? nullptr : &it->second;
    if (conn) conn->in_flight--;
    dispatcher_.deliver(conn, item.request_id, item.response);
  }
}

void IkServer::afterEnqueue(Connection& conn) {
  // Slow-reader backpressure: responses pile up only while we keep
  // reading requests, so capping the out-buffer by pausing reads
  // bounds per-connection memory.
  if (!conn.reads_paused && conn.out.size() > config_.write_buffer_limit) {
    conn.reads_paused = true;
    counters_.add(kReadPauses);
  }
  updateReadInterest(conn);
}

void IkServer::onWritable(Connection& conn) {
  while (!conn.out.empty()) {
    std::size_t want = conn.out.size();
    if (fault::FaultInjector::armed()) {
      const fault::Decision injected = fault::decide("net.server.write");
      if (injected.action == fault::Action::kDrop) {
        closeConnection(conn.id, CloseReason::kError);
        return;
      }
      if (injected.action == fault::Action::kEintr)
        break;  // as if send() returned EINTR; level-triggered retry
      if (injected.action == fault::Action::kTruncate)
        want = std::min(want, std::max<std::size_t>(injected.max_bytes, 1));
    }
    const ssize_t n = ::send(conn.fd, conn.out.data(), want, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.consume(static_cast<std::size_t>(n));
      counters_.add(kBytesWritten, static_cast<std::uint64_t>(n));
      conn.last_activity = platform::clockNow(config_.clock);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      break;
    closeConnection(conn.id, CloseReason::kError);
    return;
  }

  if (conn.reads_paused && conn.out.size() < config_.write_buffer_limit / 2) {
    conn.reads_paused = false;
    // Frames may have been buffered while paused.  dispatchFrames may
    // close (and erase) `conn`: read the id out first.
    const std::uint64_t conn_id = conn.id;
    dispatchFrames(conn);
    if (conns_.find(conn_id) == conns_.end()) return;
  }
  if (conn.out.empty() && conn.close_after_flush && conn.in_flight == 0) {
    closeConnection(conn.id, conn.peer_eof ? CloseReason::kPeer
                                           : CloseReason::kProtocol);
    return;
  }
  updateReadInterest(conn);
}

void IkServer::closeConnection(std::uint64_t conn_id, CloseReason reason) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  loop_.remove(conn.fd);
  ::close(conn.fd);
  switch (reason) {
    case CloseReason::kPeer:
      counters_.add(kClosedPeer);
      break;
    case CloseReason::kProtocol:
      counters_.add(kClosedProtocol);
      break;
    case CloseReason::kIdle:
      counters_.add(kClosedIdle);
      break;
    case CloseReason::kShutdown:
      counters_.add(kClosedShutdown);
      break;
    case CloseReason::kError:
      counters_.add(kClosedError);
      break;
  }
  // In-flight completions for this connection still arrive; the sink
  // drain hands them to the dispatcher as undeliverable, which keeps
  // its dispatched/completed counts (the global drain condition) exact.
  conns_.erase(it);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

// -------------------------------------------------------------- drain

void IkServer::beginDrain() {
  if (drain_deadline_set_) {
    if (drainComplete() || platform::clockNow(config_.clock) >= drain_deadline_) {
      std::vector<std::uint64_t> ids;
      ids.reserve(conns_.size());
      for (const auto& [id, conn] : conns_) ids.push_back(id);
      for (std::uint64_t id : ids)
        closeConnection(id, CloseReason::kShutdown);
      loop_.stop();
    }
    return;
  }
  // First sight of the drain flag on the loop thread: listener closes
  // before anything else so no new work can arrive, reads stop, and
  // what is already dispatched gets to finish and flush.
  drain_deadline_set_ = true;
  drain_deadline_ =
      platform::clockNow(config_.clock) + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             config_.drain_timeout_ms));
  if (listen_fd_ >= 0) {
    loop_.remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [id, conn] : conns_) updateReadInterest(conn);
  beginDrain();  // re-enter to handle the already-drained case
}

bool IkServer::drainComplete() const {
  const DispatchStats dispatch = dispatcher_.stats();
  if (dispatch.requests_dispatched != dispatch.requests_completed)
    return false;
  for (const auto& [id, conn] : conns_)
    if (!conn.out.empty()) return false;
  return true;
}

void IkServer::onTick() {
  if (draining_.load(std::memory_order_acquire)) {
    beginDrain();
    return;
  }
  if (config_.idle_timeout_ms <= 0.0) return;
  const auto now = platform::clockNow(config_.clock);
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : conns_)
    if (conn.in_flight == 0 && conn.out.empty() &&
        msBetween(conn.last_activity, now) > config_.idle_timeout_ms)
      idle.push_back(id);
  for (std::uint64_t id : idle) closeConnection(id, CloseReason::kIdle);
}

// -------------------------------------------------------------- stats

NetStats IkServer::stats() const {
  const std::vector<std::uint64_t> totals = counters_.snapshot();
  NetStats snapshot;
  snapshot.connections_accepted = totals[kAccepted];
  snapshot.connections_active = active_conns_.load(std::memory_order_relaxed);
  snapshot.connections_rejected_limit = totals[kRejectedLimit];
  snapshot.closed_by_peer = totals[kClosedPeer];
  snapshot.closed_protocol = totals[kClosedProtocol];
  snapshot.closed_idle = totals[kClosedIdle];
  snapshot.closed_shutdown = totals[kClosedShutdown];
  snapshot.closed_error = totals[kClosedError];
  snapshot.bytes_read = totals[kBytesRead];
  snapshot.bytes_written = totals[kBytesWritten];
  snapshot.read_pauses = totals[kReadPauses];
  static_cast<DispatchStats&>(snapshot) = dispatcher_.stats();
  {
    std::lock_guard<std::mutex> lock(sink_->mutex);
    snapshot.orphaned_completions = sink_->orphaned;
  }
  snapshot.wire_e2e_hist = e2e_hist_.snapshot();
  return snapshot;
}

}  // namespace dadu::net
