#include "dadu/sim/sim_server.hpp"

#include <utility>

namespace dadu::sim {

bool SimServer::ServerConn::write(const std::uint8_t* data, std::size_t len) {
  return conn->send(Side::kServer, data, len);  // false once closed
}

service::IkService::Completion SimServer::ServerConn::completion(
    std::uint64_t request_id) {
  return [self = shared_from_this(), request_id](service::Response response) {
    self->server->dispatcher_.deliver(self.get(), request_id, response);
  };
}

SimServer::SimServer(registry::SpecRouter& router, SimExecutor& executor,
                     SimServerConfig config, Trace* trace)
    : executor_(executor),
      // One shard: the simulation is single-threaded.
      dispatcher_(router, config.max_frame_bytes),
      trace_(trace) {}

void SimServer::accept(std::shared_ptr<SimConnection> conn) {
  auto sc = std::make_shared<ServerConn>();
  sc->server = this;
  sc->id = next_conn_id_++;
  sc->conn = std::move(conn);
  conns_.emplace(sc->id, sc);
  // The pipe's handlers hold weak references: conns_ owns the
  // connection, so a pipe and its ServerConn never keep each other
  // alive past the close.
  const std::weak_ptr<ServerConn> weak = sc;
  SimServer* self = this;
  sc->conn->onReceive(Side::kServer,
                      [self, weak](const std::uint8_t* data, std::size_t len) {
                        if (const auto live = weak.lock())
                          self->onBytes(*live, data, len);
                      });
  sc->conn->onClose(Side::kServer, [self, weak] {
    const auto live = weak.lock();
    if (!live) return;
    self->conns_.erase(live->id);
    if (self->trace_)
      self->trace_->record(self->executor_.simClock().elapsedUs(),
                           "srv close conn=%llu",
                           static_cast<unsigned long long>(live->id));
  });
}

void SimServer::onBytes(ServerConn& sc, const std::uint8_t* data,
                        std::size_t len) {
  if (!sc.reading) return;
  sc.in.append(data, len);
  switch (dispatcher_.onFrames(sc.in, sc, /*draining=*/false)) {
    case net::FrameDispatcher::Verdict::kKeepOpen:
      return;
    case net::FrameDispatcher::Verdict::kClose:
      // close() fires this side's onClose handler (as a task), which
      // does the bookkeeping.
      sc.conn->close();
      return;
    case net::FrameDispatcher::Verdict::kCloseAfterFlush:
      sc.reading = false;
      sc.conn->closeAfterFlush();  // error frame lands, then hang up
      return;
  }
}

}  // namespace dadu::sim
