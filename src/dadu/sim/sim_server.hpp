// SimServer: the IkServer's serving semantics on simulated transport.
//
// One cooperative object standing where the epoll reactor stands in
// production: it accepts SimConnections and feeds their byte streams
// to the same FrameDispatcher (dadu/net/frame_dispatcher.hpp) the real
// server uses — same decode, verdicts, routing, validation and reply
// encoding — in front of the same SpecRouter lanes.  What is left here
// is SimConnection glue: response completions arrive as executor tasks
// (no CompletionSink/eventfd hop — the sim is single-threaded) and are
// written back through the connection; a kClose verdict closes it, and
// kCloseAfterFlush stops reading it and hangs up once the error frame
// has landed.
//
// Conservation contract (asserted by Scenario): every dispatched
// request completes exactly once; requests_completed == responses_sent
// + internal_errors + undeliverable (a completion whose connection died
// is undeliverable).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "dadu/net/buffer.hpp"
#include "dadu/net/frame_dispatcher.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/sim/sim_executor.hpp"
#include "dadu/sim/trace.hpp"
#include "dadu/sim/transport.hpp"

namespace dadu::registry {
class SpecRouter;
}

namespace dadu::sim {

struct SimServerConfig {
  std::size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
};

class SimServer {
 public:
  /// Route by wire spec_id through `router`, exactly like the
  /// production IkServer.  Every lane service must run on `executor`
  /// (ServiceConfig::executor) so completions arrive cooperatively.
  /// `trace` is optional.
  SimServer(registry::SpecRouter& router, SimExecutor& executor,
            SimServerConfig config = {}, Trace* trace = nullptr);

  /// Attach the server side of `conn` and start serving it.
  void accept(std::shared_ptr<SimConnection> conn);

  net::DispatchStats stats() const { return dispatcher_.stats(); }

 private:
  /// One accepted connection, and its face toward the dispatcher.
  struct ServerConn final : net::FrameConnection,
                            std::enable_shared_from_this<ServerConn> {
    SimServer* server = nullptr;
    std::uint64_t id = 0;
    std::shared_ptr<SimConnection> conn;
    net::ByteBuffer in;
    bool reading = true;  ///< false once a kCloseAfterFlush verdict lands

    bool write(const std::uint8_t* data, std::size_t len) override;
    service::IkService::Completion completion(
        std::uint64_t request_id) override;
  };

  void onBytes(ServerConn& sc, const std::uint8_t* data, std::size_t len);

  SimExecutor& executor_;
  net::FrameDispatcher dispatcher_;
  Trace* trace_ = nullptr;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<ServerConn>> conns_;
};

}  // namespace dadu::sim
