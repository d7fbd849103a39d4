// Test helper: closed-loop pipelined load over real TCP.  One IkClient
// thread per connection keeps `window` requests in flight until it has
// `per_connection` replies; connection c stamps spec id c % `specs`.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <unordered_set>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/net/ik_client.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::test_support {

/// Returns how many replies were a Solved response to one of their
/// connection's outstanding requests; every other reply (reject, error
/// frame, duplicate or unknown id) is a test failure.
inline std::size_t drivePipelinedLoad(std::uint16_t port,
                                      const kin::Chain& chain,
                                      std::size_t connections,
                                      std::size_t window,
                                      std::size_t per_connection,
                                      std::uint32_t specs = 1) {
  std::vector<std::size_t> solved(connections, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c)
    threads.emplace_back([&, c] {
      net::IkClient client;
      client.connect("127.0.0.1", port);
      client.setSpecId(static_cast<std::uint32_t>(c % specs));
      std::unordered_set<std::uint64_t> outstanding;
      std::size_t sent = 0;
      for (std::size_t replies = 0; replies < per_connection; ++replies) {
        for (; sent < per_connection && outstanding.size() < window; ++sent) {
          const auto task = workload::generateTask(
              chain, static_cast<int>(c * per_connection + sent));
          service::Request request;
          request.target = task.target;
          request.seed = task.seed;
          outstanding.insert(client.sendRequest(request));
        }
        const net::ClientReply reply = client.receiveAny();
        if (outstanding.erase(reply.id()) == 1 &&
            reply.type == net::MsgType::kResponse &&
            static_cast<service::ResponseStatus>(reply.response.status) ==
                service::ResponseStatus::kSolved)
          ++solved[c];
        else
          ADD_FAILURE() << "connection " << c << ": reply " << reply.id()
                        << " is not one Solved reply to an outstanding request";
      }
    });
  for (auto& thread : threads) thread.join();
  return std::accumulate(solved.begin(), solved.end(), std::size_t{0});
}

}  // namespace dadu::test_support
