// Test helper: the single-robot serving stack.  A server always routes
// through a SpecRouter; a router over a one-spec registry is the
// single-spec server.  One quick-ik spec (id `spec_id`) over `chain`,
// its lane configured by `config`.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "dadu/kinematics/chain.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/registry/spec_router.hpp"
#include "dadu/service/ik_service.hpp"

namespace dadu::test_support {

struct OneSpecRouter {
  registry::RobotSpecRegistry specs;
  std::unique_ptr<registry::SpecRouter> router;
  std::uint32_t spec_id;

  explicit OneSpecRouter(kin::Chain chain, service::ServiceConfig config = {},
                         std::uint32_t id = 0)
      : spec_id(id) {
    registry::RobotSpec spec;
    spec.id = id;
    spec.name = "robot";
    spec.chain_spec = "test";
    spec.chain = std::move(chain);
    specs.add(std::move(spec));
    registry::RouterConfig router_config;
    router_config.base = config;
    router = std::make_unique<registry::SpecRouter>(specs, router_config);
  }
  // The router refers to `specs`: the pair must not move.
  OneSpecRouter(const OneSpecRouter&) = delete;
  OneSpecRouter& operator=(const OneSpecRouter&) = delete;

  /// The one lane's service.
  service::IkService& service() { return *router->serviceFor(spec_id); }
};

}  // namespace dadu::test_support
