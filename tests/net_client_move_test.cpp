// IkClient move-semantics regression: the retry budget and stats are a
// resource, not state to duplicate.  Before the fix, moving a client
// mid-budget COPIED retry_budget_/retry_stats_, so the budget could be
// spent twice (once through the moved-from shell, once through the
// moved-to client) and stats double-counted in any fleet-wide sum.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "dadu/kinematics/presets.hpp"
#include "dadu/net/ik_client.hpp"
#include "dadu/net/ik_server.hpp"
#include "dadu/service/ik_service.hpp"
#include "one_spec_router.hpp"

namespace dadu::net {
namespace {

std::unique_ptr<test_support::OneSpecRouter> makeStack(
    const kin::Chain& chain) {
  service::ServiceConfig config;
  config.workers = 1;
  config.enable_seed_cache = false;
  return std::make_unique<test_support::OneSpecRouter>(chain, config);
}

/// Fast-failing retry setup: every failed callWithRetry burns exactly
/// max_attempts - 1 = 2 retries while budget lasts, with sub-ms sleeps.
ClientConfig retryConfig(std::uint64_t budget) {
  ClientConfig config;
  config.connect_timeout_ms = 50.0;
  config.connect_attempts = 1;
  config.retry_backoff_ms = 1.0;
  config.io_timeout_ms = 200.0;
  config.retry.max_attempts = 3;
  config.retry.base_backoff_ms = 0.1;
  config.retry.max_backoff_ms = 0.2;
  config.retry.budget = budget;
  return config;
}

std::uint64_t failedCallRetries(IkClient& client) {
  service::Request request;
  request.target = {0.1, 0.1, 0.1};
  request.seed = linalg::VecX(6);
  const std::uint64_t before = client.retryStats().retries;
  EXPECT_THROW((void)client.callWithRetry(request), std::runtime_error);
  return client.retryStats().retries - before;
}

TEST(IkClientMove, RetryBudgetIsTransferredNotCopied) {
  constexpr std::uint64_t kBudget = 5;

  // Real connect (so host/port/budget are armed), then kill the server
  // so every subsequent call fails through the retry path.
  const kin::Chain chain = kin::makeSerpentine(6);
  auto stack = makeStack(chain);
  auto server = std::make_unique<IkServer>(*stack->router);
  server->start();
  IkClient a;
  a.connect("127.0.0.1", server->port(), retryConfig(kBudget));
  server.reset();
  stack.reset();

  // Burn part of the budget on the original client: 2 retries.
  EXPECT_EQ(failedCallRetries(a), 2u);

  // Move mid-budget.  The moved-to client owns the remaining 3; the
  // moved-from shell keeps nothing.
  IkClient b = std::move(a);
  EXPECT_EQ(a.retryStats().retries, 0u)
      << "moved-from client must not keep (double-countable) stats";
  EXPECT_EQ(b.retryStats().retries, 2u);

  // A call on the moved-from shell fails terminally without spending
  // retries: its budget is zero.
  EXPECT_EQ(failedCallRetries(a), 0u)
      << "moved-from client spent budget that was transferred away";
  EXPECT_EQ(a.retryStats().budget_exhausted, 1u);

  // Drain the rest through the moved-to client: 2, then the final 1,
  // then 0 once exhausted.
  EXPECT_EQ(failedCallRetries(b), 2u);
  EXPECT_EQ(failedCallRetries(b), 1u);
  EXPECT_EQ(failedCallRetries(b), 0u);

  // The invariant the fix restores: total retries across every client
  // that ever held this budget never exceeds the budget.
  EXPECT_LE(a.retryStats().retries + b.retryStats().retries, kBudget);
  EXPECT_EQ(a.retryStats().retries + b.retryStats().retries, kBudget);
}

TEST(IkClientMove, MoveAssignmentTransfersBudgetToo) {
  constexpr std::uint64_t kBudget = 2;
  const kin::Chain chain = kin::makeSerpentine(6);
  auto stack = makeStack(chain);
  auto server = std::make_unique<IkServer>(*stack->router);
  server->start();
  IkClient a;
  a.connect("127.0.0.1", server->port(), retryConfig(kBudget));
  server.reset();
  stack.reset();

  IkClient b;
  b = std::move(a);
  EXPECT_EQ(failedCallRetries(a), 0u) << "moved-from kept budget";
  EXPECT_EQ(failedCallRetries(b), 2u);
  EXPECT_EQ(a.retryStats().retries + b.retryStats().retries, kBudget);
}

}  // namespace
}  // namespace dadu::net
