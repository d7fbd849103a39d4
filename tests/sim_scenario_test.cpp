// Whole-stack scenario tests: the sim's reason to exist is that one
// seed replays an entire serving run — clients, wire protocol, faults,
// batching, solver outcomes — byte-identically, and that every run
// upholds the conservation invariants production promises.  The trace
// digest is the witness for the first claim; ScenarioResult::ok() for
// the second.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "dadu/sim/scenario.hpp"

namespace dadu::sim {
namespace {

ScenarioConfig smallPreset(const std::string& name, std::uint64_t seed,
                           std::size_t requests = 2000) {
  ScenarioConfig cfg = presetScenario(name);
  cfg.seed = seed;
  cfg.requests = requests;
  return cfg;
}

TEST(SimScenario, SameSeedReplaysByteIdentically) {
  // Chaos is the hardest case: fault injection, corruption-induced
  // reconnects, deadline races.  If this replays, everything replays.
  const ScenarioResult a = runScenario(smallPreset("chaos", 42));
  const ScenarioResult b = runScenario(smallPreset("chaos", 42));

  EXPECT_EQ(a.trace.digest(), b.trace.digest());
  EXPECT_EQ(a.trace.events(), b.trace.events());
  EXPECT_EQ(a.trace.lines(), b.trace.lines());  // byte-for-byte, not just hash
  EXPECT_EQ(a.virtual_ms, b.virtual_ms);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.conn_closed, b.conn_closed);
  EXPECT_EQ(a.reconnects, b.reconnects);
  EXPECT_EQ(a.service.total_iterations, b.service.total_iterations);
}

TEST(SimScenario, DifferentSeedsDiverge) {
  const ScenarioResult a = runScenario(smallPreset("chaos", 42));
  const ScenarioResult c = runScenario(smallPreset("chaos", 43));
  // Different seed: different arrivals, targets, fault rolls — the
  // digest must move.  (Equal digests would mean the seed is ignored.)
  EXPECT_NE(a.trace.digest(), c.trace.digest());
}

TEST(SimScenario, EveryPresetUpholdsTheInvariants) {
  for (const std::string& name : scenarioNames()) {
    const ScenarioResult r = runScenario(smallPreset(name, 7));
    EXPECT_TRUE(r.ok()) << name << ": " << (r.violations.empty()
                                                ? ""
                                                : r.violations.front());
    // Every allocated request reached a terminal outcome.
    EXPECT_EQ(r.sent, r.responses + r.wire_errors + r.conn_closed) << name;
    EXPECT_EQ(r.server.requests_dispatched, r.server.requests_completed) << name;
    EXPECT_EQ(r.service.accounted(), r.service.submitted) << name;
  }
}

TEST(SimScenario, BaselineSolvesEverythingCleanly) {
  const ScenarioResult r = runScenario(smallPreset("baseline", 11));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.solved, r.sent);  // comfortable load, no faults, no loss
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.unsent, 0u);
  EXPECT_EQ(r.reconnects, 0u);
}

TEST(SimScenario, OverloadActuallySheds) {
  const ScenarioResult r = runScenario(smallPreset("overload", 11));
  EXPECT_TRUE(r.ok());
  // Offered load is ~100x capacity: admission control and the breaker
  // must reject the bulk of it, and still account for every request.
  EXPECT_GT(r.rejected, r.solved);
  EXPECT_GT(r.service.rejected_queue_full + r.service.rejected_overloaded +
                r.service.shed_low_priority,
            0u);
}

TEST(SimScenario, ChaosKillsConnectionsButLosesNothingSilently) {
  const ScenarioResult r = runScenario(smallPreset("chaos", 123, 4000));
  EXPECT_TRUE(r.ok());
  // Corruption/drop faults must actually bite at this volume...
  EXPECT_GT(r.conn_closed + r.wire_errors, 0u);
  // ...injected solver throws reach clients as kInternal error frames,
  // exactly as the production server answers them...
  EXPECT_GT(r.server.internal_errors, 0u);
  EXPECT_LE(r.server.internal_errors, r.wire_errors);
  // ...and dead clients redial rather than silently abandoning quota.
  EXPECT_GT(r.reconnects, 0u);
  EXPECT_EQ(r.sent, r.responses + r.wire_errors + r.conn_closed);
}

TEST(SimScenario, BurstKeepsTheCoalescerBusy)
{
  const ScenarioResult r = runScenario(smallPreset("burst", 5));
  EXPECT_TRUE(r.ok());
  // 16-deep trains against a 16-lane batch window: mean occupancy must
  // reflect real coalescing, not per-request dispatch.
  EXPECT_GT(r.service.meanBatchOccupancy(), 4.0);
}

TEST(SimScenario, TraceWritesSeedAndDigestTrailer) {
  ScenarioConfig cfg = smallPreset("baseline", 99, 50);
  const ScenarioResult r = runScenario(cfg);
  std::ostringstream out;
  r.trace.writeTo(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("scenario=baseline seed=99"), std::string::npos);
  EXPECT_NE(text.find("# events="), std::string::npos);
  EXPECT_NE(text.find("done sent=50"), std::string::npos);
}

TEST(SimScenario, UnknownPresetThrows) {
  EXPECT_THROW(presetScenario("no-such-shape"), std::invalid_argument);
}

TEST(SimScenario, MultispecRoutesThreeSpecsUnderOneServer) {
  const ScenarioResult r = runScenario(smallPreset("multispec", 21));
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());

  // All three lanes saw real traffic, and the per-spec slices conserve
  // the aggregate exactly.
  ASSERT_EQ(r.per_spec.size(), 3u);
  std::uint64_t lane_submitted = 0, lane_solved = 0;
  for (const ScenarioSpecStats& s : r.per_spec) {
    EXPECT_GT(s.stats.submitted, 0u) << s.name;
    EXPECT_EQ(s.stats.accounted(), s.stats.submitted) << s.name;
    lane_submitted += s.stats.submitted;
    lane_solved += s.stats.solved;
  }
  EXPECT_EQ(lane_submitted, r.service.submitted);
  EXPECT_EQ(lane_solved, r.service.solved);

  // The 2% wrong-spec trickle surfaced as wire errors (kUnknownSpec),
  // counted by the server, and never reached any lane.
  EXPECT_GT(r.wire_errors, 0u);
  EXPECT_EQ(r.server.spec_mismatch, r.wire_errors);
  EXPECT_EQ(r.server.requests_dispatched, r.service.submitted);
}

TEST(SimScenario, MultispecReplaysByteIdentically) {
  const ScenarioResult a = runScenario(smallPreset("multispec", 77));
  const ScenarioResult b = runScenario(smallPreset("multispec", 77));
  EXPECT_EQ(a.trace.digest(), b.trace.digest());
  EXPECT_EQ(a.trace.lines(), b.trace.lines());
  ASSERT_EQ(a.per_spec.size(), b.per_spec.size());
  for (std::size_t s = 0; s < a.per_spec.size(); ++s) {
    EXPECT_EQ(a.per_spec[s].stats.submitted, b.per_spec[s].stats.submitted);
    EXPECT_EQ(a.per_spec[s].stats.total_iterations,
              b.per_spec[s].stats.total_iterations);
  }
}

TEST(SimScenario, SingleSpecDigestsUnchangedByWrongSpecKnob) {
  // specs=1 with the wrong-spec knob off must not consume any RNG for
  // spec selection — the historical byte-identical replays depend on
  // it.  Baseline vs explicit specs=1 is the regression tripwire.
  ScenarioConfig implicit = smallPreset("baseline", 31, 400);
  ScenarioConfig explicit_single = smallPreset("baseline", 31, 400);
  explicit_single.specs = 1;
  const ScenarioResult a = runScenario(implicit);
  const ScenarioResult b = runScenario(explicit_single);
  EXPECT_EQ(a.trace.digest(), b.trace.digest());
  // One spec is a one-spec router: a single lane carrying everything.
  ASSERT_EQ(a.per_spec.size(), 1u);
  EXPECT_EQ(a.per_spec[0].spec_id, 0u);
  EXPECT_EQ(a.per_spec[0].stats.submitted, a.service.submitted);
}

}  // namespace
}  // namespace dadu::sim
