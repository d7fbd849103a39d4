// CLI tests: robot-spec resolution, argument parsing, every subcommand
// through captured streams, and error paths.
#include <gtest/gtest.h>

#include <sstream>

#include "dadu/cli/cli.hpp"

namespace dadu::cli {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun runCli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(CliParse, NumberList) {
  EXPECT_EQ(parseNumberList("1,2,-3.5"), (std::vector<double>{1, 2, -3.5}));
  EXPECT_EQ(parseNumberList("0.25"), std::vector<double>{0.25});
  EXPECT_THROW(parseNumberList(""), std::invalid_argument);
  EXPECT_THROW(parseNumberList("1,,2"), std::invalid_argument);
  EXPECT_THROW(parseNumberList("1,abc"), std::invalid_argument);
}

TEST(CliParse, RobotSpecs) {
  EXPECT_EQ(resolveRobot("serpentine:25").dof(), 25u);
  EXPECT_EQ(resolveRobot("planar:6").dof(), 6u);
  EXPECT_EQ(resolveRobot("puma").dof(), 6u);
  EXPECT_EQ(resolveRobot("iiwa").dof(), 7u);
  EXPECT_EQ(resolveRobot("tentacle:5").dof(), 10u);
  EXPECT_EQ(resolveRobot("random:15:3").dof(), 15u);
  EXPECT_THROW(resolveRobot("hexapod:6"), std::invalid_argument);
  EXPECT_THROW(resolveRobot("/no/such/robot.dh"), std::runtime_error);
}

TEST(Cli, NoArgsPrintsUsageAndFails) {
  const auto r = runCli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, HelpPrintsUsageAndSucceeds) {
  const auto r = runCli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto r = runCli({"dance", "--robot", "puma"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, MissingRobotOptionFails) {
  const auto r = runCli({"info"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--robot"), std::string::npos);
}

TEST(Cli, InfoReportsBasics) {
  const auto r = runCli({"info", "--robot", "serpentine:12"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("dof:         12"), std::string::npos);
  EXPECT_NE(r.out.find("max reach"), std::string::npos);
}

TEST(Cli, FkComputesPosition) {
  const auto r =
      runCli({"fk", "--robot", "planar:2", "--joints", "0,0"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("position"), std::string::npos);
  EXPECT_NE(r.out.find("0.2"), std::string::npos);  // stretched 2x0.1 m
}

TEST(Cli, FkRejectsWrongJointCount) {
  const auto r = runCli({"fk", "--robot", "planar:3", "--joints", "0,0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("3 DOF"), std::string::npos);
}

TEST(Cli, SolveConvergesOnEasyTarget) {
  const auto r = runCli({"solve", "--robot", "serpentine:12", "--target",
                         "0.5,0.3,0.2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("status:      converged"), std::string::npos);
}

TEST(Cli, SolveHonoursSolverChoice) {
  const auto r = runCli({"solve", "--robot", "serpentine:12", "--target",
                         "0.5,0.3,0.2", "--solver", "pinv-svd"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("pinv-svd"), std::string::npos);
}

TEST(Cli, SolveUnknownSolverFails) {
  const auto r = runCli({"solve", "--robot", "puma", "--target", "0.3,0.2,0.1",
                         "--solver", "magic"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, SolveUnreachableTargetReturnsNonZero) {
  const auto r = runCli({"solve", "--robot", "planar:2", "--target",
                         "5,0,0", "--max-iter", "100"});
  EXPECT_EQ(r.code, 1);  // ran fine, did not converge
}

TEST(Cli, AccelReportsHardwareStats) {
  const auto r = runCli({"accel", "--robot", "serpentine:12", "--target",
                         "0.5,0.3,0.2", "--ssus", "16"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("cycles"), std::string::npos);
  EXPECT_NE(r.out.find("mW"), std::string::npos);
  EXPECT_NE(r.out.find("mm^2"), std::string::npos);
}

TEST(Cli, OptionWithoutValueFails) {
  const auto r = runCli({"info", "--robot"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("needs a value"), std::string::npos);
}

TEST(Cli, BadTargetArityFails) {
  const auto r = runCli({"solve", "--robot", "puma", "--target", "1,2"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("3 numbers"), std::string::npos);
}


TEST(Cli, PoseSolvesPositionAndOrientation) {
  const auto r = runCli({"pose", "--robot", "serpentine:12", "--target",
                         "0.5,0.3,0.2", "--rpy", "0.1,0.2,0.3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("pos error"), std::string::npos);
  EXPECT_NE(r.out.find("ang error"), std::string::npos);
  EXPECT_NE(r.out.find("converged"), std::string::npos);
}

TEST(Cli, PoseRequiresRpy) {
  const auto r = runCli({"pose", "--robot", "serpentine:12", "--target",
                         "0.5,0.3,0.2"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("rpy"), std::string::npos);
}

TEST(Cli, PoseBadRpyArityFails) {
  const auto r = runCli({"pose", "--robot", "serpentine:12", "--target",
                         "0.5,0.3,0.2", "--rpy", "0.1,0.2"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, ServeBenchRunsAndReportsCacheHits) {
  const auto r = runCli({"serve-bench", "--robot", "serpentine:10",
                         "--requests", "40", "--clusters", "4", "--workers",
                         "2", "--max-iter", "2000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("throughput:"), std::string::npos);
  EXPECT_NE(r.out.find("latency p50/p99:"), std::string::npos);
  EXPECT_NE(r.out.find("cache:             on, hit rate"), std::string::npos);
  // Clustered targets against a warm cache must actually hit.
  EXPECT_EQ(r.out.find("hit rate 0 ("), std::string::npos) << r.out;
}

TEST(Cli, ServeBenchCacheOffReportsNoHits) {
  const auto r = runCli({"serve-bench", "--robot", "serpentine:10",
                         "--requests", "10", "--clusters", "2", "--workers",
                         "2", "--cache", "off", "--max-iter", "2000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("cache:             off"), std::string::npos);
}

TEST(Cli, ServeBenchAcceptsBreakerFlags) {
  // A generous depth never trips on 10 requests: the run must succeed
  // and every request must still be accounted for.
  const auto r = runCli({"serve-bench", "--robot", "serpentine:10",
                         "--requests", "10", "--clusters", "2", "--workers",
                         "2", "--max-iter", "2000", "--breaker-queue-depth",
                         "10000", "--shed-queue-depth", "5000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("throughput:"), std::string::npos);
}

TEST(Cli, ServeBenchRejectsNegativeBreakerP99) {
  const auto r = runCli({"serve-bench", "--robot", "serpentine:10",
                         "--breaker-p99-ms", "-1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--breaker-p99-ms"), std::string::npos);
}

TEST(Cli, ServeBenchRejectsBadCacheFlag) {
  const auto r = runCli({"serve-bench", "--robot", "serpentine:10", "--cache",
                         "maybe"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--cache"), std::string::npos);
}

TEST(Cli, ServeBenchRejectsUnknownSolver) {
  // Rejected before any worker builds a solver: a factory throw on a
  // worker thread would end the process.
  const auto r = runCli({"serve-bench", "--robot", "serpentine:10",
                         "--requests", "4", "--solver", "magic"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown IK solver: magic"), std::string::npos);
}

TEST(Cli, ServeBindsDrainsAndDumpsStats) {
  // --max-runtime-ms is the headless stand-in for SIGINT: serve an
  // ephemeral port briefly, drain, and dump the merged snapshot.
  const auto r = runCli({"serve", "--robot", "planar:6", "--port", "0",
                         "--workers", "2", "--max-runtime-ms", "100"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("listening on 127.0.0.1:"), std::string::npos);
  // Both layers' metrics appear in one dump.
  EXPECT_NE(r.out.find("dadu_service_submitted"), std::string::npos);
  EXPECT_NE(r.out.find("dadu_net_connections_accepted"), std::string::npos);
}

TEST(Cli, ServeHonoursPromStatsFormat) {
  const auto r = runCli({"serve", "--robot", "planar:6", "--port", "0",
                         "--workers", "1", "--max-runtime-ms", "50",
                         "--stats-format", "prom"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("# TYPE dadu_net_connections_accepted_total counter"),
            std::string::npos);
}

TEST(Cli, ServeRequiresPort) {
  const auto r = runCli({"serve", "--robot", "planar:6"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("port"), std::string::npos);
}

TEST(Cli, ServeRejectsBadStatsFormat) {
  const auto r = runCli({"serve", "--robot", "planar:6", "--port", "0",
                         "--stats-format", "xml"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--stats-format"), std::string::npos);
}

TEST(Cli, ServeRejectsUnknownSolver) {
  const auto r = runCli({"serve", "--robot", "planar:6", "--port", "0",
                         "--max-runtime-ms", "50", "--solver", "magic"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown IK solver: magic"), std::string::npos);
}

TEST(Cli, ServeRejectsOutOfRangePort) {
  const auto r = runCli({"serve", "--robot", "planar:6", "--port", "70000"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--port"), std::string::npos);
}

TEST(Cli, ServeHostsMultipleRobotSpecs) {
  // Repeated --robot bindings become one registry: the spec table is
  // printed at startup and the drained dump carries per-spec series.
  const auto r = runCli({"serve", "--robot", "left=planar:4", "--robot",
                         "right=serpentine:6", "--robot", "iiwa", "--port",
                         "0", "--workers", "1", "--max-runtime-ms", "100"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("3 robot spec(s)"), std::string::npos);
  EXPECT_NE(r.out.find("spec 0: left"), std::string::npos);
  EXPECT_NE(r.out.find("spec 1: right"), std::string::npos);
  EXPECT_NE(r.out.find("spec 2: iiwa"), std::string::npos);
  EXPECT_NE(r.out.find("listening on 127.0.0.1:"), std::string::npos);
  EXPECT_NE(r.out.find("dadu_spec_left_requests"), std::string::npos);
  EXPECT_NE(r.out.find("dadu_spec_right_cache_hit_rate"), std::string::npos);
  EXPECT_NE(r.out.find("dadu_registry_specs"), std::string::npos);
}

TEST(Cli, ServeRejectsDuplicateRobotNames) {
  const auto r = runCli({"serve", "--robot", "arm=planar:4", "--robot",
                         "arm=planar:5", "--port", "0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("duplicate"), std::string::npos);
}

TEST(Cli, SimMultispecPresetRunsCleanly) {
  const auto r = runCli({"sim", "--scenario", "multispec", "--requests",
                         "400", "--seed", "5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("invariants:  ok"), std::string::npos);
  // Per-spec slices printed under the aggregate service line.
  EXPECT_NE(r.out.find("spec 0 (serpentine_8)"), std::string::npos);
  EXPECT_NE(r.out.find("spec 2 (serpentine_12)"), std::string::npos);
}

TEST(Cli, SimSpecsFlagOverridesPreset) {
  const auto r = runCli({"sim", "--scenario", "baseline", "--specs", "2",
                         "--requests", "200", "--seed", "3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("spec 1 (serpentine_10)"), std::string::npos);
}

}  // namespace
}  // namespace dadu::cli
