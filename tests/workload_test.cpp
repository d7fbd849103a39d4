// Workload generation tests: determinism, reachability-by-construction,
// stream independence and trajectory generators.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/kinematics/workspace.hpp"
#include "dadu/workload/rng.hpp"
#include "dadu/workload/targets.hpp"
#include "dadu/workload/trajectory.hpp"

namespace dadu::workload {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 10; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // astronomically unlikely to collide
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, AngleInPlusMinusPi) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.angle();
    EXPECT_GE(a, -3.14159266);
    EXPECT_LT(a, 3.14159266);
  }
}

TEST(Rng, UniformMeanRoughlyCentred) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a = Rng::forStream(1, 0);
  Rng b = Rng::forStream(1, 1);
  int same = 0;
  for (int i = 0; i < 20; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Targets, ReachableByConstruction) {
  const auto chain = kin::makeSerpentine(25);
  const auto tasks = generateTasks(chain, 20);
  for (const auto& task : tasks) {
    // The generating configuration reproduces the target exactly.
    const auto p = kin::endEffectorPosition(chain, task.generator);
    EXPECT_LT((p - task.target).norm(), 1e-12);
    EXPECT_TRUE(kin::plausiblyReachable(chain, task.target));
  }
}

TEST(Targets, DeterministicAcrossCalls) {
  const auto chain = kin::makeSerpentine(12);
  const auto a = generateTasks(chain, 5);
  const auto b = generateTasks(chain, 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(Targets, IndexedGenerationMatchesBatch) {
  const auto chain = kin::makeSerpentine(12);
  const auto batch = generateTasks(chain, 8);
  for (int i = 0; i < 8; ++i) {
    const auto single = generateTask(chain, i);
    EXPECT_EQ(batch[i].target, single.target);
    EXPECT_EQ(batch[i].seed, single.seed);
  }
}

TEST(Targets, ClusteredTasksReachableAndDeterministic) {
  const auto chain = kin::makeSerpentine(12);
  const auto a = generateClusteredTasks(chain, 20, 4);
  const auto b = generateClusteredTasks(chain, 20, 4);
  ASSERT_EQ(a.size(), 20u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Reachable by construction.
    const auto fk = kin::endEffectorPosition(chain, a[i].generator);
    EXPECT_NEAR((fk - a[i].target).norm(), 0.0, 1e-12);
    // Deterministic across calls.
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(Targets, ClusteredTasksBunchAroundTheirCenters) {
  const auto chain = kin::makeSerpentine(12);
  const int clusters = 4;
  const auto tasks = generateClusteredTasks(chain, 24, clusters, 0.02);
  const auto centers = generateTasks(chain, clusters);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& center = centers[i % static_cast<std::size_t>(clusters)];
    // A <=0.02 rad perturbation per joint moves a 12-link arm's end
    // effector by well under link_count * spread * reach.
    EXPECT_LT((tasks[i].target - center.target).norm(),
              0.02 * static_cast<double>(chain.dof()) * chain.maxReach());
    // Seeds stay full-range random, not clustered.
  }
}

TEST(Targets, ClusteredTasksRespectJointLimits) {
  const auto chain = kin::makePuma560();  // has finite limits
  const auto tasks = generateClusteredTasks(chain, 12, 3, 0.5);
  for (const auto& task : tasks)
    for (std::size_t j = 0; j < chain.dof(); ++j) {
      const auto& joint = chain.joint(j);
      if (std::isfinite(joint.min)) {
        EXPECT_GE(task.generator[j], joint.min);
      }
      if (std::isfinite(joint.max)) {
        EXPECT_LE(task.generator[j], joint.max);
      }
    }
}

TEST(Targets, DistinctAcrossIndices) {
  const auto chain = kin::makeSerpentine(12);
  const auto tasks = generateTasks(chain, 10);
  std::set<double> xs;
  for (const auto& t : tasks) xs.insert(t.target.x);
  EXPECT_EQ(xs.size(), 10u);
}

TEST(Targets, SeedsAreSmall) {
  const auto chain = kin::makeSerpentine(12);
  TargetGenOptions opts;
  opts.seed_joint_range = 0.1;
  const auto tasks = generateTasks(chain, 10, opts);
  for (const auto& t : tasks) EXPECT_LE(t.seed.maxAbs(), 0.1);
}

TEST(Targets, MinRadiusRespectedWhenPossible) {
  const auto chain = kin::makeSerpentine(25);
  TargetGenOptions opts;
  opts.min_radius_fraction = 0.15;
  const auto tasks = generateTasks(chain, 30, opts);
  int ok = 0;
  for (const auto& t : tasks)
    if (t.target.norm() >= 0.15 * chain.maxReach()) ++ok;
  // Redraw budget makes violations rare, not impossible.
  EXPECT_GE(ok, 28);
}

TEST(Trajectory, LineEndpointsAndCount) {
  const auto path = lineTrajectory({0, 0, 0}, {1, 2, 3}, 5);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), linalg::Vec3(0, 0, 0));
  EXPECT_EQ(path.back(), linalg::Vec3(1, 2, 3));
  // Even spacing.
  const double step = (path[1] - path[0]).norm();
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_NEAR((path[i] - path[i - 1]).norm(), step, 1e-12);
}

TEST(Trajectory, CircleRadiusConstant) {
  const linalg::Vec3 c{1, 2, 3};
  const auto path = circleTrajectory(c, 0.5, {1, 0, 0}, {0, 1, 0}, 16);
  ASSERT_EQ(path.size(), 16u);
  for (const auto& p : path) EXPECT_NEAR((p - c).norm(), 0.5, 1e-12);
}

TEST(Trajectory, CircleHandlesNonOrthogonalBasis) {
  const auto path = circleTrajectory({0, 0, 0}, 1.0, {1, 0, 0}, {1, 1, 0}, 8);
  for (const auto& p : path) EXPECT_NEAR(p.norm(), 1.0, 1e-12);
}

TEST(Trajectory, LissajousBounded) {
  const auto path = lissajousTrajectory({0, 0, 0}, 0.3, 3, 2, 1, 0.5, 50);
  for (const auto& p : path) {
    EXPECT_LE(std::abs(p.x), 0.3 + 1e-12);
    EXPECT_LE(std::abs(p.y), 0.3 + 1e-12);
    EXPECT_LE(std::abs(p.z), 0.3 + 1e-12);
  }
}

TEST(Trajectory, FitToWorkspaceScalesIntoBall) {
  const auto chain = kin::makeSerpentine(12, 0.1);  // reach 1.2
  auto path = lineTrajectory({0, 0, 0}, {10, 0, 0}, 10);
  path = fitToWorkspace(chain, std::move(path), 0.2);
  for (const auto& p : path)
    EXPECT_LE(p.norm(), 1.2 * 0.8 + 1e-9);
}

TEST(Trajectory, FitToWorkspaceKeepsAlreadyFittingPath) {
  const auto chain = kin::makeSerpentine(12, 0.1);
  const auto orig = lineTrajectory({0.1, 0, 0}, {0.2, 0, 0}, 4);
  const auto fitted = fitToWorkspace(chain, orig, 0.2);
  for (std::size_t i = 0; i < orig.size(); ++i) EXPECT_EQ(orig[i], fitted[i]);
}

TEST(SpecMix, PerSpecSubsequenceMatchesSingleRobotWorkload) {
  // The multi-spec contract: extracting spec s's tasks from the mixed
  // stream yields exactly generateTask(chains[s], 0..k) in order, so a
  // multi-spec run and a dedicated single-robot run solve identical
  // per-spec workloads.
  const std::vector<kin::Chain> chains = {
      kin::makeSerpentine(5), kin::makeSerpentine(8), kin::makeSerpentine(11)};
  const auto mixed = generateSpecMixTasks(chains, 120, /*mix_seed=*/9);
  ASSERT_EQ(mixed.size(), 120u);

  std::vector<int> next(chains.size(), 0);
  std::vector<std::size_t> per_spec(chains.size(), 0);
  for (const SpecTask& st : mixed) {
    ASSERT_LT(st.spec_id, chains.size());
    const IkTask expect =
        generateTask(chains[st.spec_id], next[st.spec_id]++);
    EXPECT_EQ(st.task.target.x, expect.target.x);
    EXPECT_EQ(st.task.target.y, expect.target.y);
    EXPECT_EQ(st.task.target.z, expect.target.z);
    ASSERT_EQ(st.task.seed.size(), expect.seed.size());
    for (std::size_t j = 0; j < expect.seed.size(); ++j)
      EXPECT_EQ(st.task.seed[j], expect.seed[j]);
    ++per_spec[st.spec_id];
  }
  // Every spec participates, and the mix is deterministic in its seed.
  for (std::size_t s = 0; s < chains.size(); ++s) EXPECT_GT(per_spec[s], 0u);
  const auto replay = generateSpecMixTasks(chains, 120, /*mix_seed=*/9);
  for (std::size_t i = 0; i < mixed.size(); ++i)
    EXPECT_EQ(mixed[i].spec_id, replay[i].spec_id);
}

}  // namespace
}  // namespace dadu::workload
