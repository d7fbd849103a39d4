// SeedCache batched-lookup parity: lookupMany must return exactly the
// per-target results of scalar lookup() — hit flags, seed vectors
// (bitwise), stats deltas — across randomized workloads, forced hash
// collisions (hash_bits seam), neighbor search on/off, and
// exact-distance ties where only the probe order could diverge.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "dadu/service/seed_cache.hpp"

namespace dadu::service {
namespace {

linalg::VecX thetaFor(double tag, std::size_t dof = 6) {
  linalg::VecX v(dof);
  for (std::size_t i = 0; i < dof; ++i)
    v[i] = tag + 0.1 * static_cast<double>(i);
  return v;
}

/// Run the same query burst through lookupMany and per-target lookup()
/// on an identically-populated twin cache, asserting exact agreement.
void expectParity(const SeedCacheConfig& config,
                  const std::vector<std::pair<linalg::Vec3, linalg::VecX>>&
                      inserts,
                  const std::vector<linalg::Vec3>& queries) {
  SeedCache batched(config);
  SeedCache scalar(config);
  for (const auto& [target, theta] : inserts) {
    batched.insert(target, theta);
    scalar.insert(target, theta);
  }

  const std::size_t n = queries.size();
  std::vector<linalg::VecX> many_seeds(n);
  std::vector<unsigned char> many_hits(n);
  const std::size_t hit_count =
      batched.lookupMany(queries.data(), n, many_seeds.data(),
                         many_hits.data());

  std::size_t scalar_hits = 0;
  for (std::size_t q = 0; q < n; ++q) {
    linalg::VecX seed;
    const bool hit = scalar.lookup(queries[q], seed);
    scalar_hits += hit ? 1u : 0u;
    ASSERT_EQ(many_hits[q] != 0, hit) << "query " << q;
    if (hit)
      EXPECT_EQ(many_seeds[q], seed) << "query " << q << ": seed differs";
  }
  EXPECT_EQ(hit_count, scalar_hits);

  // Stats account identically: one hit-or-miss per query either way.
  const SeedCacheStats bs = batched.stats();
  const SeedCacheStats ss = scalar.stats();
  EXPECT_EQ(bs.hits, ss.hits);
  EXPECT_EQ(bs.misses, ss.misses);
  EXPECT_EQ(bs.hits + bs.misses, n);
}

TEST(SeedCacheLookupMany, RandomizedParityAcrossConfigs) {
  std::mt19937 rng(20260808);
  std::uniform_real_distribution<double> pos(-1.0, 1.0);

  for (const unsigned hash_bits : {64u, 2u}) {     // 2: heavy collisions
    for (const bool neighbors : {true, false}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{16}}) {
        SeedCacheConfig config;
        config.cell_size = 0.1;
        config.max_distance = 0.12;  // beyond one cell: neighbors matter
        config.shards = shards;
        config.search_neighbors = neighbors;
        config.hash_bits = hash_bits;

        std::vector<std::pair<linalg::Vec3, linalg::VecX>> inserts;
        for (int i = 0; i < 200; ++i)
          inserts.push_back(
              {{pos(rng), pos(rng), pos(rng)}, thetaFor(0.01 * i)});

        // Queries: half near inserted points (likely hits), half fresh.
        std::vector<linalg::Vec3> queries;
        for (int q = 0; q < 60; ++q) {
          if (q % 2 == 0) {
            const auto& base = inserts[static_cast<std::size_t>(q) * 3].first;
            queries.push_back(
                {base.x + 0.03 * pos(rng), base.y + 0.03 * pos(rng),
                 base.z + 0.03 * pos(rng)});
          } else {
            queries.push_back({pos(rng) * 5.0, pos(rng) * 5.0, pos(rng) * 5.0});
          }
        }
        expectParity(config, inserts, queries);
      }
    }
  }
}

TEST(SeedCacheLookupMany, ExactDistanceTieMatchesScalarProbeOrder) {
  // Pairs of cached entries EXACTLY equidistant from their query but in
  // different cells: scalar lookup keeps the first-probed cell's entry,
  // and the batch path must pick the same one even though its probes
  // execute shard-major.  Every coordinate is a dyadic rational so the
  // two squared distances are bitwise-equal doubles — a genuine tie,
  // not a last-ulp near-miss.  Many mirrored pairs across distinct
  // cells ensure some pair's cells land in shard order that would
  // betray a probe-order-sensitive implementation.
  for (const unsigned hash_bits : {64u, 2u}) {
    SeedCacheConfig config;
    config.cell_size = 0.25;
    config.max_distance = 0.125;
    config.shards = 16;
    config.hash_bits = hash_bits;

    std::vector<std::pair<linalg::Vec3, linalg::VecX>> inserts;
    std::vector<linalg::Vec3> queries;
    for (int i = 0; i < 16; ++i) {
      // Query on the x cell border at x = i (i / 0.25 is an integer);
      // entries mirrored 0.0625 either side.  0.0625 is exact, so both
      // d2 values are exactly 0.00390625.
      const double qx = static_cast<double>(i);
      const linalg::Vec3 query{qx, 0.125, 0.125};
      inserts.push_back({{qx - 0.0625, 0.125, 0.125},
                         thetaFor(1.0 + i)});  // cell ix = 4i - 1
      inserts.push_back({{qx + 0.0625, 0.125, 0.125},
                         thetaFor(100.0 + i)});  // cell ix = 4i
      queries.push_back(query);
    }
    expectParity(config, inserts, queries);
  }
}

TEST(SeedCacheLookupMany, HostileCoordinatesStayInRange) {
  // Far-off, infinite and NaN coordinates (corrupted or hostile input)
  // clamp to an edge cell instead of overflowing the cell arithmetic,
  // which an UBSan build traps; both lookup paths agree on them.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<linalg::Vec3> hostile = {
      {1e300, 0.0, 0.0},  {-1e300, -1e300, 1e300}, {inf, -inf, 0.0},
      {nan, 0.2, 0.3},    {9.3e18, -9.3e18, 0.0},  {0.1, 0.2, 0.3}};
  std::vector<std::pair<linalg::Vec3, linalg::VecX>> inserts;
  for (std::size_t i = 0; i < hostile.size(); ++i)
    inserts.push_back({hostile[i], thetaFor(static_cast<double>(i))});
  expectParity(SeedCacheConfig{}, inserts, hostile);
}

TEST(SeedCacheLookupMany, EmptyAndDegenerateBursts) {
  SeedCacheConfig config;
  SeedCache cache(config);
  EXPECT_EQ(cache.lookupMany(nullptr, 0, nullptr, nullptr), 0u);

  // All-miss burst on an empty cache.
  std::vector<linalg::Vec3> queries = {{0, 0, 0}, {1, 1, 1}};
  std::vector<linalg::VecX> seeds(2);
  std::vector<unsigned char> hits(2, 255);  // stale: must be cleared
  EXPECT_EQ(cache.lookupMany(queries.data(), 2, seeds.data(), hits.data()),
            0u);
  EXPECT_EQ(hits[0], 0);
  EXPECT_EQ(hits[1], 0);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SeedCacheLookupMany, RingEvictionStateStaysInParity) {
  // Overfill one cell so ring replacement engages; parity must hold on
  // the post-eviction contents.
  SeedCacheConfig config;
  config.cell_size = 0.5;
  config.max_entries_per_cell = 2;
  std::vector<std::pair<linalg::Vec3, linalg::VecX>> inserts;
  for (int i = 0; i < 7; ++i)
    inserts.push_back(
        {{0.1 + 0.01 * i, 0.1, 0.1}, thetaFor(static_cast<double>(i))});
  expectParity(config, inserts, {{0.12, 0.1, 0.1}, {0.16, 0.1, 0.1}});
}

}  // namespace
}  // namespace dadu::service
