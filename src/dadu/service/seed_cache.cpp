#include "dadu/service/seed_cache.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dadu::service {
namespace {

/// SplitMix64 finalizer: cheap, well-mixed 64-bit hash for cell keys.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mix each axis before combining so neighbouring cells land in
/// unrelated buckets (and shards).
std::uint64_t mixCoord(std::int64_t ix, std::int64_t iy, std::int64_t iz) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(ix));
  h = mix64(h ^ static_cast<std::uint64_t>(iy));
  h = mix64(h ^ static_cast<std::uint64_t>(iz));
  return h;
}

}  // namespace

std::size_t SeedCache::CellHash::operator()(const CellCoord& c) const {
  return static_cast<std::size_t>(mixCoord(c.ix, c.iy, c.iz) & mask);
}

SeedCache::SeedCache(SeedCacheConfig config) : config_(config) {
  if (!(config_.cell_size > 0.0))
    throw std::invalid_argument("SeedCache: cell_size must be > 0");
  if (!(config_.max_distance >= 0.0))
    throw std::invalid_argument("SeedCache: max_distance must be >= 0");
  config_.shards = std::max<std::size_t>(config_.shards, 1);
  config_.max_entries_per_cell =
      std::max<std::size_t>(config_.max_entries_per_cell, 1);
  config_.hash_bits = std::min(config_.hash_bits, 64u);
  hash_mask_ = config_.hash_bits >= 64
                   ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << config_.hash_bits) - 1);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Seed the map with the truncating hasher (test seam; identity in
    // production where hash_bits is 64).
    shard->cells = std::unordered_map<CellCoord, Cell, CellHash>(
        /*bucket_count=*/8, CellHash{hash_mask_});
    shards_.push_back(std::move(shard));
  }
}

std::int64_t SeedCache::quantize(double v) const {
  // Clamp before the cast: a far-off, infinite or NaN coordinate (from
  // hostile or corrupted input) must overflow neither the conversion
  // nor the neighbour probes' +-1.  Such targets share an edge cell.
  constexpr double kEdge = 4.0e18;  // below 2^62
  const double cell = std::floor(v / config_.cell_size);
  if (!(cell > -kEdge)) return static_cast<std::int64_t>(-kEdge);
  if (!(cell < kEdge)) return static_cast<std::int64_t>(kEdge);
  return static_cast<std::int64_t>(cell);
}

SeedCache::CellCoord SeedCache::cellOf(const linalg::Vec3& p) const {
  return {quantize(p.x), quantize(p.y), quantize(p.z)};
}

std::uint64_t SeedCache::cellHash(const CellCoord& c) const {
  return mixCoord(c.ix, c.iy, c.iz) & hash_mask_;
}

SeedCache::Shard& SeedCache::shardFor(const CellCoord& c) const {
  // Shard choice rides the (possibly truncated) hash: collisions here
  // are harmless — they only co-locate two cells behind one mutex.
  return *shards_[cellHash(c) % shards_.size()];
}

void SeedCache::probeCell(const CellCoord& coord, const linalg::Vec3& target,
                          double& best_d2, linalg::VecX& seed,
                          bool& found) const {
  Shard& shard = shardFor(coord);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.cells.find(coord);
  if (it == shard.cells.end()) return;
  for (const Entry& e : it->second.entries) {
    const double d2 = (e.target - target).squaredNorm();
    if (d2 < best_d2) {
      best_d2 = d2;
      seed = e.theta;
      found = true;
    }
  }
}

bool SeedCache::lookup(const linalg::Vec3& target, linalg::VecX& seed) const {
  const CellCoord home = cellOf(target);

  double best_d2 = config_.max_distance * config_.max_distance;
  // Accept entries *at* max_distance too (strict-less in probeCell
  // would reject an exact-radius tie); widen by the smallest usable
  // epsilon.
  best_d2 = std::nextafter(best_d2, best_d2 + 1.0);
  bool found = false;

  if (config_.search_neighbors) {
    for (std::int64_t dx = -1; dx <= 1; ++dx)
      for (std::int64_t dy = -1; dy <= 1; ++dy)
        for (std::int64_t dz = -1; dz <= 1; ++dz)
          probeCell({home.ix + dx, home.iy + dy, home.iz + dz}, target,
                    best_d2, seed, found);
  } else {
    probeCell(home, target, best_d2, seed, found);
  }

  (found ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return found;
}

std::size_t SeedCache::lookupMany(const linalg::Vec3* targets,
                                  std::size_t count, linalg::VecX* seeds,
                                  unsigned char* hits) const {
  if (count == 0) return 0;

  double init_d2 = config_.max_distance * config_.max_distance;
  init_d2 = std::nextafter(init_d2, init_d2 + 1.0);
  std::vector<double> best_d2(count, init_d2);
  // Rank of the probe that supplied each query's current best — the
  // cell's position in lookup()'s (dx, dy, dz) probe order.  Probes
  // here execute in shard order instead, so on an exact-distance tie
  // between entries in different cells the rank decides, reproducing
  // "first probed cell wins" exactly.  (Within one cell, strict < on
  // d2 already keeps the earliest entry, as probeCell does.)
  constexpr std::uint32_t kNoRank = ~std::uint32_t{0};
  std::vector<std::uint32_t> best_rank(count, kNoRank);
  for (std::size_t q = 0; q < count; ++q) hits[q] = 0;

  // Bucket every (query, cell) probe by the shard that owns the cell.
  struct Probe {
    CellCoord coord;
    std::uint32_t query;
    std::uint32_t rank;
  };
  std::vector<std::vector<Probe>> by_shard(shards_.size());
  for (std::size_t q = 0; q < count; ++q) {
    const CellCoord home = cellOf(targets[q]);
    std::uint32_t rank = 0;
    const auto add = [&](const CellCoord& c) {
      by_shard[cellHash(c) % shards_.size()].push_back(
          {c, static_cast<std::uint32_t>(q), rank++});
    };
    if (config_.search_neighbors) {
      for (std::int64_t dx = -1; dx <= 1; ++dx)
        for (std::int64_t dy = -1; dy <= 1; ++dy)
          for (std::int64_t dz = -1; dz <= 1; ++dz)
            add({home.ix + dx, home.iy + dy, home.iz + dz});
    } else {
      add(home);
    }
  }

  // One lock per shard per burst; inside, the per-entry tightening is
  // exactly probeCell's, plus the rank tie-break.
  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Probe& probe : by_shard[s]) {
      const auto it = shard.cells.find(probe.coord);
      if (it == shard.cells.end()) continue;
      for (const Entry& e : it->second.entries) {
        const double d2 = (e.target - targets[probe.query]).squaredNorm();
        if (d2 < best_d2[probe.query] ||
            (d2 == best_d2[probe.query] &&
             probe.rank < best_rank[probe.query])) {
          best_d2[probe.query] = d2;
          best_rank[probe.query] = probe.rank;
          seeds[probe.query] = e.theta;
          hits[probe.query] = 1;
        }
      }
    }
  }

  std::size_t hit_count = 0;
  for (std::size_t q = 0; q < count; ++q) hit_count += hits[q];
  hits_.fetch_add(hit_count, std::memory_order_relaxed);
  misses_.fetch_add(count - hit_count, std::memory_order_relaxed);
  return hit_count;
}

void SeedCache::insert(const linalg::Vec3& target, const linalg::VecX& theta) {
  const CellCoord coord = cellOf(target);
  Shard& shard = shardFor(coord);
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    Cell& cell = shard.cells[coord];
    if (cell.entries.size() < config_.max_entries_per_cell) {
      cell.entries.push_back({target, theta});
    } else {
      // Ring replacement: overwrite the oldest slot.  Keeps the cell
      // fresh under sustained traffic without per-entry timestamps.
      cell.entries[cell.next_slot] = {target, theta};
      cell.next_slot = (cell.next_slot + 1) % config_.max_entries_per_cell;
      evicted = true;
    }
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (evicted) evictions_.fetch_add(1, std::memory_order_relaxed);
}

SeedCacheStats SeedCache::stats() const {
  SeedCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

std::size_t SeedCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, cell] : shard->cells) total += cell.entries.size();
  }
  return total;
}

void SeedCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->cells.clear();
  }
}

}  // namespace dadu::service
