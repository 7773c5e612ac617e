#ifndef HBOLD_VIZ_LAYOUT_CACHE_H_
#define HBOLD_VIZ_LAYOUT_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster_schema.h"
#include "schema/schema_summary.h"
#include "viz/circle_pack.h"
#include "viz/edge_bundling.h"
#include "viz/hierarchy.h"
#include "viz/sunburst.h"
#include "viz/treemap.h"

namespace hbold::viz {

/// Rendering knobs for one full layout set (all four Fig. 4-7 views).
struct LayoutSetOptions {
  double treemap_width = 800.0;
  double treemap_height = 600.0;
  TreemapOptions treemap;
  SunburstOptions sunburst;
  CirclePackOptions circle_pack;
  EdgeBundlingOptions bundling;

  /// Stable FNV-1a fingerprint over every knob — the options half of the
  /// cache key, so two services with different view settings never share
  /// entries.
  uint64_t Fingerprint() const;
};

/// Everything one "open cluster schema" interaction needs rendered: the
/// four layout geometries plus their SVG documents, and a byte-stable
/// fingerprint over the rendered output. Computed once per distinct
/// cluster-schema content, then served from the LayoutCache.
struct LayoutSet {
  std::vector<TreemapCell> treemap;
  std::vector<SunburstSlice> sunburst;
  std::vector<PackedCircle> circles;
  EdgeBundlingLayout bundling;
  std::string treemap_svg;
  std::string sunburst_svg;
  std::string circle_pack_svg;
  std::string bundling_svg;
  /// FNV-1a over the four rendered SVG byte streams — the geometry
  /// fingerprint session transcripts embed, so any divergence between the
  /// cached and on-the-fly paths (or across thread counts) is caught by
  /// byte comparison of transcripts.
  uint64_t geometry_fingerprint = 0;
};

/// Computes all four layouts and renders them to SVG — the cacheable viz
/// entry point. Deterministic: a pure function of its arguments.
LayoutSet ComputeLayoutSet(const schema::SchemaSummary& summary,
                           const cluster::ClusterSchema& clusters,
                           const std::string& dataset_name,
                           const LayoutSetOptions& options);

/// Everything ComputeLayoutSet reads, as content fingerprints: the Schema
/// Summary (leaf labels and counts, bundled arcs), the Cluster Schema and
/// the rendering options. Both content fingerprints cover the endpoint
/// URL, which is the dataset name the hierarchy root is drawn with. Equal
/// keys therefore always mean equal LayoutSets, so an entry never goes
/// stale; it only stops being asked for.
struct LayoutKey {
  uint64_t schema_fingerprint = 0;
  uint64_t cluster_fingerprint = 0;
  uint64_t options_fingerprint = 0;

  auto Tie() const {
    return std::tie(schema_fingerprint, cluster_fingerprint,
                    options_fingerprint);
  }
  bool operator<(const LayoutKey& o) const { return Tie() < o.Tie(); }
  bool operator==(const LayoutKey& o) const { return Tie() == o.Tie(); }
};

struct LayoutCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Entries dropped by LRU capacity or by Prune.
  uint64_t evictions = 0;
};

/// Thread-safe LRU cache of LayoutSets keyed on their full content
/// (LayoutKey). Because the key covers every input, entries survive
/// snapshot refreshes: the serving layer prunes the keys its new catalog
/// no longer names and keeps the rest, so a dataset whose Schema Summary
/// and Cluster Schema did not change is never laid out again.
///
/// Lookups are single-flight: concurrent requests for the same key block
/// on one computation instead of racing it, which both saves the duplicate
/// work and keeps hit/miss counters deterministic under any thread count
/// (misses == distinct keys requested, always).
class LayoutCache {
 public:
  /// `capacity` is clamped to >= 1.
  explicit LayoutCache(size_t capacity = 256);

  /// Returns the cached set for the key, computing it via `compute` on
  /// first request. `compute` runs outside the cache lock; concurrent
  /// callers with the same key wait for the in-flight computation.
  std::shared_ptr<const LayoutSet> GetOrCompute(
      const LayoutKey& key, const std::function<LayoutSet()>& compute);

  /// Evicts every entry whose key is not in `live` (each counted as an
  /// eviction) and keeps the rest with their LRU order.
  void Prune(const std::set<LayoutKey>& live);

  LayoutCacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const LayoutSet>> future;
    std::list<LayoutKey>::iterator lru_it;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::map<LayoutKey, Entry> entries_;
  std::list<LayoutKey> lru_;  // front = most recently used
  LayoutCacheStats stats_;
};

}  // namespace hbold::viz

#endif  // HBOLD_VIZ_LAYOUT_CACHE_H_
