#include "viz/layout_cache.h"

#include <sstream>

#include "common/hash.h"
#include "viz/render.h"

namespace hbold::viz {

namespace {

/// Folds a value's canonical text form into an FNV-1a state. Going through
/// text (rather than raw bytes) keeps the fingerprint independent of
/// struct padding and float endianness.
void Fold(std::ostringstream* os, double v) { *os << v << '|'; }
void Fold(std::ostringstream* os, size_t v) { *os << v << '|'; }
void Fold(std::ostringstream* os, int v) { *os << v << '|'; }

uint64_t FoldSvg(uint64_t h, const std::string& svg) {
  // FNV-1a continuation over the SVG bytes plus a separator so that
  // concatenation ambiguity between documents cannot alias.
  for (unsigned char c : svg) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  h ^= static_cast<unsigned char>('|');
  h *= 1099511628211ULL;
  return h;
}

}  // namespace

uint64_t LayoutSetOptions::Fingerprint() const {
  std::ostringstream os;
  os.precision(17);
  Fold(&os, treemap_width);
  Fold(&os, treemap_height);
  Fold(&os, treemap.padding);
  Fold(&os, treemap.header);
  Fold(&os, static_cast<int>(treemap.algorithm));
  Fold(&os, sunburst.radius);
  Fold(&os, sunburst.inner_hole);
  Fold(&os, sunburst.ring_gap);
  Fold(&os, circle_pack.radius);
  Fold(&os, circle_pack.padding_fraction);
  Fold(&os, bundling.radius);
  Fold(&os, bundling.beta);
  Fold(&os, bundling.samples_per_segment);
  Fold(&os, bundling.cluster_radius_fraction);
  return Fnv64(os.str());
}

LayoutSet ComputeLayoutSet(const schema::SchemaSummary& summary,
                           const cluster::ClusterSchema& clusters,
                           const std::string& dataset_name,
                           const LayoutSetOptions& options) {
  LayoutSet set;
  Hierarchy root = HierarchyFromClusterSchema(clusters, summary, dataset_name);

  set.treemap = TreemapLayout(
      root, Rect{0, 0, options.treemap_width, options.treemap_height},
      options.treemap);
  set.sunburst = SunburstLayout(root, options.sunburst);
  set.circles = CirclePackLayout(root, options.circle_pack);
  set.bundling = BundleSchemaSummary(summary, clusters, options.bundling);

  set.treemap_svg = RenderTreemap(set.treemap, options.treemap_width,
                                  options.treemap_height)
                        .ToString();
  set.sunburst_svg = RenderSunburst(set.sunburst, options.sunburst.radius)
                         .ToString();
  set.circle_pack_svg =
      RenderCirclePack(set.circles, options.circle_pack.radius).ToString();
  set.bundling_svg =
      RenderEdgeBundling(set.bundling, options.bundling.radius).ToString();

  uint64_t h = 1469598103934665603ULL;
  h = FoldSvg(h, set.treemap_svg);
  h = FoldSvg(h, set.sunburst_svg);
  h = FoldSvg(h, set.circle_pack_svg);
  h = FoldSvg(h, set.bundling_svg);
  set.geometry_fingerprint = h;
  return set;
}

LayoutCache::LayoutCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const LayoutSet> LayoutCache::GetOrCompute(
    const LayoutKey& key, const std::function<LayoutSet()>& compute) {
  std::shared_future<std::shared_ptr<const LayoutSet>> future;
  std::promise<std::shared_ptr<const LayoutSet>> promise;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      future = it->second.future;
    } else {
      ++stats_.misses;
      owner = true;
      future = promise.get_future().share();
      lru_.push_front(key);
      entries_.emplace(key, Entry{future, lru_.begin()});
      while (entries_.size() > capacity_) {
        LayoutKey victim = lru_.back();
        // Never evict the entry we are about to fill — its waiters hold
        // the future, but a re-request would recompute needlessly.
        if (victim == key) break;
        lru_.pop_back();
        entries_.erase(victim);
        ++stats_.evictions;
      }
    }
  }
  if (owner) {
    try {
      promise.set_value(std::make_shared<const LayoutSet>(compute()));
    } catch (...) {
      promise.set_exception(std::current_exception());
      {
        // Don't cache a failed computation; a retry should recompute.
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
          lru_.erase(it->second.lru_it);
          entries_.erase(it);
        }
      }
    }
  }
  return future.get();
}

void LayoutCache::Prune(const std::set<LayoutKey>& live) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (live.count(it->first) != 0) {
      ++it;
      continue;
    }
    lru_.erase(it->second.lru_it);
    it = entries_.erase(it);
    ++stats_.evictions;
  }
}

LayoutCacheStats LayoutCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t LayoutCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace hbold::viz
