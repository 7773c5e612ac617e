#ifndef HBOLD_SPARQL_PLANNER_H_
#define HBOLD_SPARQL_PLANNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/graph.h"
#include "sparql/ast.h"

namespace hbold::sparql {

/// How the cost-based planner may use the hash-join operator.
enum class HashJoinMode {
  kOff,   // always nested index-loop
  kCost,  // per-step cost model picks hash build vs index walk
  kForce, // hash-join every eligible step (sanitizer / differential runs)
};

/// Execution tuning knobs (exposed for the ablation benchmarks and the
/// differential test suite; defaults match production behaviour).
struct ExecOptions {
  /// Reorder triple patterns by estimated cardinality (per-predicate
  /// statistics + index range counts) before evaluation. Off = evaluate in
  /// the order the query wrote them.
  bool greedy_join_order = true;
  /// Route COUNT / COUNT(DISTINCT) / grouped-count queries to the store's
  /// index-arithmetic primitives instead of materializing binding rows.
  bool aggregate_pushdown = true;
  /// Push the 3-pattern star/range shape (the `?p ?rc` range-class query:
  /// anchor + open star + object-type chain) down to TripleStore sub-range
  /// span walks instead of materializing binding rows. Only consulted when
  /// aggregate_pushdown is also on.
  bool star_pushdown = true;
  /// Apply a FILTER as soon as every variable it mentions is bound inside
  /// the BGP join loop, instead of only after the whole group is joined.
  bool filter_pushdown = true;
  /// Stop the join loop once OFFSET+LIMIT rows exist, when no later
  /// modifier (ORDER BY / DISTINCT / aggregation) could change the slice.
  /// ASK queries stop at the first solution under the same flag.
  bool limit_pushdown = true;
  /// Physical join operator policy. The hash join builds on the pattern
  /// side (grouped by join key, bucket-sorted to the probe index's
  /// iteration order) and probes with the binding rows, so its output is
  /// bit-identical — rows, order, and charged intermediate_bindings — to
  /// the nested index-loop it replaces.
  HashJoinMode hash_join = HashJoinMode::kCost;
  /// When a hash-join build side exceeds this many bytes of triples, the
  /// build is externally sorted into a temporary on-disk run (by the same
  /// (join key, probe order) comparator the in-memory build sorts by) and
  /// probed via memory-mapped binary search instead of an in-RAM hash
  /// table. Output stays bit-identical; only the memory footprint changes.
  /// 0 disables spilling. The HBOLD_HASH_SPILL_BUDGET environment
  /// variable (bytes) replaces the *default* only — an explicitly
  /// configured budget wins over the env, so differential tests pinning
  /// spill behavior stay pinned under the CI-wide override.
  size_t hash_join_spill_budget_bytes = size_t{256} << 20;
};

/// Physical operator for one join step.
enum class JoinOp : uint8_t {
  kNestedIndexLoop = 0,
  kHashJoin = 1,
};

/// The physical plan of one basic graph pattern: the join order (indices
/// into the group's written triple list) plus the operator chosen for each
/// step. `ops` parallels `order`; step 0 is always a nested index scan
/// (there is nothing to probe with yet).
struct GroupPlan {
  std::vector<size_t> order;
  std::vector<JoinOp> ops;
};

/// The physical plan of a whole query: one GroupPlan per group graph
/// pattern, in pre-order AST traversal (group, then each union's left and
/// right, then each optional — see ForEachGroup). Plans are purely
/// structural (indices + operator enums, no variable names), so a plan
/// computed for one query applies to any alpha-renamed equivalent.
struct QueryPlan {
  std::vector<GroupPlan> groups;
};

/// Constant slots of a pattern resolved to term ids. `missing` means some
/// constant is absent from the dictionary, so the pattern can never match.
struct PatternConsts {
  rdf::TermId s = rdf::kInvalidTermId;
  rdf::TermId p = rdf::kInvalidTermId;
  rdf::TermId o = rdf::kInvalidTermId;
  bool missing = false;
};

PatternConsts ResolveConsts(const TriplePatternNode& t,
                            const rdf::Dictionary& dict);

/// Estimated number of rows one evaluation of `t` produces per input row,
/// from index range counts plus per-predicate statistics: the range count
/// over the constant slots, narrowed by the average fan-out for every
/// already-bound variable slot (whose concrete value is unknown at planning
/// time).
double EstimateCardinality(const TriplePatternNode& t, const PatternConsts& c,
                           const std::set<std::string>& bound,
                           const rdf::TripleStore* store);

/// Join order for one BGP: connectivity first (joining through a shared
/// variable avoids cartesian products on triangle and chain patterns), then
/// ascending cardinality estimate, ties broken by written position. The
/// order depends only on the pattern list — not on row values — so the
/// pushdown fast paths call the same function to stay accounting-identical
/// with the materializing path.
std::vector<size_t> PlanOrder(const std::vector<TriplePatternNode>& triples,
                              const ExecOptions& options,
                              const rdf::TripleStore* store);

/// Plans one group: PlanOrder plus the per-step physical operator choice.
/// The cost model compares, per step, the nested index-loop cost
/// (est_rows * log n probes) against the hash build (build-side range size
/// + probe pass); a step is hash-eligible only when it joins through at
/// least one previously bound variable and repeats no variable within the
/// pattern.
GroupPlan PlanGroup(const GroupGraphPattern& group, const ExecOptions& options,
                    const rdf::TripleStore* store);

/// Plans every group of `q` in ForEachGroup order.
QueryPlan PlanQuery(const SelectQuery& q, const ExecOptions& options,
                    const rdf::TripleStore* store);

/// Visits every group graph pattern of the WHERE tree in the canonical
/// pre-order: the group itself, then each union's left and right, then
/// each optional, recursively. Planning, execution, and key normalization
/// all traverse in this order so cached plans line up with the AST.
template <typename Fn>
void ForEachGroup(const GroupGraphPattern& g, Fn&& fn) {
  fn(g);
  for (const auto& u : g.unions) {
    ForEachGroup(*u.left, fn);
    ForEachGroup(*u.right, fn);
  }
  for (const auto& o : g.optionals) ForEachGroup(*o, fn);
}

/// Canonical cache key of a query's WHERE tree: variables renamed to
/// ?0, ?1, ... in order of first occurrence, constants serialized in
/// N-Triples form, group structure (triples / filters / unions /
/// optionals) encoded positionally. Two alpha-equivalent WHERE trees —
/// same shape, same constants, any variable names — produce the same key,
/// so renamed queries share one plan-cache entry. SELECT-clause
/// differences (projection, aggregates, modifiers) are deliberately not
/// part of the key: the plan is a function of the WHERE tree alone.
std::string NormalizeWhereKey(const SelectQuery& q);

/// Canonical cache key of ONE group graph pattern, taken in isolation: the
/// group's own triple list with variables renamed to ?0, ?1, ... by first
/// occurrence *within the group* (a fresh alias class per group, unlike
/// NormalizeWhereKey's whole-tree numbering). A group's physical plan is a
/// function of its triple list alone — filters and nested groups never
/// influence PlanGroup — so the key covers exactly the plan's inputs, and
/// the same OPTIONAL/UNION body reached from two structurally different
/// queries (or at two different nesting depths) shares one cached
/// GroupPlan.
std::string NormalizeGroupKey(const GroupGraphPattern& g);

/// Cumulative counters of one PlanCache (monotonic except `entries`,
/// `group_entries` and `capacity`).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  // generation flushes
  size_t entries = 0;          // normalized-tier entries currently resident
  size_t capacity = 0;         // current max entries per tier
  /// Group-tier counters. These are deliberately NOT folded into
  /// hits/misses: the per-query contract (hits + misses == queries
  /// executed) stays intact, and a whole-query miss may still harvest
  /// several group-tier hits for its OPTIONAL/UNION bodies.
  uint64_t group_hits = 0;
  uint64_t group_misses = 0;
  size_t group_entries = 0;  // group-tier entries currently resident
};

/// A fully prepared query: the parsed AST plus its physical plan. The
/// text tier of the PlanCache serves these so a repeated query skips
/// parsing AND planning (the classic prepared-statement fast path).
/// Immutable after insertion; execution reads the AST concurrently.
struct PreparedQuery {
  SelectQuery query;
  std::shared_ptr<const QueryPlan> plan;
};

/// Cross-query plan cache, three tiers, all scoped to one TripleStore
/// rebuild generation:
///   1. text tier: exact query text -> PreparedQuery (AST + plan) — the
///      steady-state repeated corpus skips parse and planning entirely.
///      The executor admits a text only when the normalized tier served
///      its plan (its shape was planned before in this generation), so a
///      one-shot text never pins an AST: a repeated text is admitted on
///      its second run and skips parsing from the third;
///   2. normalized tier: canonical WHERE key -> QueryPlan — alpha-renamed
///      spellings and different SELECT clauses over the same WHERE tree
///      share one plan (this is the tier the keying contract names);
///   3. group tier: NormalizeGroupKey -> GroupPlan for non-root groups
///      (OPTIONAL/UNION bodies). Consulted only on a whole-query miss:
///      queries that disagree at the top level but share a sub-group —
///      the extraction corpus's OPTIONAL label/comment tail is the
///      motivating case — replan only the parts that actually differ.
/// A lookup presenting a newer store generation misses; the next insert
/// flushes the stale epoch (all tiers — stats changed, plans are stale).
///
/// Hit/miss accounting: each executed query counts exactly once — a text
/// hit or a normalized hit is one hit, anything else one miss — so
/// hits + misses always equals queries executed through the cache.
///
/// Thread safety: lookups take a shared lock (concurrent readers on the
/// endpoints' lock-free query path never serialize against each other);
/// inserts take the exclusive lock. Entries are shared_ptr<const>, so a
/// plan stays valid for a reader even if the epoch is flushed mid-query.
///
/// Sharing discipline: one cache must only be shared by executors with
/// identical ExecOptions against the same store (plans depend on both).
/// LocalEndpoint owns exactly one cache per endpoint, which satisfies this
/// by construction.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 512;
  /// Ceiling for adaptive growth: even the largest observed corpus never
  /// grows a per-endpoint cache beyond this.
  static constexpr size_t kMaxAdaptiveCapacity = 8192;

  /// `adaptive = true` lets the cache grow with the observed corpus:
  /// instead of epoch-evicting when a tier fills, capacity doubles (up to
  /// kMaxAdaptiveCapacity) so a steady-state corpus slightly larger than
  /// the initial guess is not thrown away every pass. Off by default —
  /// fixed-capacity behavior is unchanged.
  explicit PlanCache(size_t max_entries = kDefaultCapacity,
                     bool adaptive = false)
      : max_entries_(max_entries == 0 ? 1 : max_entries),
        adaptive_(adaptive) {}

  /// Initial capacity adapted to an endpoint's corpus size: the extraction
  /// workload issues a bounded set of distinct query shapes roughly
  /// proportional to the endpoint's schema size, which tracks store size.
  /// Rounded to a power of two, clamped to [64, kMaxAdaptiveCapacity].
  static size_t CapacityForStoreSize(size_t num_triples) {
    size_t want = num_triples / 16;
    size_t cap = 64;
    while (cap < want && cap < kMaxAdaptiveCapacity) cap <<= 1;
    return cap;
  }

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Text tier: the prepared query for (text, generation), or null.
  /// Counts a hit when found; counts nothing on miss (the normalized-tier
  /// lookup that follows decides hit vs miss for the query).
  std::shared_ptr<const PreparedQuery> LookupPrepared(
      const std::string& text, uint64_t generation) const;

  /// Text tier insert (call after a successful parse + plan acquisition;
  /// the executor calls it only for normalized-tier hits).
  void InsertPrepared(const std::string& text, uint64_t generation,
                      std::shared_ptr<const PreparedQuery> prepared);

  /// Normalized tier: the cached plan for (key, generation), or null. A
  /// generation mismatch counts as a miss (the entry was planned against
  /// different store content / statistics).
  std::shared_ptr<const QueryPlan> Lookup(const std::string& key,
                                          uint64_t generation) const;

  /// Normalized tier insert. If the cache holds an older generation's
  /// epoch it is flushed first (counted as one invalidation). A full tier
  /// drops the whole epoch before inserting (bulk eviction: cheap,
  /// deterministic, and the steady-state corpus re-warms it).
  void Insert(const std::string& key, uint64_t generation,
              std::shared_ptr<const QueryPlan> plan);

  /// Group tier: the cached sub-plan for (group key, generation), or null.
  /// A hit bumps the entry's reuse counter (see GroupReuseStats).
  std::shared_ptr<const GroupPlan> LookupGroup(const std::string& key,
                                               uint64_t generation) const;

  /// Group tier insert; same epoch-flush and eviction discipline as the
  /// normalized tier.
  void InsertGroup(const std::string& key, uint64_t generation,
                   std::shared_ptr<const GroupPlan> plan);

  /// Per-group reuse counts for the resident epoch: (group key, times the
  /// entry was served after insertion), sorted by key so the listing is
  /// deterministic. An entry that was inserted but never reused reports 0.
  std::vector<std::pair<std::string, uint64_t>> GroupReuseStats() const;

  PlanCacheStats stats() const;
  size_t size() const;
  /// Current capacity (grows only in adaptive mode).
  size_t capacity() const;

 private:
  /// Drops both tiers when `generation` differs from the resident epoch.
  /// Caller holds the exclusive lock.
  void FlushIfStaleLocked(uint64_t generation);
  /// Handles a full tier before inserting a new key: adaptive caches
  /// double capacity (up to the ceiling); fixed caches epoch-evict the
  /// tier. Caller holds the exclusive lock. Returns true when the tier
  /// was cleared.
  bool MakeRoomLocked(size_t tier_size);

  /// One group-tier entry: the immutable sub-plan plus its reuse counter
  /// (atomic so hits under the shared lock can bump it without
  /// serializing readers).
  struct GroupEntry {
    std::shared_ptr<const GroupPlan> plan;
    std::unique_ptr<std::atomic<uint64_t>> reuses;
  };

  size_t max_entries_;  // mutable: adaptive growth under the exclusive lock
  const bool adaptive_;
  mutable std::shared_mutex mu_;
  uint64_t generation_ = 0;  // epoch of resident entries (guarded by mu_)
  std::unordered_map<std::string, std::shared_ptr<const QueryPlan>> entries_;
  std::unordered_map<std::string, std::shared_ptr<const PreparedQuery>>
      prepared_;
  std::unordered_map<std::string, GroupEntry> group_entries_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> invalidations_{0};
  mutable std::atomic<uint64_t> group_hits_{0};
  mutable std::atomic<uint64_t> group_misses_{0};
};

}  // namespace hbold::sparql

#endif  // HBOLD_SPARQL_PLANNER_H_
