#ifndef HBOLD_SPARQL_EXECUTOR_H_
#define HBOLD_SPARQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "rdf/graph.h"
#include "sparql/ast.h"
#include "sparql/planner.h"
#include "sparql/results.h"

namespace hbold::sparql {

/// Statistics about one query execution, used by the endpoint latency model
/// (cost proportional to scanned/produced bindings) and by the differential
/// fast-path tests.
///
/// `intermediate_bindings` is a *modeled* cost: the pushdown fast paths
/// charge exactly the bindings the materializing path would have produced
/// (computed by index range arithmetic), and the hash join emits exactly
/// the rows the nested index-loop would have, so simulated endpoint
/// latencies and work-budget decisions are bit-identical whichever
/// physical plan ran.
///
/// The planner counters (`plan_cache_*`, `hash_join_builds`) are
/// deployment figures: they describe which machinery answered the query,
/// never how much simulated work it charged, and are excluded from every
/// canonical accounting contract.
struct ExecStats {
  size_t intermediate_bindings = 0;  // rows produced across all BGP steps
  size_t result_rows = 0;
  size_t fast_path_hits = 0;  // queries answered by aggregate/star pushdown
  size_t rows_avoided = 0;    // binding rows never materialized by pushdown
  size_t plan_cache_hits = 0;    // plan served from the cross-query cache
  size_t plan_cache_misses = 0;  // plan computed (and cached) this query
  size_t hash_join_builds = 0;   // hash tables built by join steps
  /// Probes served by an already-built hash table: OPTIONAL re-evaluations
  /// plus distinct steps sharing one (constants, key mask) build.
  size_t hash_join_build_reuses = 0;
  /// Hash-join builds that exceeded ExecOptions::hash_join_spill_budget_bytes
  /// and were externally sorted to a temporary on-disk run.
  size_t hash_join_spills = 0;
};

/// A query text resolved against the prepared-statement tier: the cached
/// PreparedQuery on a text-tier hit, otherwise the freshly parsed AST, not
/// yet planned. Executor::Resolve produces it and Executor::Execute
/// consumes it; in between, callers may inspect query() (the simulated
/// endpoints' dialect gate does), and dropping an unexecuted miss leaves
/// the plan cache untouched.
class ResolvedQuery {
 public:
  const SelectQuery& query() const {
    return prepared_ != nullptr ? prepared_->query : parsed_;
  }

 private:
  friend class Executor;
  std::shared_ptr<const PreparedQuery> prepared_;  // text-tier hit
  SelectQuery parsed_;                             // miss: parsed only
  std::string text_;         // miss with a cache: the text-tier key
  uint64_t generation_ = 0;  // store generation the text was resolved at
};

/// Evaluates SELECT queries against a TripleStore.
///
/// Evaluation strategy: the cost-based planner (sparql/planner.h) fixes a
/// join order and a physical operator per step; a pushdown layer first
/// tries to answer the count-query family and the 3-pattern star/range
/// shape with index arithmetic / sub-range span walks. Otherwise triple
/// patterns evaluate in planned order — nested index-loops or
/// order-preserving hash joins — extending a binding table; FILTERs run as
/// soon as their variables are bound; OPTIONALs are left joins; UNION
/// concatenates the two sides' solutions. All physical paths produce
/// bit-identical result tables and ExecStats::intermediate_bindings.
///
/// `plan_cache`, when non-null, memoizes physical plans across queries
/// keyed on the normalized WHERE tree and the store's rebuild generation.
/// The cache must be dedicated to (store, options) — LocalEndpoint owns
/// one per endpoint. Cached and freshly planned executions are
/// bit-identical by construction (plans are deterministic functions of the
/// store content, and a rebuilt store changes its generation).
class Executor {
 public:
  explicit Executor(const rdf::TripleStore* store, ExecOptions options = {},
                    PlanCache* plan_cache = nullptr);

  /// Resolve(query_text) then Execute(resolved). With a plan cache
  /// attached, a text run a third time is served from the
  /// prepared-statement tier — no parse, no planning; its second run and
  /// any new spelling of a cached WHERE tree share the plan through the
  /// normalized tier.
  Result<ResultTable> Execute(std::string_view query_text,
                              ExecStats* stats = nullptr) const;

  /// Step 1: looks `query_text` up in the text tier (a hit is counted by
  /// the cache) and parses it on a miss. Plans nothing.
  Result<ResolvedQuery> Resolve(std::string_view query_text) const;

  /// Step 2: runs a resolved query. A text-tier miss is planned here; it
  /// enters the text tier only when the normalized tier served its plan,
  /// i.e. when this shape was already planned in this store generation.
  Result<ResultTable> Execute(ResolvedQuery resolved,
                              ExecStats* stats = nullptr) const;

  /// Executes an already-parsed query (normalized plan-cache tier only).
  Result<ResultTable> Execute(const SelectQuery& query,
                              ExecStats* stats = nullptr) const;

  const ExecOptions& options() const { return options_; }

 private:
  /// Cache lookup / planning for `q`; counts hit/miss into `stats`.
  /// `reused`, when given, is set to whether the normalized tier served
  /// the plan.
  std::shared_ptr<const QueryPlan> AcquirePlan(const SelectQuery& q,
                                               ExecStats* stats,
                                               bool* reused = nullptr) const;
  /// Runs `q` under a fixed physical plan.
  Result<ResultTable> ExecutePlanned(const SelectQuery& q,
                                     const QueryPlan& plan,
                                     ExecStats* stats) const;

  const rdf::TripleStore* store_;
  ExecOptions options_;
  PlanCache* plan_cache_;
};

}  // namespace hbold::sparql

#endif  // HBOLD_SPARQL_EXECUTOR_H_
