#ifndef HBOLD_HBOLD_SERVER_H_
#define HBOLD_HBOLD_SERVER_H_

#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/result.h"
#include "endpoint/endpoint.h"
#include "endpoint/registry.h"
#include "extraction/extractor.h"
#include "extraction/scheduler.h"
#include "store/database.h"

namespace hbold {

class ThreadPool;

/// Store collection names used by the server layer.
inline constexpr const char* kSummariesCollection = "schema_summaries";
inline constexpr const char* kClustersCollection = "cluster_schemas";
inline constexpr const char* kRegistryCollection = "registry";
/// Raw IndexSummary documents, persisted only under incremental modes —
/// the `prior` a dirty-class merge starts from.
inline constexpr const char* kIndexesCollection = "index_summaries";

/// How the daily cycle reacts to endpoint data changing between days.
enum class IncrementalMode {
  /// Pre-incremental behavior: no probes, full re-extraction every due
  /// day. Reports and store contents are byte-identical to builds that
  /// predate incremental extraction.
  kOff,
  /// Issue the change probe and persist fingerprints + index summaries,
  /// but still run the full extraction every due day. The control arm:
  /// identical artifacts to kDelta, none of the savings.
  kTrack,
  /// Full incremental path: skip quiet endpoints outright (one probe
  /// query), re-extract only dirty classes and patch the summaries in
  /// place, fall back to full re-extraction past the dirty-fraction
  /// threshold or when the probe is unsupported.
  kDelta,
  /// kDelta plus a staleness bound: probes are trusted for at most
  /// `staleness_budget_days` simulated days, after which a full refresh is
  /// forced regardless of what they claim. The backstop against endpoints
  /// whose probes lie consistently enough to evade delta validation — a
  /// persistent quiet-liar drifts for at most one budget window before a
  /// forced refresh restores (and verifies) the stored artifacts.
  kBounded,
};

/// Knobs for incremental extraction.
struct IncrementalOptions {
  IncrementalMode mode = IncrementalMode::kOff;
  /// Dirty-class fraction (dirty + removed over current classes) above
  /// which patching is pointless and kDelta runs a full re-extraction.
  double full_refresh_fraction = 0.5;
  /// kBounded only: maximum days since the last *full* (verified)
  /// extraction before one is forced.
  int64_t staleness_budget_days = 7;
  /// Adaptive staleness budgets (kBounded): when > 0, every lifetime
  /// strike on an endpoint's record tightens its *effective* budget by
  /// this many days — endpoints with a divergence history get verified
  /// more often — floored at min_staleness_budget_days. 0 keeps the
  /// fixed budget for everyone (default; preserves earlier histories).
  int64_t strike_budget_penalty_days = 0;
  /// Floor for the adaptive budget: even a heavily-struck endpoint keeps
  /// at least this many days between forced refreshes.
  int64_t min_staleness_budget_days = 1;
  /// Strike decay: when > 0, each time an endpoint's divergence-free
  /// clean streak reaches a multiple of this many cycles, one lifetime
  /// strike (and one pending suspect strike) is forgiven — the adaptive
  /// budget relaxes back toward the configured one on long-clean
  /// endpoints. 0 = strikes never decay (default).
  int64_t strike_decay_clean_cycles = 0;
  /// Transient probe failures (Timeout while the endpoint is up) retried
  /// within one attempt before degrading to a probe-less full extraction.
  /// Retries are deterministic: the endpoint's fault coins are salted by a
  /// per-day attempt index, never by wall clock.
  int max_probe_retries = 2;
  /// Detected divergences (delta validation failure, lying-quiet probe)
  /// before the endpoint is quarantined. Each divergence also forces a
  /// full refresh and drops the persisted fingerprints.
  int64_t quarantine_strikes = 3;
  /// Days a quarantine lasts; while quarantined every cycle is a forced
  /// full refresh and probe claims are never trusted.
  int64_t quarantine_days = 3;
  /// Consecutive divergence-free successful cycles a suspect endpoint
  /// needs before it is trusted (and probe-skip eligible) again.
  int64_t parole_clean_cycles = 2;
  /// Post-merge delta validation: echo the change probe after a dirty-
  /// class merge and cross-check generation, per-class fingerprints, and
  /// the merged class set against it. A mismatch discards the merge, runs
  /// a full refresh, and strikes the endpoint.
  bool validate_deltas = true;
};

/// Outcome of processing one endpoint through the full pipeline.
struct PipelineReport {
  std::string url;
  extraction::ExtractionReport extraction;
  double extraction_ms = 0;   // simulated endpoint latency total
  double summary_ms = 0;      // Schema Summary build (wall clock)
  double cluster_ms = 0;      // community detection + Cluster Schema build
  double persist_ms = 0;      // store writes
  size_t classes = 0;
  size_t arcs = 0;
  size_t clusters = 0;
  /// §3.2: "if the Schema Summary does not change then the Cluster Schema
  /// will not change [either], so it does not make sense to recompute" —
  /// true when the freshly extracted summary matched the stored content
  /// hash and the clustering + persist stages were skipped.
  bool reused_cluster_schema = false;
  /// A change probe was issued (incremental modes; charged as one query).
  bool probed = false;
  /// The probe found the endpoint quiet and the whole pipeline was skipped
  /// against the stored artifacts (kDelta only; implies
  /// reused_cluster_schema).
  bool probe_skipped = false;
  /// The dirty-class re-extraction path ran instead of a full extraction
  /// (kDelta only).
  bool delta_extracted = false;
  /// Dirty / vanished class counts the probe diff produced (set whenever
  /// probed, whatever path was then taken).
  size_t dirty_classes = 0;
  size_t removed_classes = 0;
  /// Adversarial-endpoint defense surface. All false/zero on honest
  /// fleets, so pre-hardening reports are unchanged.
  /// A probe claim was contradicted — delta validation echo failed, or a
  /// full refresh found content change behind a claimed-quiet generation.
  bool probe_mismatch = false;
  /// A full extraction ran where the probe alone would have allowed a skip
  /// or delta: divergence detected, staleness budget exhausted, or the
  /// endpoint was quarantined.
  bool forced_refresh = false;
  /// The endpoint was in quarantine when this cycle processed it.
  bool quarantined = false;
  bool quarantine_entered = false;
  bool quarantine_exited = false;
  /// Transient probe failures retried within this attempt (the retries are
  /// not charged as queries; only outcomes that returned data are).
  size_t probe_retries = 0;
  /// Days since the endpoint's last verified full refresh, as of this
  /// cycle's start (0 when it has never completed one or just did).
  int64_t staleness_days = 0;
};

/// Per due-list entry accounting for one daily cycle, in due (registry)
/// order — failures included, which the aggregate `reports` list is not.
/// This is what lets a fleet recompute cost sums in a canonical global
/// order, bit-identically regardless of how endpoints were sharded, and
/// lets per-endpoint policies (adaptive batch width, churn detection) see
/// which URLs failed.
struct DueOutcome {
  std::string url;
  bool succeeded = false;
  /// Sequential sum of the attempt's simulated query latencies — the cost
  /// charged to the cycle ledger (nonzero even for failed attempts that
  /// spent queries before giving up).
  double charged_latency_ms = 0;
  /// The same attempt's intra-pipeline (batched) duration.
  double charged_intra_ms = 0;
};

/// The §3.1 cycle counters, shared by every report level: a DailyReport
/// folds its successful pipelines into them, a FleetDayReport sums its
/// shards' with +=, and one serializer writes them wherever a report is
/// dumped. Integer sums are order-free, so a merged CounterSet is the same
/// whatever the shard count or the merge order.
struct CounterSet {
  // ---- canonical: deployment-invariant, part of CanonicalDump() ----
  size_t due = 0;
  size_t succeeded = 0;
  size_t failed = 0;
  /// Successful runs whose Schema Summary was unchanged (clustering
  /// skipped per §3.2). Probe-skips count here too — a skipped pipeline
  /// is the strongest form of reuse.
  size_t reused = 0;
  /// Incremental-extraction counters over the successful runs: probes
  /// issued, endpoints skipped as quiet, dirty-class re-extractions.
  size_t probes = 0;
  size_t probe_skips = 0;
  size_t delta_extractions = 0;
  /// Adversarial-endpoint defense counters (all zero on honest fleets;
  /// see the PipelineReport flags they fold).
  size_t probe_mismatches = 0;
  size_t forced_refreshes = 0;
  size_t quarantines_entered = 0;
  size_t quarantines_exited = 0;
  /// Days since the last verified full refresh -> successful endpoint
  /// count. Populated only under the delta modes (kDelta/kBounded).
  std::map<int64_t, size_t> staleness_histogram;

  // ---- deployment: how the work was computed, not what ----
  /// Query-engine plan-cache and hash-join activity. A concurrent batch
  /// can turn one would-be hit into a second miss, so these sit next to
  /// the wall clock and stay out of the canonical content.
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  size_t hash_join_builds = 0;

  /// Counts one successful pipeline: `succeeded` and every counter its
  /// flags set. `staleness` adds its staleness_days to the histogram.
  void AddSuccess(const PipelineReport& report, bool staleness);

  CounterSet& operator+=(const CounterSet& other);

  /// Sets every counter on the JSON object `out`. `canonical` writes only
  /// what the canonical dump has always carried: due/succeeded/failed/
  /// reused always; probes/probe_skips/delta_extractions only when
  /// probes > 0; each defense counter and the histogram only when
  /// nonzero/non-empty; no deployment counter. Otherwise all are written.
  void WriteTo(Json* out, bool canonical) const;
};

/// Outcome of one daily update cycle (§3.1).
struct DailyReport : CounterSet {
  int64_t day = 0;
  /// Worker count the cycle ran with (1 = sequential).
  int parallelism = 1;
  /// Real wall-clock of the whole cycle.
  double wall_ms = 0;
  /// Sum of all pipelines' simulated extraction latency, including the
  /// latency failed attempts accrued before giving up — the *cost*
  /// figure, identical regardless of parallelism.
  double sum_latency_ms = 0;
  /// Deterministic list-scheduling makespan of the simulated latencies
  /// over `parallelism` workers — the *duration* figure a SimClock should
  /// be advanced by. Equals sum_latency_ms when parallelism == 1.
  ///
  /// Charged from each pipeline's *sequential* latency total, so the
  /// figure is bit-identical whether intra-pipeline batching is on or
  /// off — batching shows up in batched_makespan_ms instead.
  double makespan_ms = 0;
  /// Same list-scheduling makespan, but each pipeline's duration is its
  /// intra-pipeline makespan (queries inside one extraction overlapping
  /// up to ServerOptions::query_batch_width). Equals makespan_ms when
  /// batching is off; the gap between the two is what intra-pipeline
  /// fan-out buys.
  double batched_makespan_ms = 0;
  /// Reports in registry (due-list) order, independent of the order in
  /// which workers actually finished.
  std::vector<PipelineReport> reports;
  /// One entry per due-list URL (success or failure), in due order, with
  /// the exact costs the ledgers were charged.
  std::vector<DueOutcome> outcomes;
};

/// Server construction knobs (ExecOptions-style).
struct ServerOptions {
  /// §3.1 refresh age: re-extract after N days (7 in the paper).
  int64_t refresh_age_days = 7;
  /// Worker threads for the daily cycle; <= 1 runs sequentially inline.
  int parallelism = 1;
  /// Intra-pipeline fan-out: max concurrent queries one extraction may
  /// have in flight against its endpoint (the politeness cap batched
  /// strategies honor). <= 1 keeps every pipeline's queries sequential.
  /// Batch work runs on the *same* pool as the pipelines themselves —
  /// one pool serves both layers, so total threads never exceed
  /// `parallelism` no matter how wide the batches are.
  int query_batch_width = 1;
  /// Incremental extraction (change probes + dirty-class patching). Off
  /// by default: kOff runs are byte-identical to pre-incremental builds.
  IncrementalOptions incremental;
  /// Page size for the paginated-scan strategy, 0 = the strategy's
  /// default. Tests and benches shrink it so the small simulated stores
  /// exercise multi-page scans (and the restricted dirty-class scan's
  /// cost model) the way real million-triple endpoints would.
  size_t paginated_page_size = 0;
};

/// H-BOLD's server layer: owns the endpoint registry and the document
/// store, runs Index Extraction -> Schema Summary -> Cluster Schema ->
/// persist for each endpoint, and the daily refresh cycle.
///
/// The "network" is a map from endpoint URL to a SparqlEndpoint*; in
/// production these would be HTTP clients, here they are simulated
/// endpoints.
class Server {
 public:
  /// The server *reads* simulated time from `clock` and never advances
  /// it: under the event loop only the loop's dispatcher moves time (a
  /// Fleet passes its loop's clock), and a caller driving manual cycles
  /// advances its own clock between them. `db` and `clock` must outlive
  /// the server.
  Server(store::Database* db, const SimClock* clock,
         const ServerOptions& options = {});

  const ServerOptions& options() const { return options_; }

  endpoint::EndpointRegistry& registry() { return registry_; }
  const endpoint::EndpointRegistry& registry() const { return registry_; }
  store::Database* db() { return db_; }

  /// Attaches a live endpoint for `url` (does not register it).
  void AttachEndpoint(const std::string& url, endpoint::SparqlEndpoint* ep);

  /// Removes the route to `url` (the registry record stays — subsequent
  /// attempts fail Unavailable and retry daily per §3.1). Like
  /// AttachEndpoint, only between cycles, never concurrently with one.
  void DetachEndpoint(const std::string& url);

  /// Overrides the intra-pipeline batch width for one endpoint (clamped
  /// to >= 1); 0 clears back to ServerOptions::query_batch_width. The
  /// fleet's adaptive-width policy drives this between cycles from
  /// observed per-endpoint throttling. Deterministic-accounting contract:
  /// width only moves duration figures (intra/batched makespans), never
  /// the work or cost figures, so overrides cannot perturb report
  /// bit-identity. Only between cycles, never concurrently with one.
  void SetQueryBatchWidthOverride(const std::string& url, int width);

  /// The batch width ProcessEndpoint will use for `url` right now.
  int QueryBatchWidthFor(const std::string& url) const;

  /// Registers an endpoint record; returns false on duplicate URL.
  bool RegisterEndpoint(endpoint::EndpointRecord record);

  /// Runs the full pipeline for one endpoint and persists the results.
  /// Updates the registry bookkeeping. Fails (and records the failure) when
  /// the endpoint is unreachable or extraction fails.
  ///
  /// Re-entrant: safe to call concurrently for *distinct* URLs — the
  /// store serializes per-collection writes, the registry serializes
  /// bookkeeping, and the pipeline itself holds no server-level mutable
  /// state. (Two concurrent calls for the same URL would race on that
  /// endpoint's stored documents.)
  Result<PipelineReport> ProcessEndpoint(const std::string& url);

  /// One §3.1 daily cycle: extract everything the scheduler says is due,
  /// using ServerOptions::parallelism workers.
  DailyReport RunDailyUpdate();

  /// The same cycle with an explicit worker count. The due list is a
  /// registry snapshot taken up front; endpoint pipelines fan out over a
  /// thread pool and their reports are merged back in registry order, so
  /// the DailyReport (endpoint order, counts, reused flags) is identical
  /// to the sequential run on the same portal state.
  DailyReport RunDailyCycle(int parallelism);

  /// The same cycle on a caller-owned pool — the form the fleet layer
  /// uses so every shard's cycle shares ONE pool (ParallelFor's claim
  /// loop keeps the nesting deadlock-free). `pool` may be larger or
  /// smaller than `parallelism`; all deterministic figures (makespans,
  /// merge order) are computed from `parallelism` alone, so the report is
  /// bit-identical whatever pool actually ran it. `pool == nullptr` runs
  /// inline.
  DailyReport RunDailyCycleOn(ThreadPool* pool, int parallelism);

  /// Persists the registry into the store (collection kRegistryCollection).
  Status PersistRegistry();
  /// Restores the registry from the store.
  Status LoadRegistry();

 private:
  /// Simulated cost one pipeline attempt accrued, on success *and* on
  /// failure (a timed-out extraction still spent its queries' latency) —
  /// what the daily cycle's ledgers charge.
  struct PipelineCost {
    double latency_ms = 0;   // sequential sum of query latencies
    double intra_ms = 0;     // duration with intra-pipeline batching
  };

  /// ProcessEndpoint with cost feedback (`cost` may be null) and the
  /// shared pool intra-pipeline batches fan out over (null runs batch
  /// jobs inline on this thread).
  Result<PipelineReport> ProcessEndpointImpl(const std::string& url,
                                             ThreadPool* pool,
                                             PipelineCost* cost);

  /// Sum of the attached endpoints' cumulative engine counters, in URL
  /// (map) order. Taken before/after a cycle for the DailyReport delta.
  endpoint::QueryEngineStats SumEngineStats() const;

  store::Database* db_;
  const SimClock* clock_;
  ServerOptions options_;
  extraction::RefreshScheduler scheduler_;
  extraction::IndexExtractor extractor_;
  endpoint::EndpointRegistry registry_;
  /// Read-only during a cycle: AttachEndpoint must happen before
  /// RunDailyCycle, never concurrently with it.
  std::map<std::string, endpoint::SparqlEndpoint*> network_;
  /// Per-endpoint batch-width overrides (adaptive policy). Read-only
  /// during a cycle, mutated only between cycles — same discipline as
  /// network_.
  std::map<std::string, int> width_overrides_;
};

}  // namespace hbold

#endif  // HBOLD_HBOLD_SERVER_H_
