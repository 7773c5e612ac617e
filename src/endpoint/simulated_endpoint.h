#ifndef HBOLD_ENDPOINT_SIMULATED_ENDPOINT_H_
#define HBOLD_ENDPOINT_SIMULATED_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "common/clock.h"
#include "endpoint/endpoint.h"
#include "endpoint/local_endpoint.h"
#include "rdf/graph.h"

namespace hbold::endpoint {

/// The feature surface of a remote SPARQL implementation. Real endpoints
/// differ exactly along these axes (Virtuoso vs Fuseki vs 4store vs hand-
/// rolled servers), which is why the paper's index extraction needs
/// "pattern strategies" [Benedetti et al. 2014].
struct Dialect {
  /// Endpoint rejects COUNT aggregates with an error.
  bool supports_aggregates = true;
  /// Endpoint rejects GROUP BY (some implementations allow plain COUNT but
  /// not grouped aggregation).
  bool supports_group_by = true;
  /// Hard cap on returned rows; 0 = unlimited. Real endpoints commonly cap
  /// at 10000. Truncation is flagged in QueryOutcome::truncated.
  size_t max_result_rows = 0;
  /// Work budget: queries producing more intermediate bindings than this
  /// fail with Timeout. 0 = unlimited.
  size_t work_budget_bindings = 0;

  /// Presets mirroring the implementation families H-BOLD meets in the
  /// wild.
  static Dialect Full() { return Dialect{}; }
  static Dialect NoGroupBy() {
    Dialect d;
    d.supports_group_by = false;
    return d;
  }
  static Dialect NoAggregates() {
    Dialect d;
    d.supports_aggregates = false;
    d.supports_group_by = false;
    return d;
  }
  static Dialect RowCapped(size_t cap) {
    Dialect d;
    d.max_result_rows = cap;
    return d;
  }
};

/// Day-granularity availability model for §3.1: a SPARQL endpoint "might
/// often be not available, [...] it might work again after 1 or 2 days".
/// Availability is deterministic per (seed, day) so simulations reproduce.
struct AvailabilityModel {
  /// Probability the endpoint is up on any given day.
  double uptime = 1.0;
  /// Days that are always outages regardless of `uptime` (maintenance
  /// windows etc.).
  std::set<int64_t> forced_outage_days;
  uint64_t seed = 0;

  bool IsUp(int64_t day) const;
};

/// Seeded per-day data churn: between simulated days the endpoint's store
/// gains and loses triples, skewed across classes so most classes stay
/// quiet — the data-granularity counterpart of the fleet's endpoint-level
/// churn. All picks are pure functions of (seed, day, store content), so a
/// given (seed, day) sequence produces bit-identical stores regardless of
/// thread count or query batching.
struct MutationModel {
  /// Fraction of the store's triples churned per day; 0 disables mutation.
  double daily_churn_fraction = 0.0;
  /// Share of churn operations that add triples (the rest retract).
  double add_fraction = 0.5;
  /// Fraction of classes eligible for churn ("hot"); the rest never
  /// change, mirroring how real LD updates concentrate on a few classes.
  /// At least one class is always hot when churn is enabled.
  double hot_class_fraction = 0.25;
  uint64_t seed = 0;
  /// Per-day probability that a brand-new class (with a few instances) is
  /// born. Structural churn runs even when `daily_churn_fraction` is 0 and
  /// even on an empty store — it models schema evolution, not data volume.
  double class_birth_probability = 0.0;
  /// Per-day probability that one existing class is retired wholesale
  /// (every instance's triples removed).
  double class_retire_probability = 0.0;
  /// Adversarial: structural changes (births/retires) happen "behind a
  /// quiet generation" — the endpoint keeps answering probes from a stale
  /// snapshot taken before the change, so the probe reports the old
  /// generation and the old class list until a non-structural mutation day
  /// refreshes the snapshot. Honest endpoints leave this off.
  bool quiet_structural_changes = false;
  /// Day after which all churn (data and structural) stops. <0 = never.
  /// Convergence tests freeze the world and let the staleness bound
  /// catch the system up to byte-identity.
  int64_t freeze_after_day = -1;
};

/// Seeded adversarial faults injected into ProbeChanges(). Every coin is a
/// pure function of (seed, day, per-day attempt index), so a fleet replays
/// bit-identically across shard x parallelism deployments: within one
/// simulated day, probe attempt k against this endpoint sees the same fate
/// no matter which worker thread issues it. (Probes for one endpoint are
/// issued sequentially by its own pipeline, so the attempt index is itself
/// deterministic.)
struct ProbeFaultModel {
  /// Probability a probe lies about the store generation: it reports the
  /// previous generation even though data changed (the "quiet liar").
  double lie_generation_probability = 0.0;
  /// Probability each class fingerprint is reported stale (version from
  /// before the last change), hiding a dirty class.
  double lie_fingerprint_probability = 0.0;
  /// Probability the probe omits a random subset of classes entirely
  /// (partial fingerprint set — absence must not be read as removal).
  double partial_probability = 0.0;
  /// When a partial fault fires, each class survives with this probability.
  double partial_keep_fraction = 0.5;
  /// Probability the probe is truncated after a prefix of the class list;
  /// the probe carries truncated=true (an honest row cap would too).
  double truncate_probability = 0.0;
  /// Probability one probe attempt fails transiently (Timeout) even though
  /// the endpoint is up — distinct from a day-level outage; an immediate
  /// retry may succeed.
  double transient_failure_probability = 0.0;
  uint64_t seed = 0;
  /// Day after which fault injection stops and probes answer truthfully.
  /// <0 = never. Pairs with MutationModel::freeze_after_day: convergence
  /// tests freeze both the world and the adversary, then assert the
  /// staleness-bounded pipeline catches back up to byte-identity.
  int64_t freeze_after_day = -1;

  bool Enabled() const {
    return lie_generation_probability > 0 ||
           lie_fingerprint_probability > 0 || partial_probability > 0 ||
           truncate_probability > 0 || transient_failure_probability > 0;
  }
};

/// Latency model: constant per-query overhead plus a per-binding cost, so
/// big scans on big datasets are slow the way remote endpoints are.
struct LatencyModel {
  double base_ms = 50.0;           // connection + parsing overhead
  double per_binding_us = 2.0;     // join work
  double per_row_us = 5.0;         // serialization of results

  double Cost(size_t intermediate_bindings, size_t rows) const {
    return base_ms + intermediate_bindings * per_binding_us / 1000.0 +
           rows * per_row_us / 1000.0;
  }
};

/// A remote SPARQL endpoint simulation: an in-process store behind an
/// availability calendar, a latency model, and a dialect with feature gaps.
/// The wall clock is a SimClock owned by the caller, so a whole fleet of
/// endpoints shares one simulated timeline.
///
/// Thread safety: Query() runs fully concurrently — the dialect gate and
/// availability check are read-only, per-query execution stats live on the
/// caller's stack (the inner LocalEndpoint's Resolve/Execute pair), and the
/// served counter is atomic. The latency the simulation *charges* is still
/// computed from the deterministic cost model, not slept, so concurrent
/// batched queries stay bit-identical to sequential ones while the real
/// CPU work overlaps.
class SimulatedRemoteEndpoint : public SparqlEndpoint {
 public:
  /// `store` and `clock` must outlive the endpoint. The store is mutable:
  /// the endpoint owns its day-to-day evolution via the mutation model
  /// (AdvanceDataDay), which is why churn now happens at data granularity
  /// instead of endpoint granularity.
  SimulatedRemoteEndpoint(std::string url, std::string name,
                          rdf::TripleStore* store, const SimClock* clock,
                          Dialect dialect = Dialect::Full(),
                          AvailabilityModel availability = {},
                          LatencyModel latency = {},
                          MutationModel mutation = {},
                          ProbeFaultModel probe_faults = {});

  Result<QueryOutcome> Query(const std::string& query_text) override;

  const std::string& url() const override { return local_.url(); }
  const std::string& name() const override { return local_.name(); }
  size_t queries_served() const override {
    return queries_served_.load(std::memory_order_relaxed);
  }

  /// The inner local executor's plan-cache / hash-join counters.
  QueryEngineStats engine_stats() const override {
    return local_.engine_stats();
  }

  /// Applies the seeded churn for every un-applied day up to `day`,
  /// exactly once per day (idempotent catch-up, so endpoints that detach
  /// and recover replay the missed days deterministically). Write-side
  /// call — must not overlap Query()/ProbeChanges(). Rebuilds the store
  /// index once per churning day, so `generation()` moves iff data moved.
  void AdvanceDataDay(int64_t day) override;

  /// One batched probe round-trip: current store generation plus per-class
  /// version fingerprints (ascending IRI). Availability-gated and counted
  /// as one served query, like any real request.
  Result<ChangeProbe> ProbeChanges() override;

  const Dialect& dialect() const { return dialect_; }
  const AvailabilityModel& availability() const { return availability_; }
  const LatencyModel& latency_model() const { return latency_; }
  const MutationModel& mutation_model() const { return mutation_; }
  const ProbeFaultModel& probe_faults() const { return probe_faults_; }

  /// True if the endpoint answers queries on `day`.
  bool IsUpOn(int64_t day) const { return availability_.IsUp(day); }

 private:
  /// Plans and applies one day of churn. Reads first (all picks from the
  /// pre-day snapshot), then stages writes, then rebuilds once.
  void ApplyMutationDay(int64_t day);

  /// The truthful probe body (generation + fingerprints) from live state.
  ChangeProbe TruthfulProbe() const;

  rdf::TripleStore* store_;
  LocalEndpoint local_;
  const SimClock* clock_;
  Dialect dialect_;
  AvailabilityModel availability_;
  LatencyModel latency_;
  MutationModel mutation_;
  ProbeFaultModel probe_faults_;
  /// Per-class change counters backing ProbeChanges(): bumped for every
  /// class whose instance data changed on a mutation day. Written only by
  /// AdvanceDataDay (sequential phase), read concurrently by probes.
  std::map<std::string, uint64_t> class_versions_;
  /// Previous version of each class fingerprint, kept so a lying probe can
  /// report the value from before the last change.
  std::map<std::string, uint64_t> prev_class_versions_;
  int64_t last_mutation_day_ = 0;
  /// Quiet-structural snapshot: when MutationModel::quiet_structural_changes
  /// is set, probes answer from this stale copy (refreshed only on days
  /// whose mutations were non-structural). Unused (and probes stay live)
  /// otherwise, preserving honest behavior bit-for-bit.
  bool have_probe_snapshot_ = false;
  ChangeProbe probe_snapshot_;
  uint64_t prev_generation_ = 0;
  /// Per-day probe attempt counter (salts fault coins so a retry or a
  /// validation echo can see a different fate than the first attempt).
  /// Guarded by probe_mutex_; probes for one endpoint are sequential
  /// within its pipeline, so the sequence is deterministic.
  mutable std::mutex probe_mutex_;
  int64_t probe_attempt_day_ = -1;
  uint64_t probe_attempts_today_ = 0;
  std::atomic<size_t> queries_served_{0};
};

}  // namespace hbold::endpoint

#endif  // HBOLD_ENDPOINT_SIMULATED_ENDPOINT_H_
