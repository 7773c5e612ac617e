#ifndef HBOLD_HBOLD_FLEET_H_
#define HBOLD_HBOLD_FLEET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <functional>

#include "common/clock.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "endpoint/endpoint.h"
#include "endpoint/registry.h"
#include "hbold/server.h"
#include "sim/event_loop.h"
#include "store/database.h"

namespace hbold {

// ---------------------------------------------------------------- churn

/// Knobs for the seeded churn process (endpoints appearing and dying
/// mid-simulation — the §3.1 reality a single-day cycle cannot express).
struct ChurnOptions {
  /// Per live endpoint, per day: probability its portal goes dark for
  /// good. Deaths are decided by a stable hash of (seed, url, day), so
  /// the death calendar is identical no matter how the registry is
  /// sharded or which threads ran the cycle.
  double death_probability = 0.0;
  uint64_t seed = 0;
};

/// One endpoint joining the fleet mid-simulation.
struct ChurnArrival {
  int64_t day = 0;
  endpoint::EndpointRecord record;
  /// Live endpoint to attach; null registers the record without a route
  /// (the §3.4 case of a submitted URL that never answers).
  endpoint::SparqlEndpoint* endpoint = nullptr;
};

/// Deterministic churn schedule: explicit arrivals plus seeded deaths.
/// Every decision is a pure function of (options, schedule, day), so a
/// simulation replays bit-identically for the same seed regardless of
/// shard count, parallelism, or batching.
class ChurnModel {
 public:
  ChurnModel() = default;
  explicit ChurnModel(const ChurnOptions& options) : options_(options) {}

  const ChurnOptions& options() const { return options_; }

  /// Queues `record` (and its live endpoint, may be null) to join on
  /// `day`. Arrivals are applied in (day, scheduling order).
  void ScheduleArrival(int64_t day, endpoint::EndpointRecord record,
                       endpoint::SparqlEndpoint* ep);

  /// Seeded helper: a stable arrival day in [first_day, first_day + span)
  /// for `url` — lets callers scatter a latent pool over a simulation
  /// window without hand-picking days.
  int64_t ArrivalDayFor(const std::string& url, int64_t first_day,
                        int64_t span) const;

  /// True when the seeded coin says `url`'s portal dies on `day`.
  bool DiesOn(const std::string& url, int64_t day) const;

  /// Pops every scheduled arrival with day <= `day`, in schedule order.
  std::vector<ChurnArrival> TakeArrivalsThrough(int64_t day);

  size_t pending_arrivals() const { return arrivals_.size(); }

 private:
  ChurnOptions options_;
  /// Sorted by day, ties in insertion order (stable).
  std::vector<ChurnArrival> arrivals_;
};

// ------------------------------------------------------- adaptive width

/// Policy knobs for per-endpoint intra-pipeline batch width adaptation.
struct AdaptiveWidthOptions {
  bool enabled = false;
  int min_width = 1;
  int max_width = 8;
  /// Consecutive clean days (success, no throttle events) before a
  /// narrowed endpoint's width steps back up by one.
  int recovery_days = 2;
};

/// Per-endpoint batch-width state carried across simulated days: an
/// endpoint that throttles (Timeout fallbacks) or fails gets its width
/// halved; after `recovery_days` clean days the width creeps back up.
/// Decisions are a pure function of the observed per-endpoint outcome
/// stream, which is itself shard- and batching-invariant, so adaptation
/// never perturbs the fleet's deterministic report content (width only
/// moves duration figures, per the QueryBatch accounting contract).
class AdaptiveWidthController {
 public:
  AdaptiveWidthController(const AdaptiveWidthOptions& options,
                          int initial_width);

  /// Current width for `url` (initial width until first observation).
  int WidthFor(const std::string& url) const;

  /// Feeds one day's outcome for `url`; returns the width to use next.
  int Observe(const std::string& url, bool attempt_failed,
              size_t throttle_events);

 private:
  struct State {
    int width = 1;
    int clean_streak = 0;
  };

  AdaptiveWidthOptions options_;
  int initial_width_;
  std::map<std::string, State> state_;
};

// ----------------------------------------------------------------- fleet

/// Fleet construction knobs.
struct FleetOptions {
  /// Registry shards = server instances. Endpoints map to shards by
  /// stable URL hash, so the assignment survives restarts and re-runs.
  int num_shards = 1;
  /// Per-shard server options (refresh age, per-cycle parallelism,
  /// intra-pipeline batch width).
  ServerOptions server;
  /// Workers in the one pool shared by every layer: shard cycles fan out
  /// over it, each cycle's pipelines fan out over it, and each pipeline's
  /// query batches fan out over it (claim loops keep the nesting
  /// deadlock-free). 0 sizes it to num_shards * server.parallelism;
  /// 1 runs the whole simulation inline on the caller's thread — the
  /// sequential baseline the determinism contract is anchored to.
  size_t fleet_workers = 0;
  ChurnOptions churn;
  AdaptiveWidthOptions adaptive_width;
  /// Simulated hardware width for the event timeline: the canonical
  /// list-scheduling ledger that prices per-endpoint pipeline-completion
  /// events and the day's sim_makespan_ms replays the merged charged
  /// latencies (global registration order) over this many virtual
  /// workers. A *simulation* parameter, deliberately decoupled from the
  /// physical deployment (fleet_workers, parallelism, shard count), so
  /// event times — and with them overrun decisions and the whole event
  /// history — stay byte-identical across deployment shapes. Physical
  /// knobs only move real wall-clock.
  int virtual_workers = 4;
};

/// One simulated day of the whole fleet, merged across shards. The
/// counters are the shards' CounterSets summed.
struct FleetDayReport : CounterSet {
  int64_t day = 0;
  /// Endpoints churned in / gone dark at the start of this day.
  size_t arrivals = 0;
  size_t deaths = 0;
  /// Canonical cost figure: per-attempt charged latencies folded in
  /// global registration order — bit-identical across shard counts,
  /// parallelism, and batching (per-shard ledger sums are NOT used here,
  /// their float addition order would depend on the deployment).
  double sum_latency_ms = 0;
  /// Deployment duration of the day: max over shards of the per-shard
  /// batched makespan. A deployment figure — it legitimately shrinks as
  /// shards/parallelism grow — so it prices nothing on the event
  /// timeline; sim_makespan_ms below does.
  double fleet_makespan_ms = 0;
  /// Canonical simulated duration of the day: list-scheduling makespan of
  /// the merged charged latencies (global registration order) over
  /// FleetOptions::virtual_workers virtual workers. Deployment-invariant
  /// by construction — this is what spaces cycle-complete events on the
  /// event loop and decides overrun days.
  double sim_makespan_ms = 0;
  /// Real wall-clock of the day's cycles.
  double wall_ms = 0;
  /// True when sim_makespan_ms pushed the cycle's completion to (or past)
  /// the next day boundary — the fleet cannot keep up with daily cycles.
  /// The next cycle then starts immediately as a catch-up cycle instead
  /// of waiting for a boundary. Because the deciding makespan is the
  /// canonical one, overruns (and the day numbering they shift) are
  /// deployment-invariant.
  bool overran_day = false;
  /// Pipeline reports and per-due-entry outcomes merged in global
  /// registration order (identical to a 1-shard run's order).
  std::vector<PipelineReport> reports;
  std::vector<DueOutcome> outcomes;
  /// The raw per-shard reports, index = shard id (deployment
  /// introspection; not part of the canonical content). Their pipeline
  /// `reports` vectors are emptied — the merged `reports` list above is
  /// the one copy; counters, outcomes, and makespans remain per shard.
  std::vector<DailyReport> shard_reports;
};

/// Outcome of a multi-day fleet simulation.
struct FleetReport {
  int num_shards = 1;
  int parallelism = 1;
  int query_batch_width = 1;
  bool adaptive_width = false;
  std::vector<FleetDayReport> days;

  /// Everything, deployment figures included.
  Json ToJson() const;

  /// Canonical serialization of the deployment-invariant content: day
  /// numbers, due/succeeded/failed/reused/churn counts, per-attempt
  /// outcomes and charged costs, per-endpoint extraction work, and the
  /// canonical cost sums. Two simulations of the same seeded world are
  /// the same history iff these strings are byte-identical — the
  /// differential anchor for {1,2,4} shards x {1,4} parallelism x
  /// batching on/off.
  std::string CanonicalDump() const;

  /// FNV-1a fingerprint of CanonicalDump(), as 16 hex chars.
  std::string Fingerprint() const;

  /// Serialization of the *content* figures only: what the simulation
  /// computed (class/arc/cluster counts, success/reuse history), with
  /// every access figure (strategy, query counts, latencies, probe and
  /// delta markers) stripped. This is the cross-MODE comparator: a kDelta
  /// run and a kTrack/full run of the same world legitimately differ in
  /// how they talked to the endpoints, but must agree byte-for-byte on
  /// what they learned. CanonicalDump()/Fingerprint() stay the
  /// within-mode deployment-invariance anchor.
  std::string ContentDump() const;

  /// FNV-1a fingerprint of ContentDump(), as 16 hex chars.
  std::string ContentFingerprint() const;
};

/// The multi-server layer: shards the endpoint registry across N Server
/// instances by stable URL hash and drives them as processes on a
/// sim::EventLoop — daily cycles, churn, per-endpoint pipeline
/// completions, throttle pressure, and day boundaries are all scheduled
/// events on one shared timeline, so serving traffic (user-session
/// arrivals) can interleave with extraction in the same simulated day.
///
/// Determinism contract: for the same seeded world (endpoints, churn
/// schedule, availability), FleetReport::CanonicalDump() AND the loop's
/// event history (sim::EventLoop::HistoryDump()) and the merged persisted
/// store contents are byte-identical for ANY (num_shards, fleet_workers,
/// parallelism, query_batch_width, adaptive on/off) — differential-tested
/// in tests/fleet_test.cc + tests/sim_test.cc and gated in
/// bench_fleet_simulation / bench_mixed_timeline. Unlike the pre-loop
/// API, the contract now covers overrun days too: the event timeline is
/// priced by the canonical virtual-worker ledger, so catch-up cycles land
/// on the same instants in every deployment shape.
class Fleet {
 public:
  /// Primary constructor: the fleet becomes a process on `loop` (which
  /// must outlive it). Simulated endpoints must be built against
  /// `loop->clock()` so the whole world shares one timeline.
  Fleet(sim::EventLoop* loop, const FleetOptions& options);

  /// Wraps `clock` in an internally-owned EventLoop, for worlds whose
  /// endpoints bind to a bare SimClock (perfbench builds its fleets this
  /// way, as do several benches and tests). RunDay()/RunSimulation()
  /// schedule onto the internal loop and drain it.
  Fleet(SimClock* clock, const FleetOptions& options);

  size_t num_shards() const { return shards_.size(); }
  const FleetOptions& options() const { return options_; }
  /// The shared timeline every fleet event lands on.
  sim::EventLoop& loop() { return *loop_; }
  SimClock* clock() { return loop_->clock(); }

  /// Stable shard assignment: Fnv64(url) % num_shards.
  size_t ShardOf(const std::string& url) const;

  Server& shard(size_t i) { return *shards_[i]; }
  const Server& shard(size_t i) const { return *shards_[i]; }
  store::Database& shard_db(size_t i) { return *dbs_[i]; }
  const store::Database& shard_db(size_t i) const { return *dbs_[i]; }

  ChurnModel& churn() { return churn_; }

  /// Registers a record into its shard. Returns false on duplicate URL.
  bool RegisterEndpoint(endpoint::EndpointRecord record);

  /// Routes a live endpoint to its shard (does not register it).
  void AttachEndpoint(const std::string& url, endpoint::SparqlEndpoint* ep);

  /// Drops the route (record stays; attempts fail and retry daily).
  void DetachEndpoint(const std::string& url);

  /// The live endpoint routed for `url`, or nullptr when none is attached
  /// (never registered, registered without a route, or gone dark). This
  /// is the serving layer's query path: user sessions drill down against
  /// the owning shard's endpoint directly.
  endpoint::SparqlEndpoint* EndpointFor(const std::string& url) const;

  /// Every registered URL, in global registration order — the merge
  /// order of FleetDayReport and the order a 1-shard registry would
  /// hold them in.
  const std::vector<std::string>& registration_order() const {
    return registration_order_;
  }

  /// Registers `count` daily cycles on the loop, starting at the current
  /// instant. Each cycle is a kChurn + kCycleStart event pair; its
  /// completion schedules the next cycle at the following day boundary —
  /// or immediately (a catch-up cycle) when the canonical makespan
  /// overran the boundary. Completed days accumulate until TakeReport().
  /// The caller drives the loop (RunUntilIdle / RunUntil), which is what
  /// lets other traffic — session arrivals, extra processes — interleave
  /// with extraction on the same timeline.
  void ScheduleCycles(int64_t count);

  /// Drains the day reports completed since the last take into a
  /// FleetReport.
  FleetReport TakeReport();

  /// Called (on the loop thread) as each cycle's kCycleComplete event
  /// finalizes its day report — the hook serving layers use to refresh
  /// their snapshots mid-simulation.
  void SetCycleCompleteHandler(std::function<void(const FleetDayReport&)> fn) {
    cycle_complete_handler_ = std::move(fn);
  }

  /// One simulated day, synchronously: schedules a single cycle at the
  /// current instant and drains the loop. Retained from the pre-loop API;
  /// equivalent to ScheduleCycles(1) + loop().RunUntilIdle().
  FleetDayReport RunDay();

  /// Runs `days` consecutive daily cycles to idle and takes the report.
  FleetReport RunSimulation(int64_t days);

 private:
  Fleet(std::unique_ptr<sim::EventLoop> owned, sim::EventLoop* loop,
        const FleetOptions& options);

  /// Schedules the next cycle's kChurn + kCycleStart pair at `start_ms`
  /// (plus the kDayBoundary event when `start_ms` sits on one).
  void ScheduleCycleAt(int64_t start_ms);
  /// The kCycleStart handler: runs every shard's cycle on the shared
  /// pool, merges, prices the canonical timeline, and schedules the
  /// pipeline-completion / throttle / cycle-complete events.
  void RunCycleBody();
  /// The kCycleComplete handler: finalizes the day report, detects
  /// overruns, and chains the next cycle.
  void CompleteCycle(int64_t day);

  void ApplyChurn(int64_t day, FleetDayReport* day_report);
  void PushAdaptiveWidths();
  void ObserveOutcomes(const FleetDayReport& day_report);
  void MergeShardReports(std::vector<DailyReport> shard_reports,
                         FleetDayReport* day_report) const;

  /// Owned only by the SimClock constructor.
  std::unique_ptr<sim::EventLoop> owned_loop_;
  sim::EventLoop* loop_;
  FleetOptions options_;
  std::vector<std::unique_ptr<store::Database>> dbs_;
  std::vector<std::unique_ptr<Server>> shards_;
  /// The one pool all layers share; absent when fleet_workers <= 1
  /// (fully inline simulation).
  std::optional<ThreadPool> pool_;
  ChurnModel churn_;
  AdaptiveWidthController widths_;
  std::vector<std::string> registration_order_;
  /// Live routes, for the death lottery (url-sorted: deterministic).
  std::map<std::string, endpoint::SparqlEndpoint*> attached_;
  /// The daily-cycle chain: at most one activation pending at a time.
  sim::Process cycle_process_;
  /// Cycles registered but not yet completed.
  int64_t cycles_remaining_ = 0;
  /// The day report under construction between a cycle's kChurn event and
  /// its kCycleComplete event.
  FleetDayReport pending_day_;
  /// Completed days awaiting TakeReport().
  std::vector<FleetDayReport> collected_days_;
  std::function<void(const FleetDayReport&)> cycle_complete_handler_;
  /// Last instant a kDayBoundary event was emitted for (dedup guard).
  int64_t last_boundary_ms_ = -1;
};

}  // namespace hbold

#endif  // HBOLD_HBOLD_FLEET_H_
