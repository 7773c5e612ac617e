// Incremental delta-extraction bench + gate: a churning fleet (every
// endpoint's store mutates daily at data granularity) crawled for N days
// under IncrementalMode::kTrack (probe + full re-extraction every cycle,
// the control arm) versus IncrementalMode::kDelta (probe-skip quiet
// endpoints, re-extract only dirty classes, patch summaries in place).
//
// Emits machine-readable BENCH_delta_extraction.json and exits nonzero
// when a gate fails:
//   - content identity: the kDelta run's ContentFingerprint (what the
//     fleet learned) is byte-identical to the kTrack run's — incremental
//     extraction may change how endpoints are queried, never what the
//     summaries say;
//   - deployment invariance: the kDelta canonical history is identical
//     across {1, 2, 4} shards x {1, 4} parallelism;
//   - makespan: the kDelta run's total simulated fleet makespan is >= 3x
//     smaller than kTrack's at 5% daily churn (simulated time from the
//     charged-latency model, so the gate is deterministic and does not
//     need a quiet machine).
//
//   ./build/bench_delta_extraction [num_endpoints] [days]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "hbold/fleet.h"

namespace {

using hbold::FleetReport;
using hbold::IncrementalMode;
using hbold::Json;
using hbold::SimClock;
using hbold::Stopwatch;

constexpr double kChurnFraction = 0.05;
/// Share of the fleet whose data never changes: real LD fleets are mostly
/// quiet, and the quiet endpoints are what the one-probe steady state is
/// for.
constexpr double kQuietFraction = 0.34;

hbold::bench::FleetOptions WorldOptions(size_t num_endpoints) {
  hbold::bench::FleetOptions options;
  options.size = num_endpoints;
  options.max_classes = 60;
  options.max_instances_per_class = 30;
  options.seed = 4242;
  options.mutation.daily_churn_fraction = kChurnFraction;
  options.mutation.seed = 2020;
  options.quiet_fraction = kQuietFraction;
  return options;
}

struct ArmResult {
  FleetReport report;
  double wall_ms = 0;
  double total_makespan_ms = 0;
  /// Day counters summed over the whole run.
  hbold::CounterSet totals;
  size_t queries = 0;
};

/// One full crawl of the seeded churning world. The fleet (stores
/// included) is rebuilt from scratch per arm: mutation rewrites the
/// stores day by day, so arms must not share them. Identical options
/// replay identical churn histories.
ArmResult RunArm(size_t num_endpoints, int64_t days, IncrementalMode mode,
                 int shards, int parallelism) {
  SimClock clock;
  std::vector<hbold::bench::FleetMember> members =
      hbold::bench::BuildFleet(WorldOptions(num_endpoints), &clock);

  hbold::FleetOptions options;
  options.num_shards = shards;
  options.server.parallelism = parallelism;
  options.server.refresh_age_days = 1;  // churn-sensitive: crawl daily
  options.server.incremental.mode = mode;
  if (shards == 1 && parallelism == 1) options.fleet_workers = 1;
  hbold::Fleet fleet(&clock, options);
  for (hbold::bench::FleetMember& member : members) {
    hbold::endpoint::EndpointRecord record;
    record.url = member.url;
    record.name = member.endpoint->name();
    fleet.RegisterEndpoint(record);
    fleet.AttachEndpoint(member.url, member.endpoint.get());
  }

  ArmResult result;
  Stopwatch wall;
  result.report = fleet.RunSimulation(days);
  result.wall_ms = wall.ElapsedMillis();
  for (const hbold::FleetDayReport& day : result.report.days) {
    result.total_makespan_ms += day.fleet_makespan_ms;
    result.totals += day;
  }
  for (const hbold::bench::FleetMember& member : members) {
    result.queries += member.endpoint->queries_served();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  hbold::Logger::set_threshold(hbold::LogLevel::kWarn);
  const size_t num_endpoints =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 24;
  const int64_t days = argc > 2 ? std::atoll(argv[2]) : 8;

  std::printf("=== delta extraction: %zu endpoints, %lld days, %.0f%% "
              "daily churn ===\n",
              num_endpoints, static_cast<long long>(days),
              kChurnFraction * 100);

  ArmResult track =
      RunArm(num_endpoints, days, IncrementalMode::kTrack, 1, 1);
  ArmResult delta =
      RunArm(num_endpoints, days, IncrementalMode::kDelta, 1, 1);

  // Gate 1: what the fleet learned is identical across arms.
  bool content_identity = delta.report.ContentFingerprint() ==
                          track.report.ContentFingerprint();

  // Gate 2: kDelta's canonical history is deployment-invariant.
  const std::string canonical = delta.report.CanonicalDump();
  bool invariant = true;
  struct Deployment {
    int shards, parallelism;
  };
  for (const Deployment& dep :
       {Deployment{2, 1}, Deployment{4, 1}, Deployment{1, 4},
        Deployment{4, 4}}) {
    ArmResult run = RunArm(num_endpoints, days, IncrementalMode::kDelta,
                           dep.shards, dep.parallelism);
    invariant = invariant && run.report.CanonicalDump() == canonical;
  }

  // Gate 3: the incremental crawl is >= 3x cheaper in simulated time.
  double makespan_reduction =
      delta.total_makespan_ms > 0
          ? track.total_makespan_ms / delta.total_makespan_ms
          : 0;
  double query_reduction =
      delta.queries > 0
          ? static_cast<double>(track.queries) /
                static_cast<double>(delta.queries)
          : 0;

  std::printf("%-28s %14s %14s\n", "", "kTrack (full)", "kDelta");
  std::printf("%-28s %12.1f ms %12.1f ms\n", "total fleet makespan",
              track.total_makespan_ms, delta.total_makespan_ms);
  std::printf("%-28s %14zu %14zu\n", "endpoint queries", track.queries,
              delta.queries);
  std::printf("%-28s %14zu %14zu\n", "probe skips", track.totals.probe_skips,
              delta.totals.probe_skips);
  std::printf("%-28s %14zu %14zu\n", "delta extractions",
              track.totals.delta_extractions, delta.totals.delta_extractions);
  std::printf("\nmakespan reduction %.2fx, query reduction %.2fx\n",
              makespan_reduction, query_reduction);
  std::printf("content %s (fingerprint %s), kDelta history %s across "
              "{1,2,4} shards x {1,4} parallelism\n",
              content_identity ? "IDENTICAL" : "DIVERGED",
              delta.report.ContentFingerprint().c_str(),
              invariant ? "IDENTICAL" : "DIVERGED");

  Json report = Json::MakeObject();
  report.Set("endpoints", static_cast<int64_t>(num_endpoints));
  report.Set("days", static_cast<int64_t>(days));
  report.Set("churn_fraction", kChurnFraction);
  report.Set("content_fingerprint", delta.report.ContentFingerprint());
  report.Set("delta_fingerprint", delta.report.Fingerprint());
  report.Set("track_total_makespan_ms", track.total_makespan_ms);
  report.Set("delta_total_makespan_ms", delta.total_makespan_ms);
  report.Set("makespan_reduction", makespan_reduction);
  report.Set("track_queries", static_cast<int64_t>(track.queries));
  report.Set("delta_queries", static_cast<int64_t>(delta.queries));
  report.Set("query_reduction", query_reduction);
  report.Set("probes", static_cast<int64_t>(delta.totals.probes));
  report.Set("probe_skips", static_cast<int64_t>(delta.totals.probe_skips));
  report.Set("delta_extractions",
             static_cast<int64_t>(delta.totals.delta_extractions));
  report.Set("track_wall_ms", track.wall_ms);
  report.Set("delta_wall_ms", delta.wall_ms);
  Json gates = Json::MakeObject();
  gates.Set("content_identity", content_identity);
  gates.Set("deployment_invariance", invariant);
  gates.Set("makespan_reduction_3x", makespan_reduction >= 3.0);
  report.Set("gates", std::move(gates));

  std::ofstream out("BENCH_delta_extraction.json");
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("wrote BENCH_delta_extraction.json\n");

  if (!content_identity) {
    std::fprintf(stderr,
                 "GATE FAILED: kDelta content diverged from full "
                 "re-extraction\n");
    return 1;
  }
  if (!invariant) {
    std::fprintf(stderr,
                 "GATE FAILED: kDelta canonical history diverged across "
                 "deployments\n");
    return 1;
  }
  if (makespan_reduction < 3.0) {
    std::fprintf(stderr,
                 "GATE FAILED: makespan reduction %.2fx < 3x\n",
                 makespan_reduction);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
