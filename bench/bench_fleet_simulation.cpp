// Fleet simulation bench + gate: a multi-day, multi-server H-BOLD fleet
// (sharded registry, shared pool, daily cycles chained as events on one
// sim::EventLoop, seeded churn, availability flapping) versus the 1-shard
// sequential run of the same seeded world.
//
// Emits machine-readable BENCH_fleet_simulation.json and exits nonzero
// when a gate fails:
//   - shard-count invariance: the merged FleetReport's canonical history
//     is byte-identical across {1, 2, 4} shards (always enforced);
//   - wall-clock: the 4-shard fleet beats the sequential run >= 3x (only
//     enforced when the machine has >= 4 hardware threads, like
//     bench_query_fastpath's wall gate).
//
//   ./build/bench_fleet_simulation [num_endpoints] [days]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/fleet.h"
#include "sim/event_loop.h"
#include "workload/ld_generator.h"

namespace {

using hbold::Fleet;
using hbold::FleetOptions;
using hbold::FleetReport;
using hbold::Json;
using hbold::Stopwatch;

constexpr size_t kLatentEndpoints = 4;
constexpr uint64_t kChurnSeed = 99;
constexpr double kDeathProbability = 0.02;

std::string UrlOf(size_t i) {
  return "http://fleet" + std::to_string(i) + ".example.org/sparql";
}

/// Immutable per-endpoint data, shared by every configuration's run.
std::vector<std::unique_ptr<hbold::rdf::TripleStore>> BuildStores(
    size_t count) {
  std::vector<std::unique_ptr<hbold::rdf::TripleStore>> stores;
  stores.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto store = std::make_unique<hbold::rdf::TripleStore>();
    hbold::workload::SyntheticLdConfig config;
    config.namespace_iri =
        "http://fleet" + std::to_string(i) + ".example.org/";
    config.num_classes = 5 + (i * 37) % 56;  // deterministic size spread
    config.num_domains = 2 + config.num_classes / 12;
    config.max_instances_per_class = 25;
    config.seed = 5000 + i;
    hbold::workload::GenerateSyntheticLd(config, store.get());
    stores.push_back(std::move(store));
  }
  return stores;
}

/// One full simulation of the seeded world under a deployment shape.
/// Endpoints are rebuilt per run because they bind to the run's clock.
struct RunResult {
  FleetReport report;
  double wall_ms = 0;
};

RunResult RunWorld(
    const std::vector<std::unique_ptr<hbold::rdf::TripleStore>>& stores,
    int shards, int fleet_workers, int parallelism, int64_t days) {
  // The primary time API: an explicit event loop owning the run's clock.
  hbold::sim::EventLoop loop;
  const hbold::SimClock* clock = loop.clock();
  const size_t base = stores.size() - kLatentEndpoints;
  std::vector<std::unique_ptr<hbold::endpoint::SimulatedRemoteEndpoint>>
      endpoints;
  endpoints.reserve(stores.size());
  for (size_t i = 0; i < stores.size(); ++i) {
    hbold::endpoint::Dialect dialect = hbold::endpoint::Dialect::Full();
    switch (i % 5) {
      case 1:
        dialect = hbold::endpoint::Dialect::NoGroupBy();
        break;
      case 2:
        dialect = hbold::endpoint::Dialect::NoAggregates();
        break;
      case 3:
        dialect = hbold::endpoint::Dialect::RowCapped(2000);
        break;
      default:
        break;
    }
    hbold::endpoint::AvailabilityModel availability;
    if (i % 6 == 5) {
      // Flappers: §3.1's "might work again after 1 or 2 days", seeded so
      // every deployment sees the same outage calendar.
      availability.uptime = 0.7;
      availability.seed = 31 + i;
    }
    endpoints.push_back(
        std::make_unique<hbold::endpoint::SimulatedRemoteEndpoint>(
            UrlOf(i), "Fleet " + std::to_string(i), stores[i].get(), clock,
            dialect, availability));
  }

  FleetOptions options;
  options.num_shards = shards;
  // Per-shard pipeline fan-out rides the same shared pool the shard
  // cycles run on, so real scheduling is work-conserving at pipeline
  // granularity — an unlucky shard-hash imbalance cannot serialize the
  // wall clock behind one overloaded shard.
  options.server.parallelism = parallelism;
  options.fleet_workers = static_cast<size_t>(fleet_workers);
  options.churn.death_probability = kDeathProbability;
  options.churn.seed = kChurnSeed;
  Fleet fleet(&loop, options);

  for (size_t i = 0; i < base; ++i) {
    hbold::endpoint::EndpointRecord record;
    record.url = UrlOf(i);
    record.name = endpoints[i]->name();
    fleet.RegisterEndpoint(record);
    if (i + 1 < base) {  // the last base endpoint has no route
      fleet.AttachEndpoint(UrlOf(i), endpoints[i].get());
    }
  }
  for (size_t i = base; i < stores.size(); ++i) {
    hbold::endpoint::EndpointRecord record;
    record.url = UrlOf(i);
    record.name = endpoints[i]->name();
    int64_t day = fleet.churn().ArrivalDayFor(UrlOf(i), 1,
                                              std::max<int64_t>(1, days - 2));
    fleet.churn().ScheduleArrival(day, std::move(record), endpoints[i].get());
  }

  RunResult result;
  Stopwatch wall;
  result.report = fleet.RunSimulation(days);
  result.wall_ms = wall.ElapsedMillis();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  hbold::Logger::set_threshold(hbold::LogLevel::kWarn);
  const size_t num_endpoints =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 48;
  const int64_t days = argc > 2 ? std::atoll(argv[2]) : 8;

  auto stores = BuildStores(num_endpoints + kLatentEndpoints);
  std::printf("=== fleet simulation: %zu endpoints (+%zu churned in), "
              "%lld days ===\n",
              num_endpoints, kLatentEndpoints,
              static_cast<long long>(days));

  // Sequential anchor: 1 shard, 1 worker, fully inline.
  RunResult seq = RunWorld(stores, /*shards=*/1, /*fleet_workers=*/1,
                           /*parallelism=*/1, days);
  const std::string canonical = seq.report.CanonicalDump();

  // Shard-count invariance (the determinism gate) and the 4-shard
  // wall-clock measurement. Best-of-2 on the timed configs: shared CI
  // runners have noisy neighbors.
  RunResult two = RunWorld(stores, 2, 2, 2, days);
  bool invariant = two.report.CanonicalDump() == canonical;
  RunResult sharded = RunWorld(stores, 4, 4, 4, days);
  invariant = invariant && sharded.report.CanonicalDump() == canonical;
  double seq_wall = seq.wall_ms;
  double sharded_wall = sharded.wall_ms;
  {
    RunResult seq2 = RunWorld(stores, 1, 1, 1, days);
    seq_wall = std::min(seq_wall, seq2.wall_ms);
    RunResult sharded2 = RunWorld(stores, 4, 4, 4, days);
    invariant = invariant && sharded2.report.CanonicalDump() == canonical;
    sharded_wall = std::min(sharded_wall, sharded2.wall_ms);
  }

  std::printf("%-10s %10s %10s %10s %10s %12s %14s\n", "day", "due", "ok",
              "failed", "arrived", "died", "sim makespan");
  double total_makespan = 0;
  size_t total_due = 0, total_failed = 0, arrivals = 0, deaths = 0;
  for (const hbold::FleetDayReport& day : seq.report.days) {
    std::printf("%-10lld %10zu %10zu %10zu %10zu %12zu %12.1f ms\n",
                static_cast<long long>(day.day), day.due, day.succeeded,
                day.failed, day.arrivals, day.deaths, day.fleet_makespan_ms);
    total_makespan += day.fleet_makespan_ms;
    total_due += day.due;
    total_failed += day.failed;
    arrivals += day.arrivals;
    deaths += day.deaths;
  }

  double speedup = sharded_wall > 0 ? seq_wall / sharded_wall : 0;
  unsigned cores = std::thread::hardware_concurrency();
  bool gate_wallclock = cores >= 4;
  std::printf(
      "\nsequential %.1f ms vs 4-shard fleet %.1f ms => %.2fx real "
      "wall-clock (%u cores%s)\n",
      seq_wall, sharded_wall, speedup, cores,
      gate_wallclock ? "" : "; <4 cores, 3x gate reported but not enforced");
  std::printf("canonical history %s across {1,2,4} shards (fingerprint %s)\n",
              invariant ? "IDENTICAL" : "DIVERGED",
              seq.report.Fingerprint().c_str());

  Json report = Json::MakeObject();
  report.Set("endpoints", static_cast<int64_t>(num_endpoints));
  report.Set("churned_in", static_cast<int64_t>(arrivals));
  report.Set("deaths", static_cast<int64_t>(deaths));
  report.Set("days", static_cast<int64_t>(days));
  report.Set("total_due", static_cast<int64_t>(total_due));
  report.Set("total_failed", static_cast<int64_t>(total_failed));
  report.Set("fingerprint", seq.report.Fingerprint());
  report.Set("sim_total_makespan_ms", total_makespan);
  report.Set("sequential_wall_ms", seq_wall);
  report.Set("sharded_wall_ms", sharded_wall);
  report.Set("speedup", speedup);
  report.Set("cores", static_cast<int64_t>(cores));
  report.Set("gate_enforced", gate_wallclock);
  Json gates = Json::MakeObject();
  gates.Set("shard_count_invariance", invariant);
  gates.Set("speedup_3x", !gate_wallclock || speedup >= 3.0);
  report.Set("gates", std::move(gates));
  report.Set("fleet", sharded.report.ToJson());

  std::ofstream out("BENCH_fleet_simulation.json");
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("wrote BENCH_fleet_simulation.json\n");

  if (!invariant) {
    std::fprintf(stderr,
                 "GATE FAILED: canonical history diverged across shard "
                 "counts\n");
    return 1;
  }
  if (gate_wallclock && speedup < 3.0) {
    std::fprintf(stderr, "GATE FAILED: 4-shard speedup %.2fx < 3x\n",
                 speedup);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
