// Delta-extraction differential tests: the incremental pipeline (change
// probes, dirty-class re-extraction, schema/cluster patching) must land on
// byte-identical artifacts to a full re-extraction of the same churning
// world, across deployment shapes, while issuing strictly fewer queries.
// Plus unit-level checks for MergeDirtyClasses and PatchedFromIndexes.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "endpoint/simulated_endpoint.h"
#include "extraction/indexes.h"
#include "hbold/fleet.h"
#include "hbold/server.h"
#include "rdf/graph.h"
#include "schema/schema_summary.h"
#include "store/database.h"
#include "workload/ld_generator.h"

namespace hbold {
namespace {

using endpoint::AvailabilityModel;
using endpoint::Dialect;
using endpoint::EndpointRecord;
using endpoint::MutationModel;
using endpoint::ProbeFaultModel;
using endpoint::SimulatedRemoteEndpoint;
using extraction::ClassInfo;
using extraction::IndexSummary;
using extraction::PropertyInfo;

constexpr size_t kEndpoints = 8;
constexpr int64_t kDays = 6;
constexpr double kChurnFraction = 0.06;

std::map<std::string, std::string> CanonicalCollection(
    const store::Database& db, const std::string& collection) {
  std::map<std::string, std::string> canonical;
  const store::Collection* c = db.FindCollection(collection);
  if (c == nullptr) return canonical;
  for (const store::DocumentPtr& stored : c->Snapshot()) {
    store::Document doc = *stored;
    std::string url = doc.GetString("endpoint_url");
    doc.Set("_id", 0);
    canonical[url] = doc.Dump();
  }
  return canonical;
}

std::map<std::string, std::string> MergedCanonicalCollection(
    const Fleet& fleet, const std::string& collection) {
  std::map<std::string, std::string> merged;
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    for (auto& [url, dump] :
         CanonicalCollection(fleet.shard_db(s), collection)) {
      merged.emplace(url, dump);
    }
  }
  return merged;
}

std::string DumpStore(const rdf::TripleStore& store) {
  std::string out;
  for (const rdf::Triple& t : store.MatchAll(rdf::TriplePattern{})) {
    out += store.dict().Get(t.s).lexical();
    out += ' ';
    out += store.dict().Get(t.p).lexical();
    out += ' ';
    out += store.dict().Get(t.o).lexical();
    out += '\n';
  }
  return out;
}

/// One seeded churning world. Unlike FleetWorld, every run regenerates its
/// stores: the mutation model rewrites them day by day, so sharing stores
/// across runs would leak one run's churn into the next. Two DeltaWorlds
/// built from the same options replay bit-identical histories.
class DeltaWorld {
 public:
  static std::string Url(size_t i) {
    return "http://delta" + std::to_string(i) + ".example.org/sparql";
  }

  explicit DeltaWorld(FleetOptions options, double churn = kChurnFraction) {
    options.server.refresh_age_days = 1;  // churn-sensitive: due daily
    fleet_ = std::make_unique<Fleet>(&clock_, options);
    for (size_t i = 0; i < kEndpoints; ++i) {
      auto store = std::make_unique<rdf::TripleStore>();
      workload::SyntheticLdConfig config;
      config.namespace_iri = "http://delta" + std::to_string(i) +
                             ".example.org/";
      config.num_classes = 6 + i * 2;
      config.max_instances_per_class = 20;
      config.seed = 2600 + i;
      workload::GenerateSyntheticLd(config, store.get());

      Dialect dialect = Dialect::Full();
      if (i % 4 == 1) dialect = Dialect::NoGroupBy();
      if (i % 4 == 2) dialect = Dialect::NoAggregates();
      if (i % 4 == 3) dialect = Dialect::RowCapped(64);
      MutationModel mutation;
      // A third of the fleet never changes — realistic (most LD sources
      // are quiet) and what makes the probe-skip path reachable in the
      // churning differential runs.
      mutation.daily_churn_fraction = (i % 3 == 0) ? 0.0 : churn;
      mutation.seed = 500 + i * 104729;
      auto ep = std::make_unique<SimulatedRemoteEndpoint>(
          Url(i), "Delta " + std::to_string(i), store.get(), &clock_,
          dialect, endpoint::AvailabilityModel{}, endpoint::LatencyModel{},
          mutation);
      EndpointRecord record;
      record.url = Url(i);
      record.name = ep->name();
      fleet_->RegisterEndpoint(record);
      fleet_->AttachEndpoint(Url(i), ep.get());
      stores_.push_back(std::move(store));
      endpoints_.push_back(std::move(ep));
    }
  }

  Fleet& fleet() { return *fleet_; }

  size_t TotalQueriesServed() const {
    size_t total = 0;
    for (const auto& ep : endpoints_) total += ep->queries_served();
    return total;
  }

  std::string DumpAllStores() const {
    std::string out;
    for (const auto& store : stores_) out += DumpStore(*store);
    return out;
  }

 private:
  SimClock clock_;
  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
  std::unique_ptr<Fleet> fleet_;
};

FleetOptions Config(int shards, int parallelism, IncrementalMode mode) {
  FleetOptions options;
  options.num_shards = shards;
  options.server.parallelism = parallelism;
  options.server.incremental.mode = mode;
  if (shards == 1 && parallelism == 1) options.fleet_workers = 1;
  return options;
}

struct RunResult {
  FleetReport report;
  std::map<std::string, std::string> summaries;
  std::map<std::string, std::string> clusters;
  std::map<std::string, std::string> indexes;
  std::string stores;
  size_t queries = 0;
  /// The report's day counters summed over every day.
  CounterSet totals;
};

RunResult RunWorld(FleetOptions options, double churn = kChurnFraction) {
  DeltaWorld world(options, churn);
  RunResult r;
  r.report = world.fleet().RunSimulation(kDays);
  r.summaries = MergedCanonicalCollection(world.fleet(), kSummariesCollection);
  r.clusters = MergedCanonicalCollection(world.fleet(), kClustersCollection);
  r.indexes = MergedCanonicalCollection(world.fleet(), kIndexesCollection);
  r.stores = world.DumpAllStores();
  r.queries = world.TotalQueriesServed();
  for (const auto& day : r.report.days) r.totals += day;
  return r;
}

// ------------------------------------------------ the differential gate

/// kDelta must compute exactly what kTrack (probe + always-full, the
/// control arm) and kOff (the seed pipeline) compute, with fewer queries.
TEST(DeltaExtractionTest, DeltaMatchesFullReextraction) {
  RunResult off = RunWorld(Config(1, 1, IncrementalMode::kOff));
  RunResult track = RunWorld(Config(1, 1, IncrementalMode::kTrack));
  RunResult delta = RunWorld(Config(1, 1, IncrementalMode::kDelta));

  // Identical seeded worlds evolve identically whatever the crawler does.
  ASSERT_EQ(track.stores, off.stores);
  ASSERT_EQ(delta.stores, off.stores);

  // Content identity across all three modes.
  EXPECT_EQ(track.report.ContentDump(), off.report.ContentDump());
  EXPECT_EQ(delta.report.ContentDump(), off.report.ContentDump());
  EXPECT_EQ(delta.report.ContentFingerprint(), off.report.ContentFingerprint());

  // Persisted artifacts: byte-identical summaries and cluster schemas.
  EXPECT_EQ(track.summaries, off.summaries);
  EXPECT_EQ(delta.summaries, off.summaries);
  EXPECT_EQ(delta.clusters, off.clusters);
  // Index summaries are persisted only under incremental modes; the two
  // arms must agree with each other.
  EXPECT_TRUE(off.indexes.empty());
  ASSERT_FALSE(track.indexes.empty());
  EXPECT_EQ(delta.indexes, track.indexes);

  // The delta arm actually took the cheap paths, and they paid off.
  EXPECT_GT(delta.totals.probe_skips, 0u);
  EXPECT_GT(delta.totals.delta_extractions, 0u);
  EXPECT_EQ(track.totals.probe_skips, 0u);
  EXPECT_LT(delta.queries, track.queries);
  EXPECT_LT(delta.queries, off.queries);
}

/// Within kDelta the usual deployment-invariance contract holds: shard
/// count and parallelism never change the canonical history.
TEST(DeltaExtractionTest, DeltaInvariantAcrossDeployments) {
  RunResult baseline = RunWorld(Config(1, 1, IncrementalMode::kDelta));
  ASSERT_GT(baseline.totals.probe_skips + baseline.totals.delta_extractions,
            0u);
  const std::string baseline_dump = baseline.report.CanonicalDump();

  struct Deployment {
    int shards, parallelism;
  };
  const Deployment deployments[] = {{2, 1}, {4, 1}, {1, 4}, {4, 4}};
  for (const Deployment& dep : deployments) {
    SCOPED_TRACE("shards=" + std::to_string(dep.shards) +
                 " parallelism=" + std::to_string(dep.parallelism));
    RunResult run = RunWorld(Config(dep.shards, dep.parallelism,
                               IncrementalMode::kDelta));
    EXPECT_EQ(run.report.CanonicalDump(), baseline_dump);
    EXPECT_EQ(run.report.Fingerprint(), baseline.report.Fingerprint());
    EXPECT_EQ(run.summaries, baseline.summaries);
    EXPECT_EQ(run.clusters, baseline.clusters);
    EXPECT_EQ(run.indexes, baseline.indexes);
    EXPECT_EQ(run.stores, baseline.stores);
  }
}

/// An all-quiet fleet costs one probe per endpoint per day after the first
/// full extraction — the O(1)-queries steady state the probe exists for.
TEST(DeltaExtractionTest, QuietFleetSettlesIntoProbeSkips) {
  DeltaWorld world(Config(1, 1, IncrementalMode::kDelta), /*churn=*/0.0);
  FleetReport first = world.fleet().RunSimulation(1);
  ASSERT_EQ(first.days[0].probe_skips, 0u);  // nothing stored yet
  ASSERT_EQ(first.days[0].succeeded, kEndpoints);
  size_t queries_after_first = world.TotalQueriesServed();

  FleetReport rest = world.fleet().RunSimulation(3);
  for (const auto& day : rest.days) {
    EXPECT_EQ(day.due, kEndpoints);
    EXPECT_EQ(day.succeeded, kEndpoints);
    EXPECT_EQ(day.probes, kEndpoints);
    EXPECT_EQ(day.probe_skips, kEndpoints);
    EXPECT_EQ(day.delta_extractions, 0u);
  }
  // Three quiet days: exactly one probe query per endpoint per day.
  EXPECT_EQ(world.TotalQueriesServed() - queries_after_first,
            3 * kEndpoints);
}

/// full_refresh_fraction = 0 disables the restricted path entirely; the
/// pipeline must fall back to full re-extraction and still agree.
TEST(DeltaExtractionTest, ZeroThresholdFallsBackToFullAndStaysExact) {
  FleetOptions always_full = Config(1, 1, IncrementalMode::kDelta);
  always_full.server.incremental.full_refresh_fraction = 0.0;
  RunResult fallback = RunWorld(always_full);
  RunResult delta = RunWorld(Config(1, 1, IncrementalMode::kDelta));

  EXPECT_EQ(fallback.totals.delta_extractions, 0u);
  EXPECT_GT(fallback.totals.probe_skips, 0u);  // quiet days still skip
  EXPECT_EQ(fallback.report.ContentFingerprint(),
            delta.report.ContentFingerprint());
  EXPECT_EQ(fallback.summaries, delta.summaries);
  EXPECT_EQ(fallback.clusters, delta.clusters);
}

// ----------------------------------------------- adversarial endpoints

/// Merged canonical collection with the bookkeeping fields that legally
/// differ between arms zeroed out: a converged kBounded fleet may have
/// last re-extracted an endpoint days after (or before) the oracle arm
/// did, so `extracted_day` is provenance, not content.
std::map<std::string, std::string> NormalizedCollection(
    const Fleet& fleet, const std::string& collection) {
  std::map<std::string, std::string> merged;
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    const store::Collection* c =
        fleet.shard_db(s).FindCollection(collection);
    if (c == nullptr) continue;
    for (const store::DocumentPtr& stored : c->Snapshot()) {
      store::Document doc = *stored;
      const std::string url = doc.GetString("endpoint_url");
      doc.Set("_id", 0);
      doc.Set("extracted_day", 0);
      merged[url] = doc.Dump();
    }
  }
  return merged;
}

constexpr int64_t kAdvFreezeDay = 5;   // last day of churn and lies
constexpr int64_t kAdvBudget = 3;      // kBounded staleness budget
constexpr int64_t kAdvDays = 12;       // 6 adversarial days + 2 budget windows

/// A fleet where most endpoints are adversarial: lying generations and
/// fingerprints, partial and truncated probes, transient probe failures,
/// and structural churn — one endpoint hides class births behind a stale
/// quiet snapshot. World and adversary both freeze after
/// `freeze_after_day`, so convergence tests can assert the hardened
/// pipeline catches back up to the ground truth.
class AdversarialWorld {
 public:
  static std::string Url(size_t i) {
    return "http://adv" + std::to_string(i) + ".example.org/sparql";
  }

  AdversarialWorld(FleetOptions options, int64_t freeze_after_day) {
    options.server.refresh_age_days = 1;
    fleet_ = std::make_unique<Fleet>(&clock_, options);
    for (size_t i = 0; i < kEndpoints; ++i) {
      auto store = std::make_unique<rdf::TripleStore>();
      workload::SyntheticLdConfig config;
      config.namespace_iri =
          "http://adv" + std::to_string(i) + ".example.org/";
      config.num_classes = 5 + i;
      config.max_instances_per_class = 16;
      config.seed = 4200 + i;
      workload::GenerateSyntheticLd(config, store.get());

      Dialect dialect = Dialect::Full();
      if (i % 4 == 1) dialect = Dialect::NoGroupBy();
      if (i % 4 == 2) dialect = Dialect::NoAggregates();
      if (i % 4 == 3) dialect = Dialect::RowCapped(96);

      MutationModel mutation;
      mutation.daily_churn_fraction = (i % 3 == 0) ? 0.0 : 0.08;
      mutation.hot_class_fraction = 0.5;
      mutation.seed = 900 + i * 7919;
      mutation.class_birth_probability = (i % 2 == 0) ? 0.2 : 0.0;
      mutation.class_retire_probability = (i == 4) ? 0.15 : 0.0;
      mutation.quiet_structural_changes = (i == 2);
      mutation.freeze_after_day = freeze_after_day;

      ProbeFaultModel faults;
      faults.seed = 1300 + i * 31337;
      faults.freeze_after_day = freeze_after_day;
      switch (i % 4) {
        case 0:  // honest control arm
          break;
        case 1:  // the quiet liar: stale generations and fingerprints
          faults.lie_generation_probability = 0.35;
          faults.lie_fingerprint_probability = 0.35;
          break;
        case 2:  // partial / truncated fingerprint sets
          faults.partial_probability = 0.4;
          faults.truncate_probability = 0.25;
          break;
        case 3:  // flapping probe channel (transient mid-cycle failures)
          faults.transient_failure_probability = 0.3;
          break;
      }

      auto ep = std::make_unique<SimulatedRemoteEndpoint>(
          Url(i), "Adv " + std::to_string(i), store.get(), &clock_, dialect,
          AvailabilityModel{}, endpoint::LatencyModel{}, mutation, faults);
      EndpointRecord record;
      record.url = Url(i);
      record.name = ep->name();
      fleet_->RegisterEndpoint(record);
      fleet_->AttachEndpoint(Url(i), ep.get());
      stores_.push_back(std::move(store));
      endpoints_.push_back(std::move(ep));
    }
  }

  Fleet& fleet() { return *fleet_; }

  std::string DumpAllStores() const {
    std::string out;
    for (const auto& store : stores_) out += DumpStore(*store);
    return out;
  }

 private:
  SimClock clock_;
  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
  std::unique_ptr<Fleet> fleet_;
};

FleetOptions AdversarialConfig(int shards, int parallelism) {
  FleetOptions options =
      Config(shards, parallelism, IncrementalMode::kBounded);
  options.server.incremental.staleness_budget_days = kAdvBudget;
  options.server.incremental.quarantine_strikes = 2;
  options.server.incremental.quarantine_days = 2;
  return options;
}

/// The hardening contract end to end: under every injected fault class the
/// bounded arm must detect divergences (probe mismatches, forced
/// refreshes), never let a cycle start more than the staleness budget past
/// its last verified full refresh, and — once the world and the adversary
/// freeze — land on artifacts byte-identical to a probe-less full
/// re-extraction of the same world.
TEST(AdversarialDeltaTest, BoundedArmDetectsLiesAndConvergesToTruth) {
  AdversarialWorld world(AdversarialConfig(1, 1), kAdvFreezeDay);
  FleetReport report = world.fleet().RunSimulation(kAdvDays);

  CounterSet totals;
  for (const auto& day : report.days) {
    totals += day;
    for (const auto& [days_stale, n] : day.staleness_histogram) {
      EXPECT_LE(days_stale, kAdvBudget) << "day " << day.day;
    }
  }
  EXPECT_GT(totals.probe_mismatches, 0u);
  EXPECT_GT(totals.forced_refreshes, 0u);

  AdversarialWorld oracle(Config(1, 1, IncrementalMode::kOff),
                          kAdvFreezeDay);
  oracle.fleet().RunSimulation(kAdvDays);

  // Identical seeded worlds evolve identically whatever the crawler does.
  ASSERT_EQ(world.DumpAllStores(), oracle.DumpAllStores());
  EXPECT_EQ(NormalizedCollection(world.fleet(), kSummariesCollection),
            NormalizedCollection(oracle.fleet(), kSummariesCollection));
  EXPECT_EQ(NormalizedCollection(world.fleet(), kClustersCollection),
            NormalizedCollection(oracle.fleet(), kClustersCollection));
}

/// Fault coins are salted by (seed, day, per-day attempt index) — never by
/// wall clock or worker thread — so an adversarial history must replay
/// bit-identically across every shard x parallelism deployment shape.
TEST(AdversarialDeltaTest, AdversarialRunsAreDeploymentInvariant) {
  AdversarialWorld baseline_world(AdversarialConfig(1, 1), kAdvFreezeDay);
  FleetReport baseline = baseline_world.fleet().RunSimulation(kAdvDays);
  const std::string baseline_dump = baseline.CanonicalDump();
  const auto baseline_summaries =
      NormalizedCollection(baseline_world.fleet(), kSummariesCollection);
  const auto baseline_indexes =
      NormalizedCollection(baseline_world.fleet(), kIndexesCollection);
  const std::string baseline_stores = baseline_world.DumpAllStores();

  struct Deployment {
    int shards, parallelism;
  };
  const Deployment deployments[] = {{2, 1}, {4, 1}, {1, 4}, {4, 4}};
  for (const Deployment& dep : deployments) {
    SCOPED_TRACE("shards=" + std::to_string(dep.shards) +
                 " parallelism=" + std::to_string(dep.parallelism));
    AdversarialWorld world(AdversarialConfig(dep.shards, dep.parallelism),
                           kAdvFreezeDay);
    FleetReport report = world.fleet().RunSimulation(kAdvDays);
    EXPECT_EQ(report.CanonicalDump(), baseline_dump);
    EXPECT_EQ(report.Fingerprint(), baseline.Fingerprint());
    EXPECT_EQ(NormalizedCollection(world.fleet(), kSummariesCollection),
              baseline_summaries);
    EXPECT_EQ(NormalizedCollection(world.fleet(), kIndexesCollection),
              baseline_indexes);
    EXPECT_EQ(world.DumpAllStores(), baseline_stores);
  }
}

/// Restricted dialects (no aggregates, row caps) must get incremental
/// refresh through the paginated-scan fallback: its dirty-class mode
/// prices itself against a full scan using last cycle's magnitudes and
/// wins whenever few classes are dirty — and the merged artifacts must be
/// byte-identical to the always-full control arm's.
TEST(AdversarialDeltaTest, RestrictedDialectDeltaRunsThroughPaginatedScan) {
  const std::string url = "http://restricted.example.org/sparql";
  constexpr int64_t kRunDays = 6;

  struct ArmResult {
    std::map<std::string, std::string> summaries;
    std::map<std::string, std::string> clusters;
    std::vector<std::string> delta_strategies;
    std::string store_dump;
  };
  auto run = [&](IncrementalMode mode) {
    ArmResult result;
    SimClock clock;
    store::Database db;
    ServerOptions so;
    so.refresh_age_days = 1;
    so.incremental.mode = mode;
    // Small pages so this small simulated store exercises the multi-page
    // cost model the way a real million-triple endpoint would.
    so.paginated_page_size = 16;
    Server server(&db, &clock, so);

    rdf::TripleStore store;
    workload::SyntheticLdConfig config;
    config.namespace_iri = "http://restricted.example.org/";
    config.num_classes = 12;
    config.max_instances_per_class = 40;
    config.seed = 77;
    workload::GenerateSyntheticLd(config, &store);
    MutationModel mutation;
    mutation.daily_churn_fraction = 0.04;
    mutation.hot_class_fraction = 0.2;
    mutation.seed = 31415;
    SimulatedRemoteEndpoint ep(url, "restricted", &store, &clock,
                               Dialect::NoAggregates(), {}, {}, mutation);
    server.AttachEndpoint(url, &ep);
    EndpointRecord record;
    record.url = url;
    server.RegisterEndpoint(record);

    for (int64_t day = 0; day < kRunDays; ++day) {
      if (day > 0) clock.AdvanceDays(1);
      ep.AdvanceDataDay(day);
      auto r = server.ProcessEndpoint(url);
      EXPECT_TRUE(r.ok()) << "day " << day << ": " << r.status();
      if (r.ok() && r->delta_extracted) {
        result.delta_strategies.push_back(r->extraction.strategy_used);
      }
    }
    result.summaries = CanonicalCollection(db, kSummariesCollection);
    result.clusters = CanonicalCollection(db, kClustersCollection);
    result.store_dump = DumpStore(store);
    return result;
  };

  ArmResult delta = run(IncrementalMode::kDelta);
  ArmResult track = run(IncrementalMode::kTrack);

  ASSERT_EQ(delta.store_dump, track.store_dump);
  ASSERT_FALSE(delta.delta_strategies.empty())
      << "no dirty-class extraction ran on the restricted dialect";
  for (const std::string& strategy : delta.delta_strategies) {
    EXPECT_EQ(strategy, "paginated-scan");
  }
  EXPECT_TRUE(track.delta_strategies.empty());
  // kTrack extracts every day while kDelta may have skipped the last quiet
  // days, so compare content with the provenance day normalized.
  auto normalize = [](std::map<std::string, std::string> docs) {
    for (auto& [doc_url, dump] : docs) {
      auto parsed = Json::Parse(dump);
      if (!parsed.ok()) continue;
      parsed->Set("extracted_day", 0);
      dump = parsed->Dump();
    }
    return docs;
  };
  EXPECT_EQ(normalize(delta.summaries), normalize(track.summaries));
  EXPECT_EQ(normalize(delta.clusters), normalize(track.clusters));
}

// --------------------------------------------------- probe edge cases

/// An empty store's probe (zero classes) must never authorize a
/// probe-skip: generation equality over an empty fingerprint set proves
/// nothing about the content's provenance.
TEST(ProbeEdgeCaseTest, EmptyStoreNeverProbeSkips) {
  SimClock clock;
  store::Database db;
  ServerOptions so;
  so.refresh_age_days = 1;
  so.incremental.mode = IncrementalMode::kDelta;
  Server server(&db, &clock, so);
  rdf::TripleStore store;  // stays empty: zero classes forever
  SimulatedRemoteEndpoint ep("http://empty.example.org/sparql", "empty",
                             &store, &clock);
  server.AttachEndpoint(ep.url(), &ep);
  EndpointRecord record;
  record.url = ep.url();
  server.RegisterEndpoint(record);

  for (int64_t day = 0; day < 3; ++day) {
    if (day > 0) clock.AdvanceDays(1);
    auto r = server.ProcessEndpoint(ep.url());
    ASSERT_TRUE(r.ok()) << "day " << day << ": " << r.status();
    EXPECT_TRUE(r->probed);
    EXPECT_FALSE(r->probe_skipped) << "day " << day;
    EXPECT_FALSE(r->delta_extracted) << "day " << day;
  }
}

/// A probe arriving the same day an endpoint recovers from an outage must
/// reflect the churn the outage window hid: the endpoint catches its data
/// up before answering, so the reported generation never spuriously
/// matches the one persisted before the outage.
TEST(ProbeEdgeCaseTest, OutageRecoveryProbeSeesTheMissedChurn) {
  const std::string url = "http://flaky.example.org/sparql";
  auto make_mutation = [] {
    MutationModel mutation;
    mutation.daily_churn_fraction = 0.3;
    mutation.hot_class_fraction = 1.0;
    mutation.seed = 2718;
    return mutation;
  };
  auto make_store = [](rdf::TripleStore* store) {
    workload::SyntheticLdConfig config;
    config.namespace_iri = "http://flaky.example.org/";
    config.num_classes = 6;
    config.max_instances_per_class = 20;
    config.seed = 99;
    workload::GenerateSyntheticLd(config, store);
  };
  AvailabilityModel avail;
  avail.forced_outage_days = {1};

  // Delta arm: nobody advances the endpoint's data explicitly — the probe
  // itself must catch up on the recovery day (the regression under test).
  SimClock clock;
  store::Database db;
  ServerOptions so;
  so.refresh_age_days = 1;
  so.incremental.mode = IncrementalMode::kDelta;
  Server server(&db, &clock, so);
  rdf::TripleStore store;
  make_store(&store);
  SimulatedRemoteEndpoint ep(url, "flaky", &store, &clock, Dialect::Full(),
                             avail, {}, make_mutation());
  server.AttachEndpoint(url, &ep);
  EndpointRecord record;
  record.url = url;
  server.RegisterEndpoint(record);

  ASSERT_TRUE(server.ProcessEndpoint(url).ok());
  clock.AdvanceDays(1);
  EXPECT_FALSE(server.ProcessEndpoint(url).ok());  // outage day
  clock.AdvanceDays(1);
  auto recovered = server.ProcessEndpoint(url);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  // Two days of churn happened behind the outage; a stale-store probe
  // would have reported a spurious generation match and skipped.
  EXPECT_FALSE(recovered->probe_skipped);

  // Oracle arm: the identical world crawled probe-less, with the data
  // advanced the way the fleet layer does it.
  SimClock oracle_clock;
  store::Database oracle_db;
  ServerOptions oracle_so;
  oracle_so.refresh_age_days = 1;
  Server oracle(&oracle_db, &oracle_clock, oracle_so);
  rdf::TripleStore oracle_store;
  make_store(&oracle_store);
  SimulatedRemoteEndpoint oracle_ep(url, "flaky", &oracle_store,
                                    &oracle_clock, Dialect::Full(), avail,
                                    {}, make_mutation());
  oracle.AttachEndpoint(url, &oracle_ep);
  EndpointRecord oracle_record;
  oracle_record.url = url;
  oracle.RegisterEndpoint(oracle_record);
  for (int64_t day = 0; day < 3; ++day) {
    if (day > 0) oracle_clock.AdvanceDays(1);
    oracle_ep.AdvanceDataDay(day);
    auto r = oracle.ProcessEndpoint(url);
    EXPECT_EQ(r.ok(), day != 1) << "day " << day;
  }

  ASSERT_EQ(DumpStore(store), DumpStore(oracle_store));
  EXPECT_EQ(CanonicalCollection(db, kSummariesCollection),
            CanonicalCollection(oracle_db, kSummariesCollection));
  EXPECT_EQ(CanonicalCollection(db, kClustersCollection),
            CanonicalCollection(oracle_db, kClustersCollection));
}

// --------------------------------------------------------- merge units

ClassInfo MakeClass(const std::string& iri, size_t instances,
                    std::vector<PropertyInfo> props) {
  ClassInfo c;
  c.iri = iri;
  c.instance_count = instances;
  c.properties = std::move(props);
  return c;
}

PropertyInfo DataProp(const std::string& iri, size_t count) {
  PropertyInfo p;
  p.iri = iri;
  p.count = count;
  return p;
}

PropertyInfo ObjectProp(const std::string& iri, size_t count,
                        const std::string& range, size_t range_count) {
  PropertyInfo p;
  p.iri = iri;
  p.count = count;
  p.is_object_property = true;
  p.range_classes[range] = range_count;
  return p;
}

/// Yesterday's world: classes A, B, C. Today: B grew a property, C is
/// gone, D appeared (externally — the model itself never mints classes,
/// but the merge must handle probe-reported unknowns).
struct MergeFixture {
  IndexSummary prior;     // persisted yesterday
  IndexSummary today;     // what a full re-extraction would see
  IndexSummary partial;   // restricted extraction of the dirty classes
  std::vector<std::string> dirty = {"http://x/B", "http://x/D"};
  std::vector<std::string> removed = {"http://x/C"};

  MergeFixture() {
    prior.endpoint_url = "http://x/sparql";
    prior.num_triples = 100;
    prior.num_instances = 18;
    prior.classes = {
        MakeClass("http://x/A", 10,
                  {DataProp("http://x/name", 10),
                   ObjectProp("http://x/knows", 4, "http://x/B", 4)}),
        MakeClass("http://x/B", 5, {DataProp("http://x/name", 5)}),
        MakeClass("http://x/C", 3, {DataProp("http://x/age", 3)}),
    };
    CanonicalizeIndexSummary(&prior);

    today = prior;
    today.num_triples = 104;
    today.num_instances = 19;
    today.classes = {
        today.classes[0],  // A untouched (canonical order: biggest first)
        MakeClass("http://x/B", 7,
                  {DataProp("http://x/name", 7),
                   DataProp("http://x/age", 2)}),
        MakeClass("http://x/D", 2, {DataProp("http://x/name", 2)}),
    };
    CanonicalizeIndexSummary(&today);

    partial.endpoint_url = "http://x/sparql";
    partial.num_triples = today.num_triples;
    partial.num_instances = today.num_instances;
    for (const ClassInfo& c : today.classes) {
      if (c.iri == "http://x/B" || c.iri == "http://x/D") {
        partial.classes.push_back(c);
      }
    }
    CanonicalizeIndexSummary(&partial);
  }
};

TEST(MergeDirtyClassesTest, MergeEqualsFullReextraction) {
  MergeFixture f;
  IndexSummary merged =
      extraction::MergeDirtyClasses(f.prior, f.partial, f.dirty, f.removed);
  EXPECT_EQ(merged.ToJson().Dump(), f.today.ToJson().Dump());
}

TEST(MergeDirtyClassesTest, DirtyClassExtractedToZeroIsDropped) {
  MergeFixture f;
  // B re-extracts to nothing (all its instances retyped away): the merge
  // must drop it, exactly as a full pass would never see it.
  IndexSummary partial;
  partial.endpoint_url = f.partial.endpoint_url;
  partial.num_triples = 90;
  partial.num_instances = 12;
  for (const ClassInfo& c : f.partial.classes) {
    if (c.iri != "http://x/B") partial.classes.push_back(c);
  }
  CanonicalizeIndexSummary(&partial);
  IndexSummary merged =
      extraction::MergeDirtyClasses(f.prior, partial, f.dirty, f.removed);
  for (const ClassInfo& c : merged.classes) {
    EXPECT_NE(c.iri, "http://x/B");
    EXPECT_NE(c.iri, "http://x/C");
  }
  EXPECT_EQ(merged.num_classes, 2u);  // A and D
  EXPECT_EQ(merged.num_triples, 90u);
}

TEST(SchemaPatchTest, PatchedFromIndexesEqualsFromIndexes) {
  MergeFixture f;
  schema::SchemaSummary prior_summary =
      schema::SchemaSummary::FromIndexes(f.prior);
  IndexSummary merged =
      extraction::MergeDirtyClasses(f.prior, f.partial, f.dirty, f.removed);
  schema::SchemaSummary patched = schema::SchemaSummary::PatchedFromIndexes(
      prior_summary, merged, f.dirty);
  schema::SchemaSummary full = schema::SchemaSummary::FromIndexes(merged);
  EXPECT_EQ(patched.ToJson().Dump(), full.ToJson().Dump());
}

TEST(SchemaPatchTest, PatchWithNoDirtyClassesReproducesPrior) {
  MergeFixture f;
  schema::SchemaSummary prior_summary =
      schema::SchemaSummary::FromIndexes(f.prior);
  schema::SchemaSummary patched = schema::SchemaSummary::PatchedFromIndexes(
      prior_summary, f.prior, {});
  EXPECT_EQ(patched.ToJson().Dump(), prior_summary.ToJson().Dump());
}

}  // namespace
}  // namespace hbold
