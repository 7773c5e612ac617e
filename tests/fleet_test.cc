// Fleet-layer tests: stable sharding, the multi-day determinism property
// (canonical history and persisted artifacts are byte-identical across
// shard counts, parallelism, and batching), seeded churn semantics
// (arrivals schedulable the NEXT day, deaths retried daily), adaptive
// batch-width policy, the clock-advance contract, the RefreshScheduler
// mid-cycle pickup regression, and the pinned report serializations.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "endpoint/registry.h"
#include "endpoint/simulated_endpoint.h"
#include "extraction/scheduler.h"
#include "hbold/fleet.h"
#include "hbold/server.h"
#include "store/database.h"
#include "workload/ld_generator.h"

namespace hbold {
namespace {

using endpoint::AvailabilityModel;
using endpoint::Dialect;
using endpoint::EndpointRecord;
using endpoint::EndpointRegistry;
using endpoint::SimulatedRemoteEndpoint;
using extraction::RefreshScheduler;

constexpr size_t kBaseEndpoints = 10;   // last one registered, never attached
constexpr size_t kLatentEndpoints = 2;  // churn in on day 0 (processed day 1)
constexpr double kDeathProbability = 0.08;
constexpr uint64_t kChurnSeed = 77;

/// Canonical view of one collection's persisted content (same idiom as
/// async_extraction_test): endpoint_url -> dump with the
/// insertion-order-dependent _id normalized away.
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

/// Union of a collection across every shard's database. Each endpoint
/// lives in exactly one shard, so the union is key-disjoint and directly
/// comparable to a 1-shard run's collection.
std::map<std::string, std::string> MergedCanonicalCollection(
    const Fleet& fleet, const std::string& collection) {
  std::map<std::string, std::string> merged;
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    for (auto& [url, dump] : CanonicalCollection(fleet.shard_db(s),
                                                 collection)) {
      merged.emplace(url, dump);
    }
  }
  return merged;
}

/// A throttling proxy: the backing store answers, but anything with a
/// GROUP BY blows the simulated work budget — so the efficient
/// direct-aggregation strategy times out (one throttle event) and the
/// extractor lands on per-class counting. Deterministic by construction.
class GroupByThrottlingEndpoint : public endpoint::SparqlEndpoint {
 public:
  explicit GroupByThrottlingEndpoint(endpoint::SparqlEndpoint* inner)
      : inner_(inner) {}

  Result<endpoint::QueryOutcome> Query(const std::string& q) override {
    if (q.find("GROUP BY") != std::string::npos) {
      return Status::Timeout("simulated throttling on " + inner_->url());
    }
    return inner_->Query(q);
  }
  const std::string& url() const override { return inner_->url(); }
  const std::string& name() const override { return inner_->name(); }
  size_t queries_served() const override { return inner_->queries_served(); }

 private:
  endpoint::SparqlEndpoint* inner_;
};

/// One seeded simulated world: stores are shared across configurations
/// (content is immutable), endpoints are rebuilt per run because they
/// bind to the run's clock.
class FleetWorld {
 public:
  /// Builds the shared stores once.
  static std::vector<std::unique_ptr<rdf::TripleStore>> BuildStores() {
    std::vector<std::unique_ptr<rdf::TripleStore>> stores;
    for (size_t i = 0; i < kBaseEndpoints + kLatentEndpoints; ++i) {
      auto store = std::make_unique<rdf::TripleStore>();
      workload::SyntheticLdConfig config;
      config.namespace_iri = Url(i).substr(0, Url(i).size() - 6);  // strip "sparql"
      config.num_classes = 5 + i * 2;
      config.max_instances_per_class = 20;
      config.seed = 1400 + i;
      workload::GenerateSyntheticLd(config, store.get());
      stores.push_back(std::move(store));
    }
    return stores;
  }

  static std::string Url(size_t i) {
    return "http://fleet" + std::to_string(i) + ".example.org/sparql";
  }

  explicit FleetWorld(const std::vector<std::unique_ptr<rdf::TripleStore>>&
                          stores,
                      FleetOptions options) {
    options.churn.death_probability = kDeathProbability;
    options.churn.seed = kChurnSeed;
    fleet_ = std::make_unique<Fleet>(&clock_, options);
    for (size_t i = 0; i < kBaseEndpoints + kLatentEndpoints; ++i) {
      Dialect dialect = Dialect::Full();
      if (i % 4 == 1) dialect = Dialect::NoGroupBy();
      if (i % 4 == 2) dialect = Dialect::NoAggregates();
      if (i % 4 == 3) dialect = Dialect::RowCapped(64);
      AvailabilityModel availability;
      if (i == 8) availability.forced_outage_days = {0};  // flaps on day 0
      if (i == 7) dialect = Dialect::Full();  // throttled via proxy below
      endpoints_.push_back(std::make_unique<SimulatedRemoteEndpoint>(
          Url(i), "Fleet " + std::to_string(i), stores[i].get(), &clock_,
          dialect, availability));
    }
    throttler_ = std::make_unique<GroupByThrottlingEndpoint>(
        endpoints_[7].get());
    for (size_t i = 0; i < kBaseEndpoints; ++i) {
      EndpointRecord record;
      record.url = Url(i);
      record.name = endpoints_[i]->name();
      fleet_->RegisterEndpoint(record);
      if (i + 1 < kBaseEndpoints) {
        // The last base endpoint has no route: a permanent §3.1 failure
        // retried every day. Endpoint 7 answers through the throttling
        // proxy so every extraction reports throttle pressure.
        fleet_->AttachEndpoint(
            Url(i), i == 7
                        ? static_cast<endpoint::SparqlEndpoint*>(
                              throttler_.get())
                        : endpoints_[i].get());
      }
    }
    for (size_t i = kBaseEndpoints; i < kBaseEndpoints + kLatentEndpoints;
         ++i) {
      EndpointRecord record;
      record.url = Url(i);
      record.name = endpoints_[i]->name();
      fleet_->churn().ScheduleArrival(/*day=*/0, std::move(record),
                                      endpoints_[i].get());
    }
  }

  Fleet& fleet() { return *fleet_; }
  SimClock& clock() { return clock_; }

 private:
  SimClock clock_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
  std::unique_ptr<GroupByThrottlingEndpoint> throttler_;
  std::unique_ptr<Fleet> fleet_;
};

class FleetSimulationTest : public ::testing::Test {
 protected:
  void SetUp() override { stores_ = FleetWorld::BuildStores(); }

  FleetOptions Config(int shards, int parallelism, int width,
                      bool adaptive = false) {
    FleetOptions options;
    options.num_shards = shards;
    options.server.parallelism = parallelism;
    options.server.query_batch_width = width;
    options.adaptive_width.enabled = adaptive;
    options.adaptive_width.max_width = 8;
    if (shards == 1 && parallelism == 1) options.fleet_workers = 1;
    return options;
  }

  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
};

// ------------------------------------------------------------- sharding

TEST_F(FleetSimulationTest, ShardAssignmentStableAndPartitioned) {
  FleetWorld a(stores_, Config(4, 1, 1));
  FleetWorld b(stores_, Config(4, 1, 1));
  size_t total = 0;
  std::set<size_t> used;
  for (size_t i = 0; i < kBaseEndpoints; ++i) {
    const std::string url = FleetWorld::Url(i);
    EXPECT_EQ(a.fleet().ShardOf(url), b.fleet().ShardOf(url)) << url;
    used.insert(a.fleet().ShardOf(url));
  }
  for (size_t s = 0; s < a.fleet().num_shards(); ++s) {
    total += a.fleet().shard(s).registry().size();
  }
  EXPECT_EQ(total, kBaseEndpoints);
  // 10 urls over 4 shards: the stable hash should actually spread them.
  EXPECT_GE(used.size(), 2u);
  EXPECT_EQ(a.fleet().registration_order().size(), kBaseEndpoints);
}

// ------------------------------------------------- the determinism gate

TEST_F(FleetSimulationTest, CanonicalHistoryInvariantAcrossDeployments) {
  constexpr int64_t kDays = 4;
  FleetWorld baseline_world(stores_, Config(1, 1, 1));
  FleetReport baseline = baseline_world.fleet().RunSimulation(kDays);
  const std::string baseline_dump = baseline.CanonicalDump();
  auto baseline_summaries =
      MergedCanonicalCollection(baseline_world.fleet(), kSummariesCollection);
  auto baseline_clusters =
      MergedCanonicalCollection(baseline_world.fleet(), kClustersCollection);
  ASSERT_EQ(baseline.days.size(), static_cast<size_t>(kDays));
  // The world must actually exercise the interesting machinery.
  EXPECT_EQ(baseline.days[0].arrivals, kLatentEndpoints);
  EXPECT_GE(baseline.days[0].failed, 1u);  // the unattached endpoint
  size_t total_deaths = 0;
  for (const auto& day : baseline.days) {
    total_deaths += day.deaths;
    EXPECT_FALSE(day.overran_day);
  }
  EXPECT_GE(total_deaths, 1u) << "churn seed produced no deaths; the "
                                 "differential test would not cover them";
  ASSERT_GE(baseline_summaries.size(), kBaseEndpoints - 2);

  struct Deployment {
    int shards, parallelism, width;
    bool adaptive;
  };
  const Deployment deployments[] = {
      {2, 1, 1, false}, {4, 1, 1, false}, {4, 4, 1, false},
      {2, 4, 4, false}, {4, 1, 4, false}, {4, 4, 4, true},
  };
  for (const Deployment& dep : deployments) {
    SCOPED_TRACE("shards=" + std::to_string(dep.shards) +
                 " parallelism=" + std::to_string(dep.parallelism) +
                 " width=" + std::to_string(dep.width) +
                 (dep.adaptive ? " adaptive" : ""));
    FleetWorld world(
        stores_, Config(dep.shards, dep.parallelism, dep.width, dep.adaptive));
    FleetReport report = world.fleet().RunSimulation(kDays);
    EXPECT_EQ(report.CanonicalDump(), baseline_dump);
    EXPECT_EQ(report.Fingerprint(), baseline.Fingerprint());
    EXPECT_EQ(MergedCanonicalCollection(world.fleet(), kSummariesCollection),
              baseline_summaries);
    EXPECT_EQ(MergedCanonicalCollection(world.fleet(), kClustersCollection),
              baseline_clusters);
  }
}

TEST_F(FleetSimulationTest, RepeatedRunsBitIdenticalIncludingDurations) {
  FleetWorld a(stores_, Config(4, 4, 4));
  FleetWorld b(stores_, Config(4, 4, 4));
  FleetReport ra = a.fleet().RunSimulation(3);
  FleetReport rb = b.fleet().RunSimulation(3);
  ASSERT_EQ(ra.days.size(), rb.days.size());
  EXPECT_EQ(ra.CanonicalDump(), rb.CanonicalDump());
  for (size_t d = 0; d < ra.days.size(); ++d) {
    // Same deployment => even the duration figures are bit-identical.
    EXPECT_EQ(ra.days[d].fleet_makespan_ms, rb.days[d].fleet_makespan_ms);
  }
}

// ------------------------------------------------------- clock contract

TEST_F(FleetSimulationTest, ClockAdvancesByMakespanThenSnapsToDayBoundary) {
  FleetWorld world(stores_, Config(2, 1, 1));
  EXPECT_EQ(world.clock().NowDay(), 0);
  FleetDayReport day0 = world.fleet().RunDay();
  EXPECT_EQ(day0.day, 0);
  EXPECT_GT(day0.fleet_makespan_ms, 0);
  double max_shard = 0;
  for (const DailyReport& s : day0.shard_reports) {
    max_shard = std::max(max_shard, s.batched_makespan_ms);
  }
  EXPECT_EQ(day0.fleet_makespan_ms, max_shard);
  // The makespan is far under a simulated day, so the clock snapped to
  // the next boundary exactly.
  EXPECT_FALSE(day0.overran_day);
  EXPECT_EQ(world.clock().NowMs(), SimClock::kMillisPerDay);
  EXPECT_EQ(world.clock().NowDay(), 1);
}

// ---------------------------------------------------------------- churn

TEST_F(FleetSimulationTest, ChurnArrivalsPickedUpNextDayNotSameDay) {
  FleetWorld world(stores_, Config(2, 1, 1));
  FleetDayReport day0 = world.fleet().RunDay();
  EXPECT_EQ(day0.arrivals, kLatentEndpoints);
  std::set<std::string> day0_urls;
  for (const DueOutcome& o : day0.outcomes) day0_urls.insert(o.url);
  const std::string latent = FleetWorld::Url(kBaseEndpoints);
  EXPECT_EQ(day0_urls.count(latent), 0u)
      << "an endpoint that churned in on day 0 must not be extracted on "
         "day 0";

  FleetDayReport day1 = world.fleet().RunDay();
  std::set<std::string> day1_urls;
  for (const DueOutcome& o : day1.outcomes) day1_urls.insert(o.url);
  EXPECT_EQ(day1_urls.count(latent), 1u)
      << "the day-0 arrival must be deterministically picked up on day 1";
}

TEST_F(FleetSimulationTest, DeadEndpointsFailAndRetryDaily) {
  FleetWorld world(stores_, Config(2, 1, 1));
  FleetReport report = world.fleet().RunSimulation(4);
  // Find the first death and check the url keeps failing afterwards.
  std::string victim;
  size_t death_day = 0;
  for (size_t d = 0; d < report.days.size() && victim.empty(); ++d) {
    if (report.days[d].deaths == 0) continue;
    death_day = d;
    // The victim shows up as a newly failing, previously succeeding url.
    for (const DueOutcome& o : report.days[d].outcomes) {
      if (!o.succeeded && o.url != FleetWorld::Url(kBaseEndpoints - 1)) {
        victim = o.url;
        break;
      }
    }
  }
  ASSERT_FALSE(victim.empty()) << "no death in 4 days with this seed";
  for (size_t d = death_day; d < report.days.size(); ++d) {
    bool found = false;
    for (const DueOutcome& o : report.days[d].outcomes) {
      if (o.url == victim) {
        EXPECT_FALSE(o.succeeded) << "day " << d;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "a dead endpoint must be retried daily (day " << d
                       << ")";
  }
}

// ------------------------------------------------------- adaptive width

TEST(AdaptiveWidthControllerTest, BacksOffMultiplicativelyAndRecovers) {
  AdaptiveWidthOptions options;
  options.enabled = true;
  options.min_width = 1;
  options.max_width = 8;
  options.recovery_days = 2;
  AdaptiveWidthController controller(options, /*initial_width=*/8);
  const std::string url = "http://x/sparql";
  EXPECT_EQ(controller.WidthFor(url), 8);
  EXPECT_EQ(controller.Observe(url, false, /*throttle_events=*/2), 4);
  EXPECT_EQ(controller.Observe(url, false, 1), 2);
  EXPECT_EQ(controller.Observe(url, true, 0), 1);
  EXPECT_EQ(controller.Observe(url, true, 0), 1);  // clamped at min
  // Two clean days per step back up.
  EXPECT_EQ(controller.Observe(url, false, 0), 1);
  EXPECT_EQ(controller.Observe(url, false, 0), 2);
  EXPECT_EQ(controller.Observe(url, false, 0), 2);
  EXPECT_EQ(controller.Observe(url, false, 0), 3);
  // A relapse resets the streak.
  EXPECT_EQ(controller.Observe(url, false, 1), 1);
}

TEST(AdaptiveWidthControllerTest, InitialWidthClampedIntoPolicyRange) {
  AdaptiveWidthOptions options;
  options.min_width = 2;
  options.max_width = 4;
  AdaptiveWidthController controller(options, /*initial_width=*/16);
  EXPECT_EQ(controller.WidthFor("a"), 4);
  AdaptiveWidthController low(options, /*initial_width=*/1);
  EXPECT_EQ(low.WidthFor("a"), 2);
}

TEST_F(FleetSimulationTest, AdaptiveWidthNarrowsThrottledEndpointOnly) {
  FleetOptions options = Config(2, 1, 4, /*adaptive=*/true);
  FleetWorld world(stores_, options);
  Fleet& fleet = world.fleet();
  const std::string throttled = FleetWorld::Url(7);
  const std::string clean = FleetWorld::Url(0);
  FleetDayReport day0 = fleet.RunDay();
  // The throttler really did report pressure.
  bool saw_throttle = false;
  for (const PipelineReport& r : day0.reports) {
    if (r.url == throttled) saw_throttle = r.extraction.throttle_events > 0;
  }
  ASSERT_TRUE(saw_throttle)
      << "work-budget endpoint did not report throttle_events; the "
         "adaptive policy has no signal";
  fleet.RunDay();  // day 1: push the adapted widths into the shards
  EXPECT_LT(fleet.shard(fleet.ShardOf(throttled))
                .QueryBatchWidthFor(throttled),
            4);
  EXPECT_EQ(fleet.shard(fleet.ShardOf(clean)).QueryBatchWidthFor(clean), 4);
}

// ------------------------------- RefreshScheduler mid-cycle regression

TEST(SchedulerMidCycleTest, FirstEligibleDayDefersBothDuePaths) {
  RefreshScheduler scheduler(7);
  EndpointRegistry registry;
  EndpointRecord seed;
  seed.url = "http://seed/sparql";
  registry.Add(seed);

  // Mid-cycle on day 3: a crawler (or churn) adds a record. The next-day
  // eligibility horizon makes both due paths skip it today...
  EndpointRecord newcomer;
  newcomer.url = "http://new/sparql";
  newcomer.added_day = 3;
  newcomer.first_eligible_day = 4;
  registry.Add(newcomer);

  std::vector<std::string> live = scheduler.DueToday(registry, 3);
  std::vector<std::string> snap = scheduler.DueToday(registry.Snapshot(), 3);
  EXPECT_EQ(live, snap);
  EXPECT_EQ(live, std::vector<std::string>{"http://seed/sparql"});

  // ...and deterministically include it the next simulated day.
  live = scheduler.DueToday(registry, 4);
  snap = scheduler.DueToday(registry.Snapshot(), 4);
  EXPECT_EQ(live, snap);
  EXPECT_EQ(live, (std::vector<std::string>{"http://seed/sparql",
                                            "http://new/sparql"}));
}

TEST(SchedulerMidCycleTest, LegacyRecordsWithoutHorizonStayImmediate) {
  RefreshScheduler scheduler(7);
  EndpointRecord legacy;
  legacy.url = "http://old/sparql";
  legacy.added_day = 5;  // default first_eligible_day = -1
  EXPECT_TRUE(scheduler.IsDue(legacy, 5));
}

TEST(SchedulerMidCycleTest, FirstEligibleDayRoundTripsThroughJson) {
  EndpointRecord record;
  record.url = "http://r/sparql";
  record.first_eligible_day = 12;
  EndpointRecord reloaded = EndpointRecord::FromJson(record.ToJson());
  EXPECT_EQ(reloaded.first_eligible_day, 12);

  // Registries persisted before the field existed load as "immediately".
  Json old = record.ToJson();
  Json stripped = Json::MakeObject();
  stripped.Set("url", "http://r/sparql");
  stripped.Set("added_day", static_cast<int64_t>(3));
  EXPECT_EQ(EndpointRecord::FromJson(stripped).first_eligible_day, -1);
}

// ------------------------------------------------ report serialization

/// Three hand-built days covering every emission rule of the day
/// counters: a kOff-style day (no probes), an incremental day with a
/// mismatch and a staleness histogram but no skips, and a day with
/// query-engine deployment counters.
FleetReport HandBuiltReport() {
  FleetReport report;
  FleetDayReport off;
  off.due = 2;
  off.succeeded = 1;
  off.failed = 1;
  off.sum_latency_ms = 12.5;
  off.outcomes.push_back(DueOutcome{"http://a/sparql", true, 7.5, 3.5});
  off.outcomes.push_back(DueOutcome{"http://b/sparql", false, 5.0, 5.0});
  PipelineReport a;
  a.url = "http://a/sparql";
  a.classes = 3;
  a.extraction.queries_issued = 4;
  off.reports.push_back(a);
  report.days.push_back(off);

  FleetDayReport probed;
  probed.day = 1;
  probed.due = probed.succeeded = probed.probes = 3;
  probed.reused = probed.delta_extractions = probed.probe_mismatches = 1;
  probed.forced_refreshes = probed.quarantines_entered = 1;
  probed.staleness_histogram = {{0, 2}, {3, 1}};
  a.probed = a.delta_extracted = a.probe_mismatch = a.forced_refresh = true;
  a.staleness_days = 3;
  probed.reports.push_back(a);
  report.days.push_back(probed);

  FleetDayReport engine;
  engine.day = 2;
  engine.due = engine.succeeded = engine.reused = 1;
  engine.quarantines_exited = 1;
  engine.plan_cache_hits = 5;
  engine.plan_cache_misses = 2;
  engine.hash_join_builds = 1;
  report.days.push_back(engine);
  return report;
}

TEST(FleetReportTest, CanonicalDumpBytesArePinned) {
  // Any drift in these bytes also moves every committed bench
  // fingerprint, so it must be deliberate.
  const std::string expected =
      R"({"days":[{"arrivals":0,"day":0,"deaths":0,"due":2,"failed":1,)"
      R"("outcomes":[{"latency_ms":7.5,"ok":true,)"
      R"("url":"http://a/sparql"},{"latency_ms":5,"ok":false,)"
      R"("url":"http://b/sparql"}],"reports":[{"arcs":0,"classes":3,)"
      R"("clusters":0,"fallbacks":[],"latency_ms":0,"queries":4,)"
      R"("reused":false,"rows":0,"strategy":"","throttle_events":0,)"
      R"("url":"http://a/sparql"}],"reused":0,"succeeded":1,)"
      R"("sum_latency_ms":12.5},{"arrivals":0,"day":1,"deaths":0,)"
      R"("delta_extractions":1,"due":3,"failed":0,"forced_refreshes":1,)"
      R"("outcomes":[],"probe_mismatches":1,"probe_skips":0,"probes":3,)"
      R"("quarantines_entered":1,"reports":[{"arcs":0,"classes":3,)"
      R"("clusters":0,"delta":true,"dirty":0,"fallbacks":[],)"
      R"("forced_refresh":true,"latency_ms":0,"probe_mismatch":true,)"
      R"("probe_skipped":false,"probed":true,"queries":4,"removed":0,)"
      R"("reused":false,"rows":0,"staleness_days":3,"strategy":"",)"
      R"("throttle_events":0,"url":"http://a/sparql"}],"reused":1,)"
      R"("staleness_histogram":{"0":2,"3":1},"succeeded":3,)"
      R"("sum_latency_ms":0},{"arrivals":0,"day":2,"deaths":0,"due":1,)"
      R"("failed":0,"outcomes":[],"quarantines_exited":1,"reports":[],)"
      R"("reused":1,"succeeded":1,"sum_latency_ms":0}]})";
  EXPECT_EQ(HandBuiltReport().CanonicalDump(), expected);
}

TEST(FleetReportTest, ToJsonCarriesEveryCounter) {
  const Json json = HandBuiltReport().ToJson();
  const Json::Array& days = json.Find("days")->as_array();
  ASSERT_EQ(days.size(), 3u);
  for (const Json& day : days) {
    for (const char* key :
         {"due", "succeeded", "failed", "reused", "probes", "probe_skips",
          "delta_extractions", "probe_mismatches", "forced_refreshes",
          "quarantines_entered", "quarantines_exited", "staleness_histogram",
          "plan_cache_hits", "plan_cache_misses", "hash_join_builds"}) {
      EXPECT_NE(day.Find(key), nullptr) << key;
    }
  }
  EXPECT_EQ(days[0].Find("staleness_histogram")->Dump(), "{}");
  EXPECT_EQ(days[1].Find("staleness_histogram")->Dump(), R"({"0":2,"3":1})");
  EXPECT_EQ(days[2].GetInt("plan_cache_hits"), 5);
  EXPECT_EQ(days[2].GetInt("plan_cache_misses"), 2);
  EXPECT_EQ(days[2].GetInt("hash_join_builds"), 1);
}

}  // namespace
}  // namespace hbold
