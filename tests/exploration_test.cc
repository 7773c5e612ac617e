// Serving-layer tests: session transcript determinism across thread counts
// and cache modes, LayoutCache semantics (single-flight, LRU, content keys,
// refresh-time pruning),
// snapshot readers racing daily extraction cycles (the TSan hammer),
// drill-down determinism, and EffectivenessSimulator tie-break stability.

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/effectiveness.h"
#include "hbold/exploration_service.h"
#include "hbold/fleet.h"
#include "hbold/presentation.h"
#include "hbold/server.h"
#include "rdf/vocab.h"
#include "store/collection.h"
#include "viz/layout_cache.h"
#include "workload/exploration_workload.h"
#include "workload/ld_generator.h"

namespace hbold {
namespace {

using endpoint::EndpointRecord;
using endpoint::SimulatedRemoteEndpoint;
using workload::ExplorationWorkloadOptions;
using workload::GenerateSessions;
using workload::SessionPlan;

constexpr size_t kEndpoints = 6;

std::string Url(size_t i) {
  return "http://serve" + std::to_string(i) + ".example.org/sparql";
}

/// A small seeded fleet world the serving tests run against.
class ServingWorld {
 public:
  explicit ServingWorld(int num_shards, size_t fleet_workers = 1) {
    for (size_t i = 0; i < kEndpoints; ++i) {
      auto store = std::make_unique<rdf::TripleStore>();
      workload::SyntheticLdConfig config;
      config.namespace_iri = Url(i).substr(0, Url(i).size() - 6);
      config.num_classes = 4 + i * 2;
      config.max_instances_per_class = 15;
      config.seed = 900 + i;
      workload::GenerateSyntheticLd(config, store.get());
      stores_.push_back(std::move(store));
    }
    FleetOptions options;
    options.num_shards = num_shards;
    options.fleet_workers = fleet_workers;
    fleet_ = std::make_unique<Fleet>(&clock_, options);
    for (size_t i = 0; i < kEndpoints; ++i) {
      endpoints_.push_back(std::make_unique<SimulatedRemoteEndpoint>(
          Url(i), "Serve " + std::to_string(i), stores_[i].get(), &clock_));
      EndpointRecord record;
      record.url = Url(i);
      record.name = endpoints_[i]->name();
      fleet_->RegisterEndpoint(record);
      fleet_->AttachEndpoint(Url(i), endpoints_[i].get());
    }
  }

  Fleet& fleet() { return *fleet_; }
  rdf::TripleStore& store(size_t i) { return *stores_[i]; }

 private:
  SimClock clock_;
  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
  std::unique_ptr<Fleet> fleet_;
};

ExplorationWorkloadOptions SmallWorkload() {
  ExplorationWorkloadOptions options;
  options.sessions = 24;
  options.seed = 4242;
  return options;
}

// ------------------------------------------- transcript determinism gate

TEST(ExplorationServingTest, TranscriptsInvariantAcrossThreadsAndCache) {
  ServingWorld world(2);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());

  std::vector<SessionPlan> plans =
      GenerateSessions(SmallWorkload(), kEndpoints);

  auto serve = [&](bool use_cache, size_t threads) {
    ExplorationServiceOptions options;
    options.use_layout_cache = use_cache;
    ExplorationService service(&world.fleet(), options);
    EXPECT_EQ(service.RefreshSnapshots(), kEndpoints);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    return service.RunSessions(plans, pool.get());
  };

  std::vector<SessionResult> baseline = serve(/*use_cache=*/true, 1);
  ASSERT_EQ(baseline.size(), plans.size());
  // Sessions actually exercised rendering and live queries.
  size_t renders = 0, queries = 0;
  for (const SessionResult& r : baseline) {
    ASSERT_FALSE(r.transcript.empty());
    EXPECT_EQ(r.interaction_wall_ms.size(),
              plans[r.session_id].actions.size());
    if (r.transcript.find(" geometry=") != std::string::npos) ++renders;
    if (r.transcript.find(" sparql=") != std::string::npos) ++queries;
    EXPECT_EQ(r.transcript.find("no_dataset"), std::string::npos)
        << r.transcript;
  }
  EXPECT_GT(renders, 0u);
  EXPECT_GT(queries, 0u);

  uint64_t anchor = ExplorationService::CombinedFingerprint(baseline);
  for (bool cache : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::vector<SessionResult> run = serve(cache, threads);
      ASSERT_EQ(run.size(), baseline.size());
      for (size_t i = 0; i < run.size(); ++i) {
        EXPECT_EQ(run[i].transcript, baseline[i].transcript)
            << "cache=" << cache << " threads=" << threads << " session " << i;
      }
      EXPECT_EQ(ExplorationService::CombinedFingerprint(run), anchor);
    }
  }
}

TEST(ExplorationServingTest, CacheMissesAreUniqueKeysUnderConcurrency) {
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  std::vector<SessionPlan> plans =
      GenerateSessions(SmallWorkload(), kEndpoints);

  viz::LayoutCacheStats inline_stats, pooled_stats;
  for (int pooled = 0; pooled < 2; ++pooled) {
    ExplorationService service(&world.fleet(), {});
    ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
    std::unique_ptr<ThreadPool> pool;
    if (pooled) pool = std::make_unique<ThreadPool>(4);
    service.RunSessions(plans, pool.get());
    (pooled ? pooled_stats : inline_stats) = service.cache_stats();
  }
  // Single-flight: misses == distinct datasets rendered, independent of
  // scheduling; every other render is a hit.
  EXPECT_GT(inline_stats.misses, 0u);
  EXPECT_LE(inline_stats.misses, kEndpoints);
  EXPECT_EQ(inline_stats.misses, pooled_stats.misses);
  EXPECT_EQ(inline_stats.hits, pooled_stats.hits);
  EXPECT_EQ(inline_stats.evictions, 0u);
  EXPECT_EQ(pooled_stats.evictions, 0u);
}

TEST(ExplorationServingTest, RefreshKeepsCachedLayoutsAndTranscripts) {
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  std::vector<SessionPlan> plans = GenerateSessions(SmallWorkload(), 1);

  ExplorationService service(&world.fleet(), {});
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  std::vector<SessionResult> first = service.RunSessions(plans, nullptr);
  viz::LayoutCacheStats before = service.cache_stats();
  EXPECT_GT(before.misses, 0u);

  // Same store content: the refresh keeps every cached layout, so the
  // second pass renders from the cache alone and reads the same bytes.
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  std::vector<SessionResult> second = service.RunSessions(plans, nullptr);
  viz::LayoutCacheStats after = service.cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_GT(after.hits, before.hits);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].transcript, second[i].transcript);
  }
}

// A churned day changes some stores: the refresh evicts the layouts of the
// changed datasets, and serving lays out exactly those that are rendered
// again, matching a service that renders everything from scratch.
TEST(ExplorationServingTest, ChurnedDayRelaysOutOnlyChangedDatasets) {
  ServingWorld world(2);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  std::vector<SessionPlan> plans =
      GenerateSessions(SmallWorkload(), kEndpoints);
  ExplorationService service(&world.fleet(), {});
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  const std::vector<DatasetSnapshot> old_catalog = service.catalog();
  service.RunSessions(plans, nullptr);
  const viz::LayoutCacheStats before = service.cache_stats();

  // The churn, re-extracted: store 1 gains a class with three instances;
  // store 4 gains an attribute, which changes its Schema Summary but not
  // its Cluster Schema.
  auto ns = [](size_t i) { return Url(i).substr(0, Url(i).size() - 6); };
  for (int k = 0; k < 3; ++k) {
    world.store(1).Add(rdf::Term::Iri(ns(1) + "churned/" + std::to_string(k)),
                       rdf::Term::Iri(rdf::vocab::kRdfType),
                       rdf::Term::Iri(ns(1) + "ChurnedClass"));
  }
  world.store(4).Add(rdf::Term::Iri(ns(4) + "inst/C0_0"),
                     rdf::Term::Iri(ns(4) + "prop/churned"),
                     rdf::Term::Literal("churned"));
  for (size_t i : {size_t{1}, size_t{4}}) {
    Server& server = world.fleet().shard(world.fleet().ShardOf(Url(i)));
    auto report = server.ProcessEndpoint(Url(i));
    ASSERT_TRUE(report.ok()) << report.status();
  }

  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  std::set<std::string> changed;
  for (size_t i = 0; i < kEndpoints; ++i) {
    const DatasetSnapshot& now = service.catalog()[i];
    ASSERT_EQ(now.url, old_catalog[i].url);
    if (now.schema_fingerprint != old_catalog[i].schema_fingerprint ||
        now.cluster_fingerprint != old_catalog[i].cluster_fingerprint) {
      changed.insert(now.url);
    }
  }
  EXPECT_EQ(changed, (std::set<std::string>{Url(1), Url(4)}));
  EXPECT_NE(service.catalog()[4].schema_fingerprint,
            old_catalog[4].schema_fingerprint);
  EXPECT_EQ(service.catalog()[4].cluster_fingerprint,
            old_catalog[4].cluster_fingerprint);
  const std::vector<SessionResult> churned =
      service.RunSessions(plans, nullptr);
  const viz::LayoutCacheStats after = service.cache_stats();

  ExplorationServiceOptions uncached;
  uncached.use_layout_cache = false;
  ExplorationService fresh(&world.fleet(), uncached);
  ASSERT_EQ(fresh.RefreshSnapshots(), kEndpoints);
  const std::vector<SessionResult> reference =
      fresh.RunSessions(plans, nullptr);
  ASSERT_EQ(churned.size(), reference.size());
  for (size_t i = 0; i < churned.size(); ++i) {
    EXPECT_EQ(churned[i].transcript, reference[i].transcript) << "session " << i;
  }

  // Each session opens one dataset; the changed ones that a session
  // rendered are the only layouts computed again.
  std::set<std::string> rendered_changed;
  for (const SessionResult& r : churned) {
    if (r.transcript.find(" geometry=") == std::string::npos) continue;
    for (const std::string& url : changed) {
      if (r.transcript.find(" url=" + url + " ") != std::string::npos) {
        rendered_changed.insert(url);
      }
    }
  }
  EXPECT_GT(rendered_changed.size(), 0u);
  EXPECT_EQ(after.misses - before.misses, rendered_changed.size());
  // The same plans rendered the same datasets before the churn, so the
  // refresh evicted exactly their old layouts.
  EXPECT_EQ(after.evictions - before.evictions, rendered_changed.size());
}

// Stored documents are immutable, so a refresh reuses the decoded objects
// of every dataset whose two documents are the same objects as last time.
TEST(ExplorationServingTest, RefreshDecodesOnlyDatasetsWhoseDocumentsChanged) {
  ServingWorld world(2);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  std::vector<SessionPlan> plans =
      GenerateSessions(SmallWorkload(), kEndpoints);
  ExplorationService service(&world.fleet(), {});
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  const std::vector<DatasetSnapshot> first = service.catalog();
  const std::vector<SessionResult> first_run =
      service.RunSessions(plans, nullptr);

  // No writes: every dataset hands back the very same decoded objects.
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  for (size_t i = 0; i < kEndpoints; ++i) {
    EXPECT_EQ(service.catalog()[i].summary, first[i].summary);
    EXPECT_EQ(service.catalog()[i].clusters, first[i].clusters);
  }

  // Re-persist one endpoint's summary with unchanged content: only that
  // entry is decoded again, to the same values.
  const std::string changed = Url(2);
  store::Collection* summaries =
      world.fleet()
          .shard_db(world.fleet().ShardOf(changed))
          .GetCollection(kSummariesCollection);
  Json filter = Json::MakeObject();
  filter.Set("endpoint_url", changed);
  store::DocumentPtr stored = summaries->FindOne(filter);
  ASSERT_NE(stored, nullptr);
  ASSERT_TRUE(summaries->Replace(filter, *stored).ok());
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  for (size_t i = 0; i < kEndpoints; ++i) {
    const DatasetSnapshot& now = service.catalog()[i];
    ASSERT_EQ(now.url, first[i].url);
    if (now.url == changed) {
      EXPECT_NE(now.summary, first[i].summary);
      EXPECT_NE(now.clusters, first[i].clusters);
    } else {
      EXPECT_EQ(now.summary, first[i].summary) << now.url;
      EXPECT_EQ(now.clusters, first[i].clusters) << now.url;
    }
    EXPECT_EQ(now.schema_fingerprint, first[i].schema_fingerprint);
    EXPECT_EQ(now.cluster_fingerprint, first[i].cluster_fingerprint);
    EXPECT_EQ(now.extracted_day, first[i].extracted_day);
    EXPECT_EQ(now.endpoint, first[i].endpoint);
  }
  const std::vector<SessionResult> last_run =
      service.RunSessions(plans, nullptr);
  ASSERT_EQ(last_run.size(), first_run.size());
  for (size_t i = 0; i < last_run.size(); ++i) {
    EXPECT_EQ(last_run[i].transcript, first_run[i].transcript);
  }
}

TEST(ExplorationServingTest, EmptyCatalogServesGracefully) {
  ServingWorld world(1);  // no simulation run: nothing persisted yet
  ExplorationService service(&world.fleet(), {});
  EXPECT_EQ(service.RefreshSnapshots(), 0u);
  std::vector<SessionPlan> plans = GenerateSessions(SmallWorkload(), 0);
  std::vector<SessionResult> results = service.RunSessions(plans, nullptr);
  ASSERT_EQ(results.size(), plans.size());
  for (const SessionResult& r : results) {
    EXPECT_NE(r.transcript.find("catalog_empty"), std::string::npos);
  }
}

// ------------------------------------------------------------ LayoutCache

TEST(LayoutCacheTest, SingleFlightComputesOncePerKey) {
  viz::LayoutCache cache(8);
  std::atomic<int> computed{0};
  auto compute = [&]() {
    computed.fetch_add(1);
    viz::LayoutSet set;
    set.geometry_fingerprint = 77;
    return set;
  };
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      auto set = cache.GetOrCompute(viz::LayoutKey{0, 1, 2}, compute);
      EXPECT_EQ(set->geometry_fingerprint, 77u);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computed.load(), 1);
  viz::LayoutCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(LayoutCacheTest, EvictsLeastRecentlyUsed) {
  viz::LayoutCache cache(2);
  auto make = [](uint64_t fp) {
    return [fp]() {
      viz::LayoutSet set;
      set.geometry_fingerprint = fp;
      return set;
    };
  };
  auto key = [](uint64_t cluster) { return viz::LayoutKey{0, cluster, 0}; };
  cache.GetOrCompute(key(1), make(1));
  cache.GetOrCompute(key(2), make(2));
  cache.GetOrCompute(key(1), make(1));  // touch 1: now 2 is the LRU
  cache.GetOrCompute(key(3), make(3));  // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.GetOrCompute(key(1), make(1));
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.GetOrCompute(key(2), make(2));  // 2 was evicted: a miss again
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(LayoutCacheTest, PruneKeepsLiveKeys) {
  viz::LayoutCache cache(8);
  auto compute = []() { return viz::LayoutSet{}; };
  const viz::LayoutKey a{1, 2, 3};
  const viz::LayoutKey b{4, 5, 3};
  cache.GetOrCompute(a, compute);
  cache.GetOrCompute(b, compute);
  cache.Prune({a, b});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.GetOrCompute(a, compute);
  cache.GetOrCompute(b, compute);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(LayoutCacheTest, PruneEvictsDeadKeys) {
  viz::LayoutCache cache(8);
  auto compute = []() { return viz::LayoutSet{}; };
  const viz::LayoutKey live{1, 2, 3};
  const viz::LayoutKey dead{4, 5, 3};
  cache.GetOrCompute(live, compute);
  cache.GetOrCompute(dead, compute);
  cache.Prune({live});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.GetOrCompute(live, compute);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.GetOrCompute(dead, compute);  // evicted: computed again
  EXPECT_EQ(cache.stats().misses, 3u);
  cache.Prune({});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 3u);
}

// The Schema Summary feeds the leaves and the bundling, so a changed
// summary under an unchanged cluster schema must lay out again.
TEST(LayoutCacheTest, SchemaFingerprintIsPartOfTheKey) {
  viz::LayoutCache cache(8);
  int computed = 0;
  auto compute = [&]() {
    ++computed;
    return viz::LayoutSet{};
  };
  cache.GetOrCompute(viz::LayoutKey{1, 7, 3}, compute);
  cache.GetOrCompute(viz::LayoutKey{2, 7, 3}, compute);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(LayoutCacheTest, ZeroCapacityClampsToOne) {
  viz::LayoutCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  auto compute = []() { return viz::LayoutSet{}; };
  cache.GetOrCompute(viz::LayoutKey{0, 1, 0}, compute);
  cache.GetOrCompute(viz::LayoutKey{0, 2, 0}, compute);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------- readers vs. daily-cycle writers

/// The TSan hammer: presentation snapshots and serving reads race real
/// RunDay() cycles. Every observed state must be a complete extraction —
/// a summary that loads must decode, and its cluster schema must load too
/// (the atomic Replace contract: readers never see the gap between the
/// old document's removal and the new one's insertion).
TEST(PresentationConcurrencyTest, SnapshotReadersRaceDailyCycles) {
  ServingWorld world(2, /*fleet_workers=*/2);
  // Force daily re-extraction so every hammered day rewrites the docs.
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());

  std::atomic<bool> stop{false};
  std::atomic<size_t> observed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load()) {
        for (size_t s = 0; s < world.fleet().num_shards(); ++s) {
          Presentation pres(&world.fleet().shard_db(s));
          PresentationSnapshot snap = pres.Snapshot();
          for (const DatasetInfo& info : snap.ListDatasets()) {
            auto summary = snap.LoadSchemaSummary(info.url);
            ASSERT_TRUE(summary.ok()) << summary.status();
            EXPECT_GT(summary->NodeCount(), 0u);
            auto clusters = snap.LoadClusterSchema(info.url);
            ASSERT_TRUE(clusters.ok()) << clusters.status();
            observed.fetch_add(1);
          }
        }
      }
    });
  }

  // Writers: several daily cycles with a refresh age of 0 would need
  // option plumbing; instead drive ProcessEndpoint directly per shard so
  // every iteration rewrites summaries/clusters under the readers.
  for (int round = 0; round < 4; ++round) {
    for (size_t s = 0; s < world.fleet().num_shards(); ++s) {
      Server& server = world.fleet().shard(s);
      for (const auto& url : world.fleet().registration_order()) {
        if (world.fleet().ShardOf(url) != s) continue;
        auto report = server.ProcessEndpoint(url);
        EXPECT_TRUE(report.ok()) << report.status();
      }
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(observed.load(), 0u);
}

// ------------------------------------------------- drill-down determinism

TEST(DrilldownDeterminismTest, RepeatedQueriesAreByteIdentical) {
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  ExplorationService service(&world.fleet(), {});
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);
  const DatasetSnapshot& ds = service.catalog().front();
  ASSERT_NE(ds.endpoint, nullptr);
  ASSERT_GT(ds.summary->NodeCount(), 0u);
  const std::string& iri = ds.summary->nodes()[0].iri;

  auto a = drilldown::SampleInstances(ds.endpoint, iri, 5);
  auto b = drilldown::SampleInstances(ds.endpoint, iri, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(a->num_rows(), 0u);
  EXPECT_EQ(a->ToTsv(), b->ToTsv());

  auto instance = a->Cell(0, a->columns()[0]);
  ASSERT_TRUE(instance.has_value());
  auto d1 = drilldown::DescribeResource(ds.endpoint, instance->lexical());
  auto d2 = drilldown::DescribeResource(ds.endpoint, instance->lexical());
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_GT(d1->num_rows(), 0u);
  EXPECT_EQ(d1->ToTsv(), d2->ToTsv());
}

// --------------------------------------- effectiveness tie-break stability

TEST(EffectivenessDeterminismTest, RepeatedTasksAgreeAcrossCopies) {
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  ExplorationService service(&world.fleet(), {});
  ASSERT_EQ(service.RefreshSnapshots(), kEndpoints);

  for (const DatasetSnapshot& ds : service.catalog()) {
    // Two independently decoded copies of the same dataset must agree on
    // every task outcome — the comparators behind the cluster ordering
    // are total, so ties cannot flip with sort internals.
    schema::SchemaSummary summary_copy = *ds.summary;
    cluster::ClusterSchema clusters_copy = *ds.clusters;
    EffectivenessSimulator a(*ds.summary, *ds.clusters);
    EffectivenessSimulator b(summary_copy, clusters_copy);
    for (ExplorationStrategy strategy :
         {ExplorationStrategy::kClusterFirst, ExplorationStrategy::kFlatScan}) {
      TaskOutcome pa = a.FindMostPopulatedClass(strategy);
      TaskOutcome pb = b.FindMostPopulatedClass(strategy);
      EXPECT_EQ(pa.interactions, pb.interactions);
      EXPECT_EQ(pa.success, pb.success);
      for (const schema::ClassNode& node : ds.summary->nodes()) {
        TaskOutcome fa = a.FindClassByLabel(node.label, strategy);
        TaskOutcome fb = b.FindClassByLabel(node.label, strategy);
        EXPECT_EQ(fa.interactions, fb.interactions) << node.label;
        EXPECT_EQ(fa.success, fb.success) << node.label;
      }
    }
  }
}

TEST(EffectivenessDeterminismTest, EmptyClusterSchemaIsHandled) {
  schema::SchemaSummary empty_summary;
  cluster::ClusterSchema empty_clusters;
  EffectivenessSimulator sim(empty_summary, empty_clusters);
  for (ExplorationStrategy strategy :
       {ExplorationStrategy::kClusterFirst, ExplorationStrategy::kFlatScan}) {
    TaskOutcome find = sim.FindClassByLabel("Person", strategy);
    EXPECT_FALSE(find.success);
    TaskOutcome top = sim.FindMostPopulatedClass(strategy);
    EXPECT_FALSE(top.success);
    TaskOutcome conn = sim.FindConnection(0, 1, strategy);
    EXPECT_FALSE(conn.success);
  }

  // A real summary paired with an EMPTY cluster schema: cluster-first
  // strategies fall through without crashing and stay deterministic.
  ServingWorld world(1);
  ASSERT_FALSE(world.fleet().RunSimulation(1).days.empty());
  ExplorationService service(&world.fleet(), {});
  ASSERT_GT(service.RefreshSnapshots(), 0u);
  const DatasetSnapshot& ds = service.catalog().front();
  EffectivenessSimulator degenerate(*ds.summary, empty_clusters);
  TaskOutcome first = degenerate.FindMostPopulatedClass(
      ExplorationStrategy::kClusterFirst);
  TaskOutcome second = degenerate.FindMostPopulatedClass(
      ExplorationStrategy::kClusterFirst);
  EXPECT_EQ(first.interactions, second.interactions);
  EXPECT_EQ(first.success, second.success);
}

// ----------------------------------------------- workload generator shape

TEST(ExplorationWorkloadTest, PlansAreSeededAndWellFormed) {
  ExplorationWorkloadOptions options = SmallWorkload();
  std::vector<SessionPlan> a = GenerateSessions(options, 8);
  std::vector<SessionPlan> b = GenerateSessions(options, 8);
  ASSERT_EQ(a.size(), options.sessions);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].dataset_rank, b[i].dataset_rank);
    ASSERT_EQ(a[i].actions.size(), b[i].actions.size());
    // Prologue: list, open, render.
    ASSERT_GE(a[i].actions.size(), 3u + options.min_steps);
    EXPECT_EQ(a[i].actions[0].kind, workload::SessionActionKind::kListDatasets);
    EXPECT_EQ(a[i].actions[1].kind, workload::SessionActionKind::kOpenDataset);
    EXPECT_EQ(a[i].actions[2].kind,
              workload::SessionActionKind::kRenderLayouts);
    for (size_t j = 0; j < a[i].actions.size(); ++j) {
      EXPECT_EQ(a[i].actions[j].kind, b[i].actions[j].kind);
      EXPECT_EQ(a[i].actions[j].pick_a, b[i].actions[j].pick_a);
    }
  }
  // Different seed: different plans.
  options.seed = 999;
  std::vector<SessionPlan> c = GenerateSessions(options, 8);
  bool any_diff = false;
  for (size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a[i].dataset_rank != c[i].dataset_rank ||
               a[i].actions.size() != c[i].actions.size();
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace hbold
