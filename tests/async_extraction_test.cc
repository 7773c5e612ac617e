// Differential concurrency suite for the intra-pipeline async query
// layer: QueryBatch semantics (order, politeness, nesting, abort),
// bit-identical daily-cycle reports and store contents across parallelism
// and batching settings, speculative pagination equivalence, mid-batch
// failure injection, and batched crawls.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "extraction/strategies.h"
#include "hbold/hbold.h"
#include "workload/ld_generator.h"
#include "workload/metadata_repo.h"
#include "workload/portal_generator.h"

namespace hbold {
namespace {

using endpoint::ProbeBatch;
using endpoint::QueryBatch;
using endpoint::QueryBatchOptions;
using endpoint::QueryJob;
using endpoint::QueryOutcome;
using endpoint::SimulatedRemoteEndpoint;
using extraction::ExtractionContext;
using extraction::ExtractionReport;

// ------------------------------------------------------------ helpers

/// Delegating endpoint that tracks the number of in-flight queries, for
/// asserting the politeness cap.
class InFlightCountingEndpoint : public endpoint::SparqlEndpoint {
 public:
  explicit InFlightCountingEndpoint(endpoint::SparqlEndpoint* inner)
      : inner_(inner) {}

  Result<QueryOutcome> Query(const std::string& query_text) override {
    int now = ++in_flight_;
    int seen = max_in_flight_.load();
    while (now > seen && !max_in_flight_.compare_exchange_weak(seen, now)) {
    }
    auto outcome = inner_->Query(query_text);
    --in_flight_;
    return outcome;
  }

  const std::string& url() const override { return inner_->url(); }
  const std::string& name() const override { return inner_->name(); }
  size_t queries_served() const override { return inner_->queries_served(); }

  int max_in_flight() const { return max_in_flight_.load(); }

 private:
  endpoint::SparqlEndpoint* inner_;
  std::atomic<int> in_flight_{0};
  std::atomic<int> max_in_flight_{0};
};

/// Delegating endpoint that fails every query containing `marker` — a
/// *content*-keyed failure, so which batch job fails (and therefore the
/// deterministic-accounting prefix) does not depend on thread timing.
class PoisonedEndpoint : public endpoint::SparqlEndpoint {
 public:
  PoisonedEndpoint(endpoint::SparqlEndpoint* inner, std::string marker,
                   Status failure)
      : inner_(inner), marker_(std::move(marker)), failure_(failure) {}

  Result<QueryOutcome> Query(const std::string& query_text) override {
    if (query_text.find(marker_) != std::string::npos) return failure_;
    return inner_->Query(query_text);
  }

  const std::string& url() const override { return inner_->url(); }
  const std::string& name() const override { return inner_->name(); }
  size_t queries_served() const override { return inner_->queries_served(); }

 private:
  endpoint::SparqlEndpoint* inner_;
  std::string marker_;
  Status failure_;
};

/// Canonical view of one collection's persisted content: endpoint_url ->
/// document dump with the insertion-order-dependent _id normalized away.
/// Parallel cycles insert in nondeterministic order, so _id is the one
/// field allowed to differ between bit-identical runs.
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

// ------------------------------------------------------------ QueryBatch

class QueryBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SyntheticLdConfig config;
    config.num_classes = 8;
    config.max_instances_per_class = 20;
    config.seed = 42;
    workload::GenerateSyntheticLd(config, &data_);
    ep_ = std::make_unique<SimulatedRemoteEndpoint>("http://x/sparql", "x",
                                                    &data_, &clock_);
  }

  rdf::TripleStore data_;
  SimClock clock_;
  std::unique_ptr<SimulatedRemoteEndpoint> ep_;
};

TEST_F(QueryBatchTest, OutcomesInSubmissionOrder) {
  // Each query's answer identifies it (COUNT with a distinguishing LIMIT
  // shape would be fragile; use per-class counts which differ per IRI).
  std::vector<std::string> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back("SELECT ?s ?p ?o WHERE { ?s ?p ?o . } LIMIT " +
                      std::to_string(i + 1));
  }
  ThreadPool pool(4);
  QueryBatchOptions options;
  options.pool = &pool;
  options.per_endpoint_limit = 4;
  auto outcomes = QueryBatch::RunOnOne(ep_.get(), queries, options);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].status();
    EXPECT_EQ(outcomes[i]->table.num_rows(), i + 1) << i;
  }
}

TEST_F(QueryBatchTest, WorksWithoutPool) {
  std::vector<std::string> queries(5, "ASK { ?s ?p ?o . }");
  auto outcomes = QueryBatch::RunOnOne(ep_.get(), queries, QueryBatchOptions{});
  ASSERT_EQ(outcomes.size(), 5u);
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome.ok());
}

TEST_F(QueryBatchTest, PolitenessCapBoundsInFlightQueries) {
  InFlightCountingEndpoint counted(ep_.get());
  std::vector<std::string> queries(32, "SELECT ?s WHERE { ?s a ?c . }");
  ThreadPool pool(8);
  QueryBatchOptions options;
  options.pool = &pool;
  options.per_endpoint_limit = 2;
  auto outcomes = QueryBatch::RunOnOne(&counted, queries, options);
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome.ok());
  EXPECT_LE(counted.max_in_flight(), 2);
}

TEST_F(QueryBatchTest, NestedSubmissionFromPoolWorkerDoesNotDeadlock) {
  // One worker: the outer task occupies the whole pool, so the inner
  // batch can only finish because the submitting thread runs jobs itself.
  ThreadPool pool(1);
  auto done = pool.Submit([&] {
    std::vector<std::string> queries(6, "ASK { ?s ?p ?o . }");
    QueryBatchOptions options;
    options.pool = &pool;
    options.per_endpoint_limit = 4;
    auto outcomes = QueryBatch::RunOnOne(ep_.get(), queries, options);
    size_t ok = 0;
    for (const auto& outcome : outcomes) ok += outcome.ok() ? 1 : 0;
    return ok;
  });
  EXPECT_EQ(done.get(), 6u);
}

TEST_F(QueryBatchTest, AbortOnFailureKeepsPreFailurePrefixReal) {
  // Poison one known query; everything before it in submission order
  // must carry a real outcome, everything cancelled must come after it.
  PoisonedEndpoint poisoned(ep_.get(), "POISON",
                            Status::Unavailable("injected"));
  std::vector<std::string> queries(24, "ASK { ?s ?p ?o . }");
  const size_t kFail = 9;
  queries[kFail] = "ASK { ?s ?p ?o . } # POISON";
  ThreadPool pool(4);
  QueryBatchOptions options;
  options.pool = &pool;
  options.per_endpoint_limit = 4;
  auto outcomes = QueryBatch::RunOnOne(&poisoned, queries, options);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (size_t i = 0; i < kFail; ++i) {
    EXPECT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].status();
  }
  EXPECT_TRUE(outcomes[kFail].status().IsUnavailable());
  for (size_t i = kFail + 1; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok() || outcomes[i].status().IsCancelled()) << i;
  }
}

TEST_F(QueryBatchTest, ProbeBatchMixesAnswersAndErrors) {
  endpoint::AvailabilityModel down;
  down.forced_outage_days = {0};
  SimulatedRemoteEndpoint dead("http://dead/sparql", "dead", &data_, &clock_,
                               endpoint::Dialect::Full(), down);
  rdf::TripleStore empty;
  SimulatedRemoteEndpoint hollow("http://empty/sparql", "empty", &empty,
                                 &clock_);
  ThreadPool pool(2);
  QueryBatchOptions options;
  options.pool = &pool;
  auto probes = ProbeBatch({ep_.get(), &dead, &hollow, nullptr}, options);
  ASSERT_EQ(probes.size(), 4u);
  ASSERT_TRUE(probes[0].ok());
  EXPECT_TRUE(*probes[0]);
  EXPECT_TRUE(probes[1].status().IsUnavailable());
  ASSERT_TRUE(probes[2].ok());
  EXPECT_FALSE(*probes[2]);
  EXPECT_TRUE(probes[3].status().IsUnavailable());
}

// ------------------------------------------------- differential cycles

/// A fleet with dialect diversity (every strategy family exercised), one
/// dead member, behind fresh per-test servers.
class AsyncCycleTest : public ::testing::Test {
 protected:
  static constexpr size_t kEndpoints = 8;

  void SetUp() override {
    for (size_t i = 0; i < kEndpoints; ++i) {
      auto store = std::make_unique<rdf::TripleStore>();
      workload::SyntheticLdConfig config;
      config.namespace_iri =
          "http://ld" + std::to_string(i) + ".example.org/";
      config.num_classes = 6 + i * 4;
      config.max_instances_per_class = 25;
      config.seed = 900 + i;
      workload::GenerateSyntheticLd(config, store.get());

      endpoint::Dialect dialect = endpoint::Dialect::Full();
      if (i % 4 == 1) dialect = endpoint::Dialect::NoGroupBy();
      if (i % 4 == 2) dialect = endpoint::Dialect::NoAggregates();
      if (i % 4 == 3) dialect = endpoint::Dialect::RowCapped(64);

      std::string url = config.namespace_iri + "sparql";
      endpoints_.push_back(std::make_unique<SimulatedRemoteEndpoint>(
          url, "LD " + std::to_string(i), store.get(), &clock_, dialect));
      stores_.push_back(std::move(store));
      urls_.push_back(std::move(url));
    }
  }

  /// Server over the fleet; the last endpoint stays unreachable so every
  /// cycle also sees a failure.
  std::unique_ptr<Server> MakeServer(store::Database* db, int parallelism,
                                     int batch_width) {
    ServerOptions options;
    options.parallelism = parallelism;
    options.query_batch_width = batch_width;
    auto server = std::make_unique<Server>(db, &clock_, options);
    for (size_t i = 0; i < kEndpoints; ++i) {
      if (i + 1 < kEndpoints) {
        server->AttachEndpoint(urls_[i], endpoints_[i].get());
      }
      endpoint::EndpointRecord record;
      record.url = urls_[i];
      record.name = endpoints_[i]->name();
      server->RegisterEndpoint(record);
    }
    return server;
  }

  /// Everything that must be bit-identical regardless of parallelism.
  /// makespan_ms is deliberately excluded here: it is a deterministic
  /// function *of* the worker count (2 workers finish the same work
  /// sooner than 1), so it is compared only between runs that share a
  /// parallelism — see ExpectBitIdentical.
  static void ExpectSameWork(const DailyReport& a, const DailyReport& b) {
    EXPECT_EQ(a.due, b.due);
    EXPECT_EQ(a.succeeded, b.succeeded);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.reused, b.reused);
    // Bit-identical, not almost-equal: both runs charge the same
    // per-query latencies in the same submission order.
    EXPECT_EQ(a.sum_latency_ms, b.sum_latency_ms);
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (size_t i = 0; i < a.reports.size(); ++i) {
      EXPECT_EQ(a.reports[i].url, b.reports[i].url) << i;
      EXPECT_EQ(a.reports[i].classes, b.reports[i].classes) << i;
      EXPECT_EQ(a.reports[i].arcs, b.reports[i].arcs) << i;
      EXPECT_EQ(a.reports[i].clusters, b.reports[i].clusters) << i;
      EXPECT_EQ(a.reports[i].extraction_ms, b.reports[i].extraction_ms) << i;
      EXPECT_EQ(a.reports[i].extraction.queries_issued,
                b.reports[i].extraction.queries_issued)
          << i;
      EXPECT_EQ(a.reports[i].extraction.rows_transferred,
                b.reports[i].extraction.rows_transferred)
          << i;
      EXPECT_EQ(a.reports[i].extraction.strategy_used,
                b.reports[i].extraction.strategy_used)
          << i;
    }
  }

  /// Full bit-identity, duration figures included — for runs that share
  /// a parallelism (batching on/off, repeated runs).
  static void ExpectBitIdentical(const DailyReport& a, const DailyReport& b) {
    ExpectSameWork(a, b);
    EXPECT_EQ(a.parallelism, b.parallelism);
    EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  }

  SimClock clock_;
  std::vector<std::string> urls_;
  std::vector<std::unique_ptr<rdf::TripleStore>> stores_;
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> endpoints_;
};

TEST_F(AsyncCycleTest, ReportsBitIdenticalAcrossParallelismAndBatching) {
  store::Database baseline_db;
  DailyReport baseline = MakeServer(&baseline_db, 1, 1)->RunDailyCycle(1);
  EXPECT_EQ(baseline.due, kEndpoints);
  EXPECT_EQ(baseline.failed, 1u);
  EXPECT_EQ(baseline.batched_makespan_ms, baseline.makespan_ms);
  auto baseline_summaries =
      CanonicalCollection(baseline_db, kSummariesCollection);
  auto baseline_clusters =
      CanonicalCollection(baseline_db, kClustersCollection);
  ASSERT_EQ(baseline_summaries.size(), kEndpoints - 1);

  for (int parallelism : {1, 2, 8}) {
    // Per-parallelism reference: batching off at this worker count.
    std::optional<DailyReport> reference;
    for (int width : {1, 4}) {
      SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                   " width=" + std::to_string(width));
      store::Database db;
      auto server = MakeServer(&db, parallelism, width);
      DailyReport report = server->RunDailyCycle(parallelism);
      // Work, cost, and artifacts identical across every setting...
      ExpectSameWork(baseline, report);
      EXPECT_EQ(CanonicalCollection(db, kSummariesCollection),
                baseline_summaries);
      EXPECT_EQ(CanonicalCollection(db, kClustersCollection),
                baseline_clusters);
      // ...duration figures identical across batching on/off at a given
      // worker count (makespan_ms is charged from the sequential query
      // stream, so batching must not move it by a single bit).
      if (!reference.has_value()) {
        reference = report;
      } else {
        ExpectBitIdentical(*reference, report);
      }
      // Batching compresses the duration figure, never the cost figure.
      if (width == 1) {
        EXPECT_EQ(report.batched_makespan_ms, report.makespan_ms);
      } else {
        EXPECT_LE(report.batched_makespan_ms, report.makespan_ms);
        EXPECT_GT(report.batched_makespan_ms, 0);
      }
      EXPECT_LE(report.makespan_ms, baseline.makespan_ms);
    }
  }
}

TEST_F(AsyncCycleTest, BatchedCycleDeterministicAcrossRuns) {
  store::Database db_a;
  DailyReport a = MakeServer(&db_a, 8, 4)->RunDailyCycle(8);
  store::Database db_b;
  DailyReport b = MakeServer(&db_b, 8, 4)->RunDailyCycle(8);
  ExpectBitIdentical(a, b);
  EXPECT_EQ(a.batched_makespan_ms, b.batched_makespan_ms);
}

TEST_F(AsyncCycleTest, ReuseDetectionSurvivesBatchedSecondCycle) {
  store::Database db;
  auto server = MakeServer(&db, 4, 4);
  DailyReport first = server->RunDailyCycle(4);
  EXPECT_EQ(first.reused, 0u);
  clock_.AdvanceDays(7);
  DailyReport second = server->RunDailyCycle(4);
  EXPECT_EQ(second.succeeded, kEndpoints - 1);
  EXPECT_EQ(second.reused, kEndpoints - 1);
}

// ------------------------------------------------- strategy-level waves

class StrategyBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SyntheticLdConfig config;
    config.num_classes = 12;
    config.max_instances_per_class = 40;
    config.seed = 7;
    workload::GenerateSyntheticLd(config, &data_);
  }

  /// Extracts with and without batching and asserts summaries and charged
  /// costs are bit-identical; returns the two reports for extra checks.
  template <typename Strategy>
  std::pair<ExtractionReport, ExtractionReport> ExpectEquivalent(
      const Strategy& strategy, endpoint::SparqlEndpoint* ep) {
    ExtractionReport seq_report;
    auto seq = strategy.Extract(ep, ExtractionContext{}, &seq_report);

    ThreadPool pool(4);
    ExtractionContext ctx;
    ctx.pool = &pool;
    ctx.batch_width = 4;
    ExtractionReport batch_report;
    auto batched = strategy.Extract(ep, ctx, &batch_report);

    EXPECT_EQ(seq.ok(), batched.ok());
    if (seq.ok() && batched.ok()) {
      EXPECT_EQ(seq->ToJson().Dump(), batched->ToJson().Dump());
    }
    EXPECT_EQ(seq_report.queries_issued, batch_report.queries_issued);
    EXPECT_EQ(seq_report.rows_transferred, batch_report.rows_transferred);
    EXPECT_EQ(seq_report.total_latency_ms, batch_report.total_latency_ms);
    // Sequential mode reports no overlap at all.
    EXPECT_EQ(seq_report.intra_makespan_ms, seq_report.total_latency_ms);
    EXPECT_LE(batch_report.intra_makespan_ms, batch_report.total_latency_ms);
    return {seq_report, batch_report};
  }

  rdf::TripleStore data_;
  SimClock clock_;
};

TEST_F(StrategyBatchTest, PerClassCountWavesMatchSequential) {
  SimulatedRemoteEndpoint ep("http://x/sparql", "x", &data_, &clock_,
                             endpoint::Dialect::NoGroupBy());
  auto [seq, batched] =
      ExpectEquivalent(extraction::PerClassCountStrategy(), &ep);
  EXPECT_GE(batched.batches_issued, 2u);  // waves 1+2 at least
  // The whole point: overlapping the per-class queries compresses the
  // simulated duration well below the sequential sum.
  EXPECT_LT(batched.intra_makespan_ms, seq.total_latency_ms);
}

TEST_F(StrategyBatchTest, DirectAggregationBatchMatchesSequential) {
  SimulatedRemoteEndpoint ep("http://x/sparql", "x", &data_, &clock_);
  auto [seq, batched] =
      ExpectEquivalent(extraction::DirectAggregationStrategy(), &ep);
  EXPECT_GE(batched.batches_issued, 1u);
  EXPECT_LT(batched.intra_makespan_ms, seq.total_latency_ms);
}

TEST_F(StrategyBatchTest, SpeculativePaginationMatchesSequential) {
  // Page size far below the data volume: both passes page many times, so
  // the speculative waves (and their discard-at-terminal logic) run.
  SimulatedRemoteEndpoint ep("http://x/sparql", "x", &data_, &clock_,
                             endpoint::Dialect::NoAggregates());
  auto [seq, batched] =
      ExpectEquivalent(extraction::PaginatedScanStrategy(32), &ep);
  EXPECT_GE(batched.batches_issued, 2u);
  EXPECT_LT(batched.intra_makespan_ms, seq.total_latency_ms);
}

TEST_F(StrategyBatchTest, RowCappedPaginationFallsBackIdentically) {
  // Every page comes back truncated below the LIMIT: the speculative
  // walk must drop to sequential paging and still charge the identical
  // logical stream.
  SimulatedRemoteEndpoint ep("http://x/sparql", "x", &data_, &clock_,
                             endpoint::Dialect::RowCapped(20));
  ExpectEquivalent(extraction::PaginatedScanStrategy(32), &ep);
}

// ------------------------------------------------- failure injection

class BatchFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SyntheticLdConfig config;
    config.num_classes = 10;
    config.max_instances_per_class = 20;
    config.seed = 11;
    workload::GenerateSyntheticLd(config, &data_);
    ep_ = std::make_unique<SimulatedRemoteEndpoint>(
        "http://x/sparql", "x", &data_, &clock_,
        endpoint::Dialect::NoGroupBy());
    // A marker class from the middle of the canonical class list, so the
    // poison lands mid-batch rather than on the head queries.
    extraction::ExtractionReport report;
    auto clean = extraction::PerClassCountStrategy().Extract(
        ep_.get(), extraction::ExtractionContext{}, &report);
    ASSERT_TRUE(clean.ok()) << clean.status();
    ASSERT_GE(clean->classes.size(), 4u);
    marker_ = clean->classes[clean->classes.size() / 2].iri;
  }

  rdf::TripleStore data_;
  SimClock clock_;
  std::unique_ptr<SimulatedRemoteEndpoint> ep_;
  std::string marker_;
};

TEST_F(BatchFailureTest, MidBatchTimeoutAbortsCleanlyAndDeterministically) {
  PoisonedEndpoint poisoned(ep_.get(), marker_, Status::Timeout("injected"));
  ThreadPool pool(4);
  ExtractionContext ctx;
  ctx.pool = &pool;
  ctx.batch_width = 4;

  ExtractionReport first;
  auto a = extraction::PerClassCountStrategy().Extract(&poisoned, ctx,
                                                       &first);
  ASSERT_FALSE(a.ok());
  EXPECT_TRUE(a.status().IsTimeout());
  // The batch spent real (simulated) money before aborting, and the
  // charge is reproducible run over run.
  EXPECT_GT(first.total_latency_ms, 0);
  ExtractionReport second;
  auto b = extraction::PerClassCountStrategy().Extract(&poisoned, ctx,
                                                       &second);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(first.total_latency_ms, second.total_latency_ms);
  EXPECT_EQ(first.queries_issued, second.queries_issued);
  EXPECT_EQ(first.intra_makespan_ms, second.intra_makespan_ms);

  // And matches what the sequential abort would have charged.
  ExtractionReport sequential;
  auto c = extraction::PerClassCountStrategy().Extract(
      &poisoned, ExtractionContext{}, &sequential);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(first.total_latency_ms, sequential.total_latency_ms);
  EXPECT_EQ(first.queries_issued, sequential.queries_issued);
}

TEST_F(BatchFailureTest, MidBatchFailureLeavesNoPartialSummary) {
  // Unavailable (unlike Timeout) does not fall through to the next
  // strategy, so the pipeline fails outright mid-extraction.
  PoisonedEndpoint poisoned(ep_.get(), marker_,
                            Status::Unavailable("injected"));
  store::Database db;
  ServerOptions options;
  options.parallelism = 2;
  options.query_batch_width = 4;
  Server server(&db, &clock_, options);
  server.AttachEndpoint(poisoned.url(), &poisoned);
  endpoint::EndpointRecord record;
  record.url = poisoned.url();
  server.RegisterEndpoint(record);

  DailyReport report = server.RunDailyUpdate();
  EXPECT_EQ(report.due, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.succeeded, 0u);
  // Accrued latency of the aborted attempt is still charged to the
  // cycle's ledger...
  EXPECT_GT(report.sum_latency_ms, 0);
  EXPECT_GT(report.makespan_ms, 0);
  // ...but nothing partial was persisted.
  const store::Collection* summaries = db.FindCollection(kSummariesCollection);
  EXPECT_TRUE(summaries == nullptr || summaries->size() == 0);
  const store::Collection* clusters = db.FindCollection(kClustersCollection);
  EXPECT_TRUE(clusters == nullptr || clusters->size() == 0);
  // Registry bookkeeping recorded the failed attempt.
  const endpoint::EndpointRecord* rec = server.registry().Find(poisoned.url());
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->last_attempt_failed);
}

// ------------------------------------------------- batched crawls

TEST(BatchedCrawlTest, CrawlAllMatchesSequentialCrawls) {
  SimClock clock;
  constexpr size_t kPortals = 3;
  std::vector<rdf::TripleStore> catalogs(kPortals);
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> portals;
  std::vector<PortalTarget> targets;
  for (size_t p = 0; p < kPortals; ++p) {
    workload::PortalConfig config;
    config.portal_name = "portal" + std::to_string(p);
    config.namespace_iri =
        "http://portal" + std::to_string(p) + ".example.org/";
    config.total_datasets = 40;
    for (size_t i = 0; i < 5 + p; ++i) {
      config.sparql_urls.push_back("http://p" + std::to_string(p) + "-ld" +
                                   std::to_string(i) + ".example.org/sparql");
    }
    // One URL shared across all portals, to exercise dedup order.
    config.sparql_urls.push_back("http://shared.example.org/sparql");
    workload::GeneratePortalCatalog(config, &catalogs[p]);
    portals.push_back(std::make_unique<SimulatedRemoteEndpoint>(
        config.namespace_iri + "sparql", config.portal_name, &catalogs[p],
        &clock));
    targets.push_back(PortalTarget{config.portal_name, portals.back().get()});
  }

  endpoint::EndpointRegistry sequential_registry;
  PortalCrawler sequential(&sequential_registry);
  std::vector<PortalCrawlResult> expected;
  for (const PortalTarget& target : targets) {
    auto result = sequential.Crawl(target.name, target.endpoint, 0);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(*result);
  }

  endpoint::EndpointRegistry batched_registry;
  PortalCrawler batched(&batched_registry);
  ThreadPool pool(4);
  QueryBatchOptions options;
  options.pool = &pool;
  options.per_endpoint_limit = 2;
  auto results = batched.CrawlAll(targets, 0, options);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t p = 0; p < results.size(); ++p) {
    ASSERT_TRUE(results[p].ok()) << results[p].status();
    EXPECT_EQ(results[p]->portal_name, expected[p].portal_name);
    EXPECT_EQ(results[p]->datasets_matched, expected[p].datasets_matched);
    EXPECT_EQ(results[p]->distinct_urls, expected[p].distinct_urls);
    EXPECT_EQ(results[p]->already_known, expected[p].already_known);
    EXPECT_EQ(results[p]->newly_added, expected[p].newly_added);
  }
  // Same records, same insertion order.
  auto seq_records = sequential_registry.Snapshot();
  auto batch_records = batched_registry.Snapshot();
  ASSERT_EQ(seq_records.size(), batch_records.size());
  for (size_t i = 0; i < seq_records.size(); ++i) {
    EXPECT_EQ(seq_records[i].url, batch_records[i].url) << i;
  }
}

TEST(BatchedCrawlTest, CrawlAllIsolatesDeadPortal) {
  SimClock clock;
  rdf::TripleStore catalog;
  workload::PortalConfig config;
  config.namespace_iri = "http://alive.example.org/";
  config.total_datasets = 10;
  config.sparql_urls.push_back("http://found.example.org/sparql");
  workload::GeneratePortalCatalog(config, &catalog);
  SimulatedRemoteEndpoint alive("http://alive.example.org/sparql", "alive",
                                &catalog, &clock);
  endpoint::AvailabilityModel outage;
  outage.forced_outage_days = {0};
  SimulatedRemoteEndpoint dead("http://dead.example.org/sparql", "dead",
                               &catalog, &clock, endpoint::Dialect::Full(),
                               outage);

  endpoint::EndpointRegistry registry;
  PortalCrawler crawler(&registry);
  ThreadPool pool(2);
  QueryBatchOptions options;
  options.pool = &pool;
  auto results = crawler.CrawlAll(
      {PortalTarget{"dead", &dead}, PortalTarget{"alive", &alive}}, 0,
      options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status().IsUnavailable());
  ASSERT_TRUE(results[1].ok()) << results[1].status();
  EXPECT_EQ(results[1]->newly_added, 1u);
  EXPECT_TRUE(registry.Contains("http://found.example.org/sparql"));
}

TEST(BatchedCrawlTest, MetadataCrawlAllMatchesSequential) {
  SimClock clock;
  constexpr size_t kRepos = 2;
  std::vector<rdf::TripleStore> stores(kRepos);
  std::vector<std::unique_ptr<SimulatedRemoteEndpoint>> repos;
  std::vector<MetadataRepositoryTarget> targets;
  for (size_t r = 0; r < kRepos; ++r) {
    std::vector<workload::MetadataEntry> entries;
    for (size_t i = 0; i < 8; ++i) {
      entries.push_back(workload::MetadataEntry{
          "http://meta" + std::to_string(r) + "-" + std::to_string(i) +
              ".example.org/sparql",
          i % 2 == 0 ? 0.95 : 0.40});
    }
    workload::GenerateMetadataRepository(
        entries, "http://repo" + std::to_string(r) + ".example.org/",
        &stores[r]);
    repos.push_back(std::make_unique<SimulatedRemoteEndpoint>(
        "http://repo" + std::to_string(r) + ".example.org/sparql",
        "repo" + std::to_string(r), &stores[r], &clock));
    targets.push_back(
        MetadataRepositoryTarget{repos.back()->name(), repos.back().get()});
  }

  endpoint::EndpointRegistry seq_registry;
  MetadataRepositoryCrawler sequential(&seq_registry);
  std::vector<MetadataCrawlResult> expected;
  for (const MetadataRepositoryTarget& target : targets) {
    auto result = sequential.Crawl(target.name, target.endpoint, 0.5, 0);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(*result);
  }

  endpoint::EndpointRegistry batch_registry;
  MetadataRepositoryCrawler batched(&batch_registry);
  ThreadPool pool(4);
  QueryBatchOptions options;
  options.pool = &pool;
  options.per_endpoint_limit = 2;
  auto results = batched.CrawlAll(targets, 0.5, 0, options);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t r = 0; r < results.size(); ++r) {
    ASSERT_TRUE(results[r].ok()) << results[r].status();
    EXPECT_EQ(results[r]->endpoints_listed, expected[r].endpoints_listed);
    EXPECT_EQ(results[r]->above_threshold, expected[r].above_threshold);
    EXPECT_EQ(results[r]->newly_added, expected[r].newly_added);
  }
  EXPECT_EQ(seq_registry.size(), batch_registry.size());
}

}  // namespace
}  // namespace hbold
