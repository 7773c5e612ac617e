// Unit + integration tests for src/extraction: the three pattern
// strategies must produce identical IndexSummaries on a full-featured
// endpoint; the fallback chain must pick the right strategy per dialect;
// the refresh scheduler must implement the §3.1 policy.

#include <gtest/gtest.h>

#include "common/clock.h"
#include "endpoint/simulated_endpoint.h"
#include "extraction/extractor.h"
#include "extraction/indexes.h"
#include "extraction/scheduler.h"
#include "extraction/strategies.h"
#include "rdf/turtle.h"

namespace hbold::extraction {
namespace {

using endpoint::AvailabilityModel;
using endpoint::Dialect;
using endpoint::EndpointRecord;
using endpoint::EndpointRegistry;
using endpoint::SimulatedRemoteEndpoint;

/// Fixture dataset: 3 classes, mixed object/datatype properties,
/// a multi-typed instance, and an untyped resource.
class ExtractionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto n = rdf::ParseTurtle(R"(
@prefix ex: <http://x/> .
ex:p1 a ex:Person ; ex:name "P1" ; ex:worksAt ex:o1 ; ex:knows ex:p2 .
ex:p2 a ex:Person ; ex:name "P2" ; ex:worksAt ex:o1 .
ex:p3 a ex:Person ; ex:name "P3" .
ex:o1 a ex:Org ; ex:name "O1" ; ex:inCity ex:c1 .
ex:c1 a ex:City ; ex:name "C1" .
ex:dual a ex:Person, ex:Org ; ex:name "Dual" .
ex:p1 ex:likes ex:untyped .
)",
                              &store_);
    ASSERT_TRUE(n.ok()) << n.status();
  }

  SimulatedRemoteEndpoint MakeEndpoint(Dialect d,
                                       AvailabilityModel avail = {}) {
    return SimulatedRemoteEndpoint("http://test/sparql", "test", &store_,
                                   &clock_, d, avail);
  }

  rdf::TripleStore store_;
  SimClock clock_;
};

void CheckSummaryShape(const IndexSummary& s) {
  // 4 Person (incl. dual), 2 Org (incl. dual), 1 City.
  ASSERT_EQ(s.num_classes, 3u);
  EXPECT_EQ(s.num_instances, 6u);  // distinct typed subjects
  ASSERT_EQ(s.classes.size(), 3u);
  // Canonical order: descending instance count.
  EXPECT_EQ(s.classes[0].iri, "http://x/Person");
  EXPECT_EQ(s.classes[0].instance_count, 4u);
  EXPECT_EQ(s.classes[1].iri, "http://x/Org");
  EXPECT_EQ(s.classes[1].instance_count, 2u);
  EXPECT_EQ(s.classes[2].iri, "http://x/City");
  EXPECT_EQ(s.classes[2].instance_count, 1u);

  const ClassInfo* person = s.FindClass("http://x/Person");
  ASSERT_NE(person, nullptr);
  // Person properties: knows (object->Person), likes (to untyped: datatype-
  // classified), name (datatype), worksAt (object->Org).
  ASSERT_EQ(person->properties.size(), 4u);
  const PropertyInfo* works = nullptr;
  const PropertyInfo* name = nullptr;
  const PropertyInfo* likes = nullptr;
  for (const PropertyInfo& p : person->properties) {
    if (p.iri == "http://x/worksAt") works = &p;
    if (p.iri == "http://x/name") name = &p;
    if (p.iri == "http://x/likes") likes = &p;
  }
  ASSERT_NE(works, nullptr);
  EXPECT_TRUE(works->is_object_property);
  EXPECT_EQ(works->count, 2u);
  ASSERT_EQ(works->range_classes.size(), 1u);
  EXPECT_EQ(works->range_classes.at("http://x/Org"), 2u);
  ASSERT_NE(name, nullptr);
  EXPECT_FALSE(name->is_object_property);
  EXPECT_EQ(name->count, 4u);
  ASSERT_NE(likes, nullptr);
  // Object is an untyped IRI: no observable range, not an object property
  // from the extractor's point of view.
  EXPECT_FALSE(likes->is_object_property);
}

// --------------------------------------------------- strategy equivalence

TEST_F(ExtractionTest, DirectAggregationShape) {
  auto ep = MakeEndpoint(Dialect::Full());
  ExtractionReport report;
  auto s = DirectAggregationStrategy().Extract(&ep, &report);
  ASSERT_TRUE(s.ok()) << s.status();
  CheckSummaryShape(*s);
  EXPECT_EQ(report.strategy_used, "direct-aggregation");
  EXPECT_GT(report.queries_issued, 0u);
}

TEST_F(ExtractionTest, PerClassCountShape) {
  auto ep = MakeEndpoint(Dialect::NoGroupBy());
  ExtractionReport report;
  auto s = PerClassCountStrategy().Extract(&ep, &report);
  ASSERT_TRUE(s.ok()) << s.status();
  CheckSummaryShape(*s);
}

TEST_F(ExtractionTest, PaginatedScanShape) {
  auto ep = MakeEndpoint(Dialect::NoAggregates());
  ExtractionReport report;
  auto s = PaginatedScanStrategy(/*page_size=*/3).Extract(&ep, &report);
  ASSERT_TRUE(s.ok()) << s.status();
  CheckSummaryShape(*s);
}

TEST_F(ExtractionTest, AllStrategiesAgreeExactly) {
  auto ep = MakeEndpoint(Dialect::Full());
  auto a = DirectAggregationStrategy().Extract(&ep, nullptr);
  auto b = PerClassCountStrategy().Extract(&ep, nullptr);
  auto c = PaginatedScanStrategy(4).Extract(&ep, nullptr);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  // Identical canonical JSON => identical summaries.
  EXPECT_EQ(a->ToJson().Dump(), b->ToJson().Dump());
  EXPECT_EQ(a->ToJson().Dump(), c->ToJson().Dump());
}

TEST_F(ExtractionTest, PaginatedScanHandlesRowCappedEndpoint) {
  // Cap below the page size: pages come back truncated; the scan must
  // still see everything.
  Dialect d = Dialect::NoAggregates();
  d.max_result_rows = 2;
  auto ep = MakeEndpoint(d);
  auto s = PaginatedScanStrategy(10).Extract(&ep, nullptr);
  ASSERT_TRUE(s.ok()) << s.status();
  CheckSummaryShape(*s);
}

TEST_F(ExtractionTest, QueryCostOrderingAcrossStrategies) {
  auto ep_direct = MakeEndpoint(Dialect::Full());
  auto ep_perclass = MakeEndpoint(Dialect::Full());
  ExtractionReport direct, perclass;
  ASSERT_TRUE(DirectAggregationStrategy().Extract(&ep_direct, &direct).ok());
  ASSERT_TRUE(PerClassCountStrategy().Extract(&ep_perclass, &perclass).ok());
  // The whole point of pattern strategies: direct aggregation is far
  // cheaper in query count.
  EXPECT_LT(direct.queries_issued, perclass.queries_issued);
}

// --------------------------------------------------- extractor fallback

TEST_F(ExtractionTest, ExtractorUsesDirectOnFullEndpoint) {
  auto ep = MakeEndpoint(Dialect::Full());
  ExtractionReport report;
  auto s = IndexExtractor().Extract(&ep, &report);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(report.strategy_used, "direct-aggregation");
  EXPECT_TRUE(report.fallbacks.empty());
}

TEST_F(ExtractionTest, ExtractorFallsBackOnNoGroupBy) {
  auto ep = MakeEndpoint(Dialect::NoGroupBy());
  ExtractionReport report;
  auto s = IndexExtractor().Extract(&ep, &report);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(report.strategy_used, "per-class-count");
  EXPECT_EQ(report.fallbacks,
            (std::vector<std::string>{"direct-aggregation"}));
  CheckSummaryShape(*s);
}

TEST_F(ExtractionTest, ExtractorFallsBackTwiceOnNoAggregates) {
  auto ep = MakeEndpoint(Dialect::NoAggregates());
  ExtractionReport report;
  auto s = IndexExtractor().Extract(&ep, &report);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(report.strategy_used, "paginated-scan");
  EXPECT_EQ(report.fallbacks.size(), 2u);
  CheckSummaryShape(*s);
}

TEST_F(ExtractionTest, ExtractorAbortsWhenUnavailable) {
  AvailabilityModel avail;
  avail.forced_outage_days = {0};
  auto ep = MakeEndpoint(Dialect::Full(), avail);
  auto s = IndexExtractor().Extract(&ep, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsUnavailable());
}

TEST_F(ExtractionTest, ExtractorFallsBackOnTimeout) {
  // Direct aggregation's range query joins explode past the budget; the
  // paginated scan stays within it per page.
  Dialect d;
  d.work_budget_bindings = 12;
  auto ep = MakeEndpoint(d);
  ExtractionReport report;
  auto s = IndexExtractor().Extract(&ep, &report);
  // Whatever strategy wins, fallbacks must be recorded and the result sane.
  if (s.ok()) {
    EXPECT_FALSE(report.fallbacks.empty());
  } else {
    EXPECT_TRUE(s.status().IsTimeout());
  }
}

// --------------------------------------------------- summary serialization

TEST_F(ExtractionTest, IndexSummaryJsonRoundTrip) {
  auto ep = MakeEndpoint(Dialect::Full());
  auto s = DirectAggregationStrategy().Extract(&ep, nullptr);
  ASSERT_TRUE(s.ok());
  s->extracted_day = 5;
  auto round = IndexSummary::FromJson(s->ToJson());
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->ToJson().Dump(), s->ToJson().Dump());
  EXPECT_EQ(round->extracted_day, 5);
  EXPECT_EQ(round->TotalClassInstances(), s->TotalClassInstances());
}

TEST(IndexSummaryTest, FromJsonRejectsNonObject) {
  EXPECT_FALSE(IndexSummary::FromJson(Json(3)).ok());
}

TEST(IndexSummaryTest, FromJsonReadsOutOfRangeRangeCountsAsZero) {
  auto j = Json::Parse(
      R"({"classes":[{"iri":"http://x/A","properties":[{"iri":"http://x/p",)"
      R"("ranges":{"http://x/B":1e300,"http://x/C":3}}]}]})");
  ASSERT_TRUE(j.ok());
  auto s = IndexSummary::FromJson(*j);
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_EQ(s->classes.size(), 1u);
  ASSERT_EQ(s->classes[0].properties.size(), 1u);
  const auto& ranges = s->classes[0].properties[0].range_classes;
  EXPECT_EQ(ranges.at("http://x/B"), 0u);
  EXPECT_EQ(ranges.at("http://x/C"), 3u);
}

TEST(IndexSummaryTest, TotalClassInstancesSums) {
  IndexSummary s;
  s.classes.push_back({"a", 3, {}});
  s.classes.push_back({"b", 5, {}});
  EXPECT_EQ(s.TotalClassInstances(), 8u);
  EXPECT_NE(s.FindClass("a"), nullptr);
  EXPECT_EQ(s.FindClass("zz"), nullptr);
}

// --------------------------------------------------- refresh scheduler

TEST(SchedulerTest, NeverAttemptedIsDue) {
  RefreshScheduler sched(7);
  EndpointRecord r;
  EXPECT_TRUE(sched.IsDue(r, 0));
  EXPECT_TRUE(sched.IsDue(r, 100));
}

TEST(SchedulerTest, FreshSuccessIsNotDueUntilSevenDays) {
  RefreshScheduler sched(7);
  EndpointRecord r;
  RefreshScheduler::RecordAttempt(&r, 10, /*success=*/true);
  EXPECT_FALSE(sched.IsDue(r, 10));  // already ran today
  EXPECT_FALSE(sched.IsDue(r, 13));
  EXPECT_FALSE(sched.IsDue(r, 16));
  EXPECT_TRUE(sched.IsDue(r, 17));  // 7 days later
}

TEST(SchedulerTest, FailedAttemptRetriesDaily) {
  RefreshScheduler sched(7);
  EndpointRecord r;
  RefreshScheduler::RecordAttempt(&r, 10, /*success=*/true);
  RefreshScheduler::RecordAttempt(&r, 17, /*success=*/false);
  EXPECT_FALSE(sched.IsDue(r, 17));  // attempted today already
  EXPECT_TRUE(sched.IsDue(r, 18));   // daily retry
  RefreshScheduler::RecordAttempt(&r, 18, /*success=*/true);
  EXPECT_FALSE(sched.IsDue(r, 19));
  EXPECT_TRUE(sched.IsDue(r, 25));
}

TEST(SchedulerTest, RecordAttemptSetsIndexedOnSuccess) {
  EndpointRecord r;
  RefreshScheduler::RecordAttempt(&r, 3, false);
  EXPECT_FALSE(r.indexed);
  EXPECT_TRUE(r.last_attempt_failed);
  EXPECT_EQ(r.last_success_day, -1);
  RefreshScheduler::RecordAttempt(&r, 4, true);
  EXPECT_TRUE(r.indexed);
  EXPECT_FALSE(r.last_attempt_failed);
  EXPECT_EQ(r.last_success_day, 4);
}

TEST(SchedulerTest, DueTodayScansRegistry) {
  RefreshScheduler sched(7);
  EndpointRegistry reg;
  EndpointRecord fresh;
  fresh.url = "http://fresh";
  RefreshScheduler::RecordAttempt(&fresh, 9, true);
  EndpointRecord stale;
  stale.url = "http://stale";
  RefreshScheduler::RecordAttempt(&stale, 1, true);
  EndpointRecord failed;
  failed.url = "http://failed";
  RefreshScheduler::RecordAttempt(&failed, 9, false);
  EndpointRecord never;
  never.url = "http://never";
  reg.Add(fresh);
  reg.Add(stale);
  reg.Add(failed);
  reg.Add(never);

  auto due = sched.DueToday(reg, 10);
  EXPECT_EQ(due, (std::vector<std::string>{"http://stale", "http://failed",
                                           "http://never"}));

  // The snapshot overload (used by the parallel daily cycle) must agree
  // with the registry overload, in the same (insertion) order.
  EXPECT_EQ(sched.DueToday(reg.Snapshot(), 10), due);
}

TEST(SchedulerTest, ExactlyRefreshAgeOldIsDue) {
  RefreshScheduler sched(7);
  EndpointRecord r;
  RefreshScheduler::RecordAttempt(&r, 100, /*success=*/true);
  EXPECT_FALSE(sched.IsDue(r, 106));  // 6 days: one short
  EXPECT_TRUE(sched.IsDue(r, 107));   // exactly refresh_age_days old
  EXPECT_TRUE(sched.IsDue(r, 108));
}

TEST(SchedulerTest, CustomRefreshAgeBoundary) {
  RefreshScheduler daily(1);
  EndpointRecord r;
  RefreshScheduler::RecordAttempt(&r, 5, /*success=*/true);
  EXPECT_FALSE(daily.IsDue(r, 5));
  EXPECT_TRUE(daily.IsDue(r, 6));  // age 1: due every next day

  RefreshScheduler monthly(30);
  EndpointRecord m;
  RefreshScheduler::RecordAttempt(&m, 0, /*success=*/true);
  EXPECT_FALSE(monthly.IsDue(m, 29));
  EXPECT_TRUE(monthly.IsDue(m, 30));
}

TEST(SchedulerTest, FailedAttemptRetriesEveryDayUntilSuccess) {
  RefreshScheduler sched(7);
  EndpointRecord r;
  RefreshScheduler::RecordAttempt(&r, 0, /*success=*/false);
  for (int64_t day = 1; day <= 5; ++day) {
    EXPECT_TRUE(sched.IsDue(r, day)) << "day " << day;
    RefreshScheduler::RecordAttempt(&r, day, /*success=*/false);
  }
  RefreshScheduler::RecordAttempt(&r, 6, /*success=*/true);
  EXPECT_FALSE(sched.IsDue(r, 7));   // fresh again
  EXPECT_TRUE(sched.IsDue(r, 13));   // next weekly refresh
}

TEST(SchedulerTest, AttemptedButNeverSucceededIsDue) {
  RefreshScheduler sched(7);
  EndpointRecord r;
  // A record whose only attempt "succeeded" per last_attempt_failed but
  // never set last_success_day (e.g. hand-migrated registry data) must be
  // treated as stale, not fresh.
  r.last_attempt_day = 3;
  r.last_attempt_failed = false;
  r.last_success_day = -1;
  EXPECT_TRUE(sched.IsDue(r, 4));
}

// End-to-end §3.1 simulation: a flaky endpoint over 30 days.
TEST_F(ExtractionTest, ThirtyDayRefreshSimulation) {
  AvailabilityModel avail;
  avail.forced_outage_days = {7, 8};  // down exactly when refresh is due
  auto ep = MakeEndpoint(Dialect::Full(), avail);

  EndpointRegistry reg;
  EndpointRecord rec;
  rec.url = ep.url();
  reg.Add(rec);

  RefreshScheduler sched(7);
  IndexExtractor extractor;
  std::vector<int64_t> attempt_days;
  for (int64_t day = 0; day < 30; ++day) {
    clock_ = SimClock(day * SimClock::kMillisPerDay);
    for (const std::string& url : sched.DueToday(reg, day)) {
      auto s = extractor.Extract(&ep, nullptr);
      reg.UpdateRecord(url, [&](EndpointRecord& r) {
        RefreshScheduler::RecordAttempt(&r, day, s.ok());
      });
      attempt_days.push_back(day);
    }
  }
  // Expected: day 0 (initial), day 7 (refresh, fails: outage), day 8
  // (retry, fails), day 9 (retry, succeeds), day 16, 23 (weekly).
  EXPECT_EQ(attempt_days, (std::vector<int64_t>{0, 7, 8, 9, 16, 23}));
}

}  // namespace
}  // namespace hbold::extraction
