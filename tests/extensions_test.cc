// Tests for the extension features: Turtle writer, store hash indexes,
// executor join-order options, cluster label policies, slice-dice treemap
// baseline, metadata-repository discovery, and the effectiveness (user
// task) simulator.

#include <gtest/gtest.h>

#include "cluster/cluster_schema.h"
#include "cluster/louvain.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/simulated_endpoint.h"
#include "hbold/effectiveness.h"
#include "hbold/metadata_crawler.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "store/collection.h"
#include "viz/treemap.h"
#include "workload/ld_generator.h"
#include "workload/metadata_repo.h"

namespace hbold {
namespace {

// ---------------------------------------------------------------- Turtle writer

TEST(TurtleWriterTest, RoundTripsThroughParser) {
  rdf::TripleStore store;
  auto n = rdf::ParseTurtle(R"(
@prefix ex: <http://x.org/onto#> .
ex:a a ex:Person ; ex:knows ex:b, ex:c ; ex:age 31 ;
     ex:name "Ann"@en .
ex:b a ex:Person .
_:blank ex:knows ex:a .
)",
                            &store);
  ASSERT_TRUE(n.ok()) << n.status();

  std::string turtle = rdf::WriteTurtle(store);
  rdf::TripleStore reparsed;
  auto m = rdf::ParseTurtle(turtle, &reparsed);
  ASSERT_TRUE(m.ok()) << turtle << "\n" << m.status();
  EXPECT_EQ(reparsed.size(), store.size());
  EXPECT_EQ(rdf::WriteNTriples(reparsed), rdf::WriteNTriples(store));
}

TEST(TurtleWriterTest, EmitsPrefixesAndGroups) {
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::ParseTurtle("@prefix ex: <http://x.org/onto#> .\n"
                               "ex:a ex:p ex:b ; ex:q ex:c .",
                               &store)
                  .ok());
  std::string turtle = rdf::WriteTurtle(store);
  EXPECT_NE(turtle.find("@prefix"), std::string::npos);
  EXPECT_NE(turtle.find(";"), std::string::npos);  // predicate list
  // Namespace referenced at least twice gets compacted.
  EXPECT_NE(turtle.find(":a"), std::string::npos);
}

TEST(TurtleWriterTest, UsesRdfTypeShorthand) {
  rdf::TripleStore store;
  store.Add(rdf::Term::Iri("http://x/i"),
            rdf::Term::Iri(rdf::vocab::kRdfType),
            rdf::Term::Iri("http://x/C"));
  std::string turtle = rdf::WriteTurtle(store);
  EXPECT_NE(turtle.find(" a "), std::string::npos);
}

TEST(TurtleWriterTest, EmptyStore) {
  rdf::TripleStore store;
  EXPECT_EQ(rdf::WriteTurtle(store), "");
}

// ---------------------------------------------------------------- store index

Json Obj(const std::string& text) {
  auto r = Json::Parse(text);
  EXPECT_TRUE(r.ok());
  return r.ok() ? *r : Json::MakeObject();
}

TEST(StoreIndexTest, IndexedFindAgreesWithScan) {
  store::Collection indexed("i"), plain("p");
  indexed.CreateIndex("url");
  for (int i = 0; i < 50; ++i) {
    std::string doc = R"({"url":"http://e)" + std::to_string(i % 10) +
                      R"(","n":)" + std::to_string(i) + "}";
    ASSERT_TRUE(indexed.Insert(Obj(doc)).ok());
    ASSERT_TRUE(plain.Insert(Obj(doc)).ok());
  }
  for (int e = 0; e < 12; ++e) {
    Json filter = Obj(R"({"url":"http://e)" + std::to_string(e) + R"("})");
    EXPECT_EQ(indexed.Find(filter).size(), plain.Find(filter).size());
    EXPECT_EQ(indexed.FindOne(filter) != nullptr,
              plain.FindOne(filter) != nullptr);
  }
  EXPECT_TRUE(indexed.HasIndex("url"));
  EXPECT_FALSE(indexed.HasIndex("n"));
  // Writes go through the index too. Each filter pairs the indexed
  // equality with a constraint the index cannot answer, and some updates
  // move documents between buckets; both collections must agree after
  // every write.
  for (int e = 0; e < 12; ++e) {
    const std::string url = R"("http://e)" + std::to_string(e) + R"(")";
    Json filter = Obj(R"({"url":)" + url + "}");
    Json narrowed = Obj(R"({"url":)" + url + R"(,"n":{"$lt":25}})");
    switch (e % 3) {
      case 0: {
        Json update = Obj(R"({"url":"http://e)" + std::to_string(e + 1) +
                          R"(","tag":)" + std::to_string(e) + "}");
        auto a = indexed.Update(narrowed, update);
        auto b = plain.Update(narrowed, update);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(*a, *b);
        break;
      }
      case 1: {
        Json doc = Obj(R"({"url":)" + url + R"(,"n":)" +
                       std::to_string(100 + e) + "}");
        auto a = indexed.Replace(filter, doc);
        auto b = plain.Replace(filter, doc);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(*a, *b);
        break;
      }
      default:
        EXPECT_EQ(indexed.Remove(narrowed), plain.Remove(narrowed));
        break;
    }
    EXPECT_EQ(indexed.DumpJsonl(), plain.DumpJsonl()) << "after e=" << e;
    EXPECT_EQ(indexed.Find(filter).size(), plain.Find(filter).size());
  }
}

TEST(StoreIndexTest, IndexMaintainedAcrossUpdateAndRemove) {
  store::Collection c("x");
  c.CreateIndex("k");
  ASSERT_TRUE(c.Insert(Obj(R"({"k":"a"})")).ok());
  ASSERT_TRUE(c.Insert(Obj(R"({"k":"b"})")).ok());
  // Update moves a doc between buckets.
  ASSERT_TRUE(c.Update(Obj(R"({"k":"a"})"), Obj(R"({"k":"b"})")).ok());
  EXPECT_EQ(c.Find(Obj(R"({"k":"a"})")).size(), 0u);
  EXPECT_EQ(c.Find(Obj(R"({"k":"b"})")).size(), 2u);
  // Remove drops entries.
  EXPECT_EQ(c.Remove(Obj(R"({"k":"b"})")), 2u);
  EXPECT_EQ(c.Find(Obj(R"({"k":"b"})")).size(), 0u);
}

TEST(StoreIndexTest, IndexCreatedAfterInsertsCoversExistingDocs) {
  store::Collection c("x");
  ASSERT_TRUE(c.Insert(Obj(R"({"k":"a"})")).ok());
  c.CreateIndex("k");
  EXPECT_EQ(c.Find(Obj(R"({"k":"a"})")).size(), 1u);
}

TEST(StoreIndexTest, IndexSurvivesJsonlReload) {
  store::Collection c("x");
  c.CreateIndex("k");
  ASSERT_TRUE(c.Insert(Obj(R"({"k":"a"})")).ok());
  std::string dump = c.DumpJsonl();
  ASSERT_TRUE(c.LoadJsonl(dump).ok());
  EXPECT_EQ(c.Find(Obj(R"({"k":"a"})")).size(), 1u);
}

TEST(StoreIndexTest, OperatorFiltersBypassIndex) {
  store::Collection c("x");
  c.CreateIndex("n");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.Insert(Obj(R"({"n":)" + std::to_string(i) + "}")).ok());
  }
  EXPECT_EQ(c.Find(Obj(R"({"n":{"$gt":2}})")).size(), 2u);
}

// ---------------------------------------------------------------- exec options

TEST(ExecOptionsTest, NaiveOrderSameResultsMoreWork) {
  rdf::TripleStore store;
  workload::SyntheticLdConfig config;
  config.num_classes = 10;
  config.max_instances_per_class = 60;
  workload::GenerateSyntheticLd(config, &store);

  // Worst-case written order: unselective pattern first.
  std::string q =
      "SELECT ?s WHERE { ?s ?p ?o . ?s a <" + config.namespace_iri +
      "class/C0> . }";

  sparql::Executor greedy(&store);
  sparql::ExecOptions naive_opt;
  naive_opt.greedy_join_order = false;
  sparql::Executor naive(&store, naive_opt);

  sparql::ExecStats greedy_stats, naive_stats;
  auto a = greedy.Execute(q, &greedy_stats);
  auto b = naive.Execute(q, &naive_stats);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->num_rows(), b->num_rows());
  EXPECT_LT(greedy_stats.intermediate_bindings,
            naive_stats.intermediate_bindings);
}

TEST(ExecOptionsTest, GreedyOrderAvoidsCartesianProducts) {
  // Triangle pattern with two selective class anchors: a boundness-only
  // planner would evaluate both anchors first and cross-join them; the
  // connectivity-aware order must do strictly better than the naive
  // written order here.
  rdf::TripleStore store;
  workload::SyntheticLdConfig config;
  config.num_classes = 8;
  config.max_instances_per_class = 50;
  workload::GenerateSyntheticLd(config, &store);
  std::string q = "SELECT ?a ?b WHERE { ?a ?p ?b . ?b a <" +
                  config.namespace_iri + "class/C1> . ?a a <" +
                  config.namespace_iri + "class/C0> . }";

  sparql::Executor greedy(&store);
  sparql::ExecOptions naive_opt;
  naive_opt.greedy_join_order = false;
  sparql::Executor naive(&store, naive_opt);
  sparql::ExecStats gs, ns;
  auto a = greedy.Execute(q, &gs);
  auto b = naive.Execute(q, &ns);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->num_rows(), b->num_rows());
  EXPECT_LT(gs.intermediate_bindings, ns.intermediate_bindings);
}

// ---------------------------------------------------------------- label policy

schema::SchemaSummary LabelFixture() {
  extraction::IndexSummary idx;
  idx.endpoint_url = "u";
  // hub: degree 2, 10 instances, no attributes.
  // big: degree 1, 100 instances, no attributes.
  // described: degree 1, 5 instances, 500 attribute usages.
  auto obj = [](const std::string& p, const std::string& range, size_t n) {
    extraction::PropertyInfo info;
    info.iri = p;
    info.count = n;
    info.is_object_property = true;
    info.range_classes[range] = n;
    return info;
  };
  extraction::ClassInfo hub{"http://x/hub", 10, {}};
  hub.properties.push_back(obj("http://x/p1", "http://x/big", 5));
  hub.properties.push_back(obj("http://x/p2", "http://x/described", 5));
  extraction::ClassInfo big{"http://x/big", 100, {}};
  extraction::ClassInfo described{"http://x/described", 5, {}};
  described.properties.push_back(
      extraction::PropertyInfo{"http://x/name", 500, false, {}});
  idx.classes = {hub, big, described};
  return schema::SchemaSummary::FromIndexes(idx);
}

TEST(LabelPolicyTest, PoliciesPickDifferentLabels) {
  schema::SchemaSummary s = LabelFixture();
  cluster::Partition all_one(s.NodeCount(), 0);
  auto degree = cluster::ClusterSchema::FromPartition(
      s, all_one, cluster::LabelPolicy::kHighestDegree);
  auto instances = cluster::ClusterSchema::FromPartition(
      s, all_one, cluster::LabelPolicy::kMostInstances);
  auto attributes = cluster::ClusterSchema::FromPartition(
      s, all_one, cluster::LabelPolicy::kMostAttributes);
  EXPECT_EQ(degree.clusters()[0].label, "hub");
  EXPECT_EQ(instances.clusters()[0].label, "big");
  EXPECT_EQ(attributes.clusters()[0].label, "described");
}

TEST(LabelPolicyTest, DefaultIsDegreeBased) {
  schema::SchemaSummary s = LabelFixture();
  cluster::Partition all_one(s.NodeCount(), 0);
  auto def = cluster::ClusterSchema::FromPartition(s, all_one);
  EXPECT_EQ(def.clusters()[0].label, "hub");
}

// ---------------------------------------------------------------- slice-dice

TEST(SliceDiceTest, AreasStillProportionalButRatiosWorse) {
  // Skewed values make slice-dice produce slivers.
  viz::Hierarchy root{"r", 0, {}};
  viz::Hierarchy cluster{"c", 0, {}};
  for (int i = 0; i < 12; ++i) {
    cluster.children.push_back(
        viz::Hierarchy{"leaf" + std::to_string(i),
                       i == 0 ? 1000.0 : 5.0,
                       {}});
  }
  root.children.push_back(cluster);

  viz::TreemapOptions squarified;
  squarified.padding = 0;
  squarified.header = 0;
  viz::TreemapOptions slicedice = squarified;
  slicedice.algorithm = viz::TreemapAlgorithm::kSliceDice;

  viz::Rect bounds{0, 0, 600, 400};
  auto sq = viz::TreemapLayout(root, bounds, squarified);
  auto sd = viz::TreemapLayout(root, bounds, slicedice);

  // Both algorithms keep area proportionality.
  double sq_total = 0, sd_total = 0;
  for (const auto& c : sq) {
    if (c.depth == 2) sq_total += c.rect.Area();
  }
  for (const auto& c : sd) {
    if (c.depth == 2) sd_total += c.rect.Area();
  }
  EXPECT_NEAR(sq_total, bounds.Area(), 1.0);
  EXPECT_NEAR(sd_total, bounds.Area(), 1.0);

  // Squarified is markedly better on aspect ratio.
  EXPECT_LT(viz::MeanLeafAspectRatio(sq), viz::MeanLeafAspectRatio(sd) / 2);
}

TEST(SliceDiceTest, MeanAspectRatioOfEmpty) {
  EXPECT_DOUBLE_EQ(viz::MeanLeafAspectRatio({}), 0.0);
}

// ---------------------------------------------------------------- metadata repo

TEST(MetadataCrawlerTest, FiltersByAvailabilityAndDedups) {
  rdf::TripleStore repo_store;
  std::vector<workload::MetadataEntry> entries = {
      {"http://good1/sparql", 0.99},
      {"http://good2/sparql", 0.90},
      {"http://flaky/sparql", 0.55},
      {"http://dead/sparql", 0.05},
      {"http://known/sparql", 0.95},
  };
  workload::GenerateMetadataRepository(entries, "http://sparqles.example.org/",
                                       &repo_store);
  SimClock clock;
  endpoint::SimulatedRemoteEndpoint repo("http://sparqles.example.org/sparql",
                                         "sparqles", &repo_store, &clock);
  endpoint::EndpointRegistry registry;
  endpoint::EndpointRecord known;
  known.url = "http://known/sparql";
  registry.Add(known);

  MetadataRepositoryCrawler crawler(&registry);
  auto result = crawler.Crawl("sparqles", &repo, /*min_availability=*/0.8, 3);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->endpoints_listed, 5u);
  EXPECT_EQ(result->above_threshold, 3u);  // good1, good2, known
  EXPECT_EQ(result->already_known, 1u);
  EXPECT_EQ(result->newly_added, 2u);
  EXPECT_TRUE(registry.Contains("http://good1/sparql"));
  EXPECT_FALSE(registry.Contains("http://flaky/sparql"));
}

TEST(MetadataCrawlerTest, DiscoveryQueryParses) {
  auto q = sparql::ParseQuery(
      MetadataRepositoryCrawler::DiscoveryQuery(0.75));
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where.triples.size(), 3u);
  EXPECT_EQ(q->where.filters.size(), 1u);
}

TEST(MetadataCrawlerTest, ThresholdZeroTakesEverything) {
  rdf::TripleStore repo_store;
  workload::GenerateMetadataRepository(
      {{"http://a/sparql", 0.2}, {"http://b/sparql", 0.0}},
      "http://r.example.org/", &repo_store);
  SimClock clock;
  endpoint::SimulatedRemoteEndpoint repo("http://r.example.org/sparql", "r",
                                         &repo_store, &clock);
  endpoint::EndpointRegistry registry;
  MetadataRepositoryCrawler crawler(&registry);
  auto result = crawler.Crawl("r", &repo, 0.0, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->newly_added, 2u);
}

// ---------------------------------------------------------------- effectiveness

struct EffFixture {
  schema::SchemaSummary summary;
  cluster::ClusterSchema clusters;
};

/// Three clusters of 5 classes each, chain-linked inside clusters, one
/// bridge arc between clusters 0 and 1.
EffFixture MakeEffFixture() {
  extraction::IndexSummary idx;
  idx.endpoint_url = "u";
  auto obj = [](const std::string& p, const std::string& range, size_t n) {
    extraction::PropertyInfo info;
    info.iri = p;
    info.count = n;
    info.is_object_property = true;
    info.range_classes[range] = n;
    return info;
  };
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 5; ++i) {
      extraction::ClassInfo cls;
      cls.iri = "http://x/C" + std::to_string(c) + "_" + std::to_string(i);
      cls.instance_count = static_cast<size_t>(10 * (c + 1) + i);
      if (i > 0) {
        cls.properties.push_back(
            obj("http://x/p" + std::to_string(c) + std::to_string(i),
                "http://x/C" + std::to_string(c) + "_" + std::to_string(i - 1),
                3));
      }
      idx.classes.push_back(std::move(cls));
    }
  }
  // Bridge between clusters 0 and 1.
  idx.classes[0].properties.push_back(obj("http://x/bridge", "http://x/C1_0", 1));
  EffFixture f;
  f.summary = schema::SchemaSummary::FromIndexes(idx);
  cluster::Partition part(f.summary.NodeCount());
  for (size_t i = 0; i < part.size(); ++i) {
    // Class IRIs sort deterministically; assign by IRI prefix.
    const std::string& iri = f.summary.nodes()[i].iri;
    part[i] = static_cast<size_t>(iri[10] - '0');  // "http://x/C<c>_..."
  }
  f.clusters = cluster::ClusterSchema::FromPartition(f.summary, part);
  return f;
}

TEST(EffectivenessTest, FindClassByLabelBothStrategiesSucceed) {
  EffFixture f = MakeEffFixture();
  EffectivenessSimulator sim(f.summary, f.clusters);
  auto flat = sim.FindClassByLabel("C2_3", ExplorationStrategy::kFlatScan);
  auto clustered =
      sim.FindClassByLabel("C2_3", ExplorationStrategy::kClusterFirst);
  EXPECT_TRUE(flat.success);
  EXPECT_TRUE(clustered.success);
  EXPECT_GT(flat.interactions, 0u);
  EXPECT_GT(clustered.interactions, 0u);
}

TEST(EffectivenessTest, MissingLabelFails) {
  EffFixture f = MakeEffFixture();
  EffectivenessSimulator sim(f.summary, f.clusters);
  auto flat = sim.FindClassByLabel("nope", ExplorationStrategy::kFlatScan);
  EXPECT_FALSE(flat.success);
  EXPECT_EQ(flat.interactions, f.summary.NodeCount());
}

TEST(EffectivenessTest, MostPopulatedUsesClusterTotals) {
  EffFixture f = MakeEffFixture();
  EffectivenessSimulator sim(f.summary, f.clusters);
  auto flat = sim.FindMostPopulatedClass(ExplorationStrategy::kFlatScan);
  auto clustered =
      sim.FindMostPopulatedClass(ExplorationStrategy::kClusterFirst);
  EXPECT_TRUE(flat.success);
  EXPECT_TRUE(clustered.success);
  // Flat inspects all 15 classes. Cluster-first reads 3 totals
  // (60/110/160), opens c2 (5 members, best class 34), and since both
  // remaining totals exceed 34 must open them too: 3 + 15 = 18. On this
  // near-uniform fixture the high-level view cannot help — the win shows
  // up on skewed data (bench_user_effectiveness).
  EXPECT_EQ(flat.interactions, 15u);
  EXPECT_EQ(clustered.interactions, 18u);
}

TEST(EffectivenessTest, MostPopulatedBranchAndBoundStopsEarlyOnSkew) {
  // One dominant class: cluster totals bound the search immediately.
  extraction::IndexSummary idx;
  idx.endpoint_url = "u";
  idx.classes.push_back({"http://x/huge", 1000, {}});
  idx.classes.push_back({"http://x/a", 2, {}});
  idx.classes.push_back({"http://x/b", 3, {}});
  idx.classes.push_back({"http://x/c", 4, {}});
  schema::SchemaSummary s = schema::SchemaSummary::FromIndexes(idx);
  cluster::Partition part{0, 1, 1, 1};
  auto cs = cluster::ClusterSchema::FromPartition(s, part);
  EffectivenessSimulator sim(s, cs);
  auto outcome =
      sim.FindMostPopulatedClass(ExplorationStrategy::kClusterFirst);
  EXPECT_TRUE(outcome.success);
  // 2 totals + 1 member of the dominant cluster; the other total (9) is
  // below 1000 so it is never opened.
  EXPECT_EQ(outcome.interactions, 3u);
}

TEST(EffectivenessTest, ConnectionAcrossUnlinkedClustersIsOneInteraction) {
  EffFixture f = MakeEffFixture();
  EffectivenessSimulator sim(f.summary, f.clusters);
  int a = f.summary.FindNode("http://x/C0_0");
  int c = f.summary.FindNode("http://x/C2_0");
  ASSERT_GE(a, 0);
  ASSERT_GE(c, 0);
  auto clustered = sim.FindConnection(static_cast<size_t>(a),
                                      static_cast<size_t>(c),
                                      ExplorationStrategy::kClusterFirst);
  // Clusters 0 and 2 are not linked: the Cluster Schema answers "not
  // connected" after a single inspection.
  EXPECT_TRUE(clustered.success);
  EXPECT_EQ(clustered.interactions, 1u);
}

TEST(EffectivenessTest, ConnectionWithinClusterFound) {
  EffFixture f = MakeEffFixture();
  EffectivenessSimulator sim(f.summary, f.clusters);
  int a = f.summary.FindNode("http://x/C0_0");
  int b = f.summary.FindNode("http://x/C0_1");
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  for (auto strategy : {ExplorationStrategy::kFlatScan,
                        ExplorationStrategy::kClusterFirst}) {
    auto outcome = sim.FindConnection(static_cast<size_t>(a),
                                      static_cast<size_t>(b), strategy);
    EXPECT_TRUE(outcome.success);
    EXPECT_GT(outcome.interactions, 0u);
  }
}

TEST(EffectivenessTest, OutOfRangeNodesFail) {
  EffFixture f = MakeEffFixture();
  EffectivenessSimulator sim(f.summary, f.clusters);
  auto outcome =
      sim.FindConnection(999, 0, ExplorationStrategy::kClusterFirst);
  EXPECT_FALSE(outcome.success);
}

}  // namespace
}  // namespace hbold
