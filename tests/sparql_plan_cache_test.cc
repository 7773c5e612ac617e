// Plan-cache lifecycle suite: normalized-AST keying (alpha-renamed queries
// share one entry), rebuild-generation invalidation after incremental
// triple loads, the stale-statistics regression (join orders must follow a
// skewed appended batch, not a frozen snapshot), capacity eviction, and a
// TSan-gated concurrent-readers test against one shared cache.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "endpoint/local_endpoint.h"
#include "rdf/graph.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/planner.h"

namespace hbold::sparql {
namespace {

using rdf::Term;

rdf::TripleStore MakeSmallStore() {
  rdf::TripleStore store;
  auto iri = [](const std::string& s) { return Term::Iri("http://x/" + s); };
  for (int i = 0; i < 12; ++i) {
    store.Add(iri("s" + std::to_string(i)), iri("p"), iri("o" + std::to_string(i % 3)));
    store.Add(iri("s" + std::to_string(i)), iri("q"), iri("s" + std::to_string((i + 1) % 12)));
  }
  store.FinalizeIndex();
  return store;
}

SelectQuery Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text;
  return std::move(q).value();
}

// ------------------------------------------------------- key normalization

TEST(NormalizeKeyTest, AlphaRenamedQueriesShareOneKey) {
  SelectQuery a = Parse(
      "SELECT ?a ?b WHERE { ?a <http://x/p> ?b . ?b <http://x/q> ?c . }");
  SelectQuery b = Parse(
      "SELECT ?x ?y WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z . }");
  EXPECT_EQ(NormalizeWhereKey(a), NormalizeWhereKey(b));
}

TEST(NormalizeKeyTest, ConstantsAndStructureAreDistinguished) {
  SelectQuery base = Parse("SELECT ?a WHERE { ?a <http://x/p> ?b . }");
  SelectQuery other_const = Parse("SELECT ?a WHERE { ?a <http://x/q> ?b . }");
  SelectQuery other_shape =
      Parse("SELECT ?a WHERE { ?a <http://x/p> ?b . ?a <http://x/p> ?c . }");
  SelectQuery filtered =
      Parse("SELECT ?a WHERE { ?a <http://x/p> ?b . FILTER (BOUND(?b)) . }");
  EXPECT_NE(NormalizeWhereKey(base), NormalizeWhereKey(other_const));
  EXPECT_NE(NormalizeWhereKey(base), NormalizeWhereKey(other_shape));
  EXPECT_NE(NormalizeWhereKey(base), NormalizeWhereKey(filtered));
}

TEST(NormalizeKeyTest, VariableIdentityPatternIsKept) {
  // ?a ?p ?a (shared variable) must not collide with ?a ?p ?b.
  SelectQuery shared = Parse("SELECT ?a WHERE { ?a <http://x/p> ?a . }");
  SelectQuery distinct = Parse("SELECT ?a WHERE { ?a <http://x/p> ?b . }");
  EXPECT_NE(NormalizeWhereKey(shared), NormalizeWhereKey(distinct));
}

// ----------------------------------------------------------- hit counting

TEST(PlanCacheTest, AliasedQueriesHitTheSameEntry) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);

  ExecStats s1, s2, s3;
  ASSERT_TRUE(
      ex.Execute("SELECT ?a WHERE { ?a <http://x/p> ?b . ?a <http://x/q> ?c . }", &s1)
          .ok());
  EXPECT_EQ(s1.plan_cache_misses, 1u);
  EXPECT_EQ(s1.plan_cache_hits, 0u);

  // Alpha-renamed: same normalized key, so a hit.
  ASSERT_TRUE(
      ex.Execute("SELECT ?x WHERE { ?x <http://x/p> ?y . ?x <http://x/q> ?z . }", &s2)
          .ok());
  EXPECT_EQ(s2.plan_cache_hits, 1u);
  EXPECT_EQ(s2.plan_cache_misses, 0u);

  // Different SELECT clause over the same WHERE tree still shares the plan.
  ASSERT_TRUE(
      ex.Execute(
            "SELECT ?y ?z WHERE { ?y <http://x/p> ?w . ?y <http://x/q> ?u . }",
            &s3)
          .ok());
  EXPECT_EQ(s3.plan_cache_hits, 1u);

  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.hits, 2u);
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.entries, 1u);
}

TEST(PlanCacheTest, DifferentConstantsMiss) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);
  ASSERT_TRUE(ex.Execute("SELECT ?a WHERE { ?a <http://x/p> ?b . }").ok());
  ASSERT_TRUE(ex.Execute("SELECT ?a WHERE { ?a <http://x/q> ?b . }").ok());
  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.misses, 2u);
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(cs.entries, 2u);
}

// ------------------------------------------------- resolve, then execute

TEST(PlanCacheTest, ResolveAloneNeitherPlansNorCounts) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);
  const std::string q = "SELECT ?a WHERE { ?a <http://x/p> ?b . }";

  // A resolved miss that is dropped unexecuted leaves no trace.
  auto dropped = ex.Resolve(q);
  ASSERT_TRUE(dropped.ok()) << dropped.status();
  EXPECT_EQ(dropped->query().vars, (std::vector<std::string>{"a"}));
  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.hits + cs.misses, 0u);
  EXPECT_EQ(cs.entries, 0u);

  // Executing a miss plans it and inserts it into the normalized tier.
  auto first = ex.Resolve(q);
  ASSERT_TRUE(first.ok());
  ExecStats s1;
  auto r1 = ex.Execute(std::move(*first), &s1);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(s1.plan_cache_misses, 1u);

  // The second run parses again and takes its plan from the normalized
  // tier (which admits the text to the text tier).
  auto second = ex.Resolve(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->query().vars, (std::vector<std::string>{"a"}));
  ExecStats s2;
  auto r2 = ex.Execute(std::move(*second), &s2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(s2.plan_cache_hits, 1u);
  EXPECT_EQ(s2.plan_cache_misses, 0u);
  EXPECT_EQ(r2->ToCsv(), r1->ToCsv());
  EXPECT_EQ(s2.intermediate_bindings, s1.intermediate_bindings);
  cs = cache.stats();
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.misses, 1u);

  EXPECT_TRUE(ex.Resolve("SELECT garbage").status().IsParseError());
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 2u);
}

// ------------------------------------------------- text-tier admission

// A text enters the text tier only once its shape was planned before, so
// one-shot texts never pin an AST; the hit/miss counts are unchanged.
TEST(PlanCacheTest, TextTierAdmitsOnlyRepeatedTexts) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);
  const std::string once = "SELECT ?a WHERE { ?a <http://x/q> ?b . }";
  const std::string twice = "SELECT ?a WHERE { ?a <http://x/p> ?b . }";
  const uint64_t generation = store.generation();

  ASSERT_TRUE(ex.Execute(once).ok());
  ASSERT_TRUE(ex.Execute(twice).ok());
  // A probe that finds nothing counts nothing.
  EXPECT_EQ(cache.LookupPrepared(twice, generation), nullptr);
  ASSERT_TRUE(ex.Execute(twice).ok());

  // The third run of `twice` is served from the text tier, AST included.
  auto third = ex.Resolve(twice);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->query().vars, (std::vector<std::string>{"a"}));
  ExecStats s3;
  ASSERT_TRUE(ex.Execute(std::move(*third), &s3).ok());
  EXPECT_EQ(s3.plan_cache_hits, 1u);

  // Every query counted once: 4 executed, 2 shapes planned.
  const PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.hits + cs.misses, 4u);
  EXPECT_EQ(cs.misses, 2u);
  EXPECT_EQ(cs.entries, 2u);

  EXPECT_EQ(cache.LookupPrepared(once, generation), nullptr);
  EXPECT_NE(cache.LookupPrepared(twice, generation), nullptr);
}

// ----------------------------------------------- generation invalidation

TEST(PlanCacheTest, IncrementalLoadInvalidatesByGeneration) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);
  const std::string q = "SELECT ?a WHERE { ?a <http://x/p> ?b . }";

  ExecStats s1;
  ASSERT_TRUE(ex.Execute(q, &s1).ok());
  EXPECT_EQ(s1.plan_cache_misses, 1u);
  ExecStats s2;
  ASSERT_TRUE(ex.Execute(q, &s2).ok());
  EXPECT_EQ(s2.plan_cache_hits, 1u);

  // Incremental load: the store's rebuild generation advances on the next
  // read, so the cached epoch no longer matches.
  const uint64_t gen_before = store.generation();
  store.Add(Term::Iri("http://x/new"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o0"));
  EXPECT_GT(store.generation(), gen_before);

  ExecStats s3;
  auto r = ex.Execute(q, &s3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(s3.plan_cache_misses, 1u) << "stale epoch must not serve";
  EXPECT_EQ(s3.plan_cache_hits, 0u);
  // The re-planned query sees the new triple.
  EXPECT_EQ(r->num_rows(), 13u);
  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.invalidations, 1u);

  // And the fresh epoch serves hits again.
  ExecStats s4;
  ASSERT_TRUE(ex.Execute(q, &s4).ok());
  EXPECT_EQ(s4.plan_cache_hits, 1u);
}

// ------------------------------------------------------------ group tier

TEST(GroupTierTest, SharedOptionalBodyReplansOnce) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);

  // Two queries that disagree at the root but share the OPTIONAL body
  // (alias-renamed in the second — the fresh-VarCanon contract).
  ASSERT_TRUE(ex.Execute("SELECT ?a WHERE { ?a <http://x/p> ?b . "
                         "OPTIONAL { ?a <http://x/q> ?x . } }")
                  .ok());
  PlanCacheStats after_first = cache.stats();
  EXPECT_EQ(after_first.group_misses, 1u);
  EXPECT_EQ(after_first.group_hits, 0u);
  EXPECT_EQ(after_first.group_entries, 1u);

  ASSERT_TRUE(ex.Execute("SELECT ?s WHERE { ?s <http://x/q> ?t . "
                         "OPTIONAL { ?s <http://x/q> ?y . } }")
                  .ok());
  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.group_hits, 1u) << "alias-renamed OPTIONAL body must hit";
  EXPECT_EQ(cs.group_misses, 1u);
  EXPECT_EQ(cs.group_entries, 1u);
  // Whole-query accounting is untouched by the group tier: both queries
  // were top-level misses.
  EXPECT_EQ(cs.misses, 2u);
  EXPECT_EQ(cs.hits, 0u);

  auto reuse = cache.GroupReuseStats();
  ASSERT_EQ(reuse.size(), 1u);
  EXPECT_EQ(reuse[0].second, 1u);
}

TEST(GroupTierTest, UnionBranchesShareOneGroupEntry) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);

  // Both UNION branches have the same canonical triple list, so the right
  // branch is served from the entry the left branch just inserted.
  ASSERT_TRUE(ex.Execute("SELECT ?s WHERE { ?s <http://x/p> ?o . "
                         "{ ?s <http://x/q> ?w . } UNION "
                         "{ ?s <http://x/q> ?v . } }")
                  .ok());
  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.group_misses, 1u);
  EXPECT_EQ(cs.group_hits, 1u);
  EXPECT_EQ(cs.group_entries, 1u);
}

TEST(GroupTierTest, FlushedWithTheEpoch) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache;
  Executor ex(&store, ExecOptions{}, &cache);
  const std::string q =
      "SELECT ?a WHERE { ?a <http://x/p> ?b . "
      "OPTIONAL { ?a <http://x/q> ?x . } }";
  ASSERT_TRUE(ex.Execute(q).ok());
  EXPECT_EQ(cache.stats().group_entries, 1u);

  // Generation bump: the group tier was planned against stale statistics
  // and must flush with the other tiers.
  store.Add(Term::Iri("http://x/new"), Term::Iri("http://x/p"),
            Term::Iri("http://x/o0"));
  ASSERT_TRUE(ex.Execute(q).ok());
  PlanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.group_hits, 0u);
  EXPECT_EQ(cs.group_misses, 2u);
  EXPECT_EQ(cs.group_entries, 1u) << "fresh epoch re-inserted the body";
}

// ------------------------------------------------- hash-join build reuse

TEST(HashBuildReuseTest, RepeatedPredicateStepsShareOneBuild) {
  rdf::TripleStore store = MakeSmallStore();
  ExecOptions forced;
  forced.hash_join = HashJoinMode::kForce;
  Executor hashed(&store, forced);
  ExecOptions off;
  off.hash_join = HashJoinMode::kOff;
  Executor nested(&store, off);

  // A chain over one predicate: after the driving scan, both remaining
  // steps probe the identical (constants, key mask) span, so the second
  // hash step reuses the first step's build.
  const std::string q =
      "SELECT ?a ?d WHERE { ?a <http://x/q> ?b . ?b <http://x/q> ?c . "
      "?c <http://x/q> ?d . }";
  ExecStats hs, ns;
  auto hr = hashed.Execute(q, &hs);
  auto nr = nested.Execute(q, &ns);
  ASSERT_TRUE(hr.ok());
  ASSERT_TRUE(nr.ok());
  EXPECT_EQ(hs.hash_join_builds, 1u) << "second step must reuse the build";
  EXPECT_GE(hs.hash_join_build_reuses, 1u);
  // The physical sharing is invisible to results and charged accounting.
  EXPECT_EQ(hr->num_rows(), nr->num_rows());
  EXPECT_EQ(hs.intermediate_bindings, ns.intermediate_bindings);
}

// ------------------------------------------------ stale-statistics guard

TEST(StaleStatsTest, JoinOrderFollowsSkewedIncrementalBatch) {
  // Before the batch: p is rare (selective), q is common — the planner
  // starts with the p pattern. After appending a skewed batch that makes
  // p ubiquitous, the refreshed statistics must flip the order; a frozen
  // snapshot (or a stale cached plan) would keep p first.
  rdf::TripleStore store;
  auto iri = [](const std::string& s) { return Term::Iri("http://x/" + s); };
  for (int i = 0; i < 4; ++i) {
    store.Add(iri("s" + std::to_string(i)), iri("p"), iri("o"));
  }
  for (int i = 0; i < 40; ++i) {
    store.Add(iri("s" + std::to_string(i)), iri("q"), iri("t"));
  }
  store.FinalizeIndex();

  SelectQuery q = Parse(
      "SELECT ?a WHERE { ?a <http://x/p> ?b . ?a <http://x/q> ?c . }");
  ExecOptions options;
  std::vector<size_t> before = PlanOrder(q.where.triples, options, &store);
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0], 0u) << "p (4 triples) should drive before the batch";

  // Skewed batch: p explodes, q stays put.
  for (int i = 0; i < 400; ++i) {
    store.Add(iri("z" + std::to_string(i)), iri("p"),
              iri("o" + std::to_string(i)));
  }
  std::vector<size_t> after = PlanOrder(q.where.triples, options, &store);
  EXPECT_EQ(after[0], 1u) << "q (40 triples) should drive after the batch";

  // Through the executor + cache: the generation bump re-plans, so the
  // cached stale order is not used (charged bindings follow the new one).
  PlanCache cache;
  Executor ex(&store, options, &cache);
  ExecStats s;
  ASSERT_TRUE(ex.Execute(q, &s).ok());
  EXPECT_EQ(s.plan_cache_misses, 1u);
}

TEST(StaleStatsTest, SampledRefreshKeepsCountDistinctExact) {
  // Force the sampled-stats path on a small store and check that (a) the
  // stats are flagged inexact, (b) CountDistinct still answers exactly,
  // (c) the refresh is deterministic.
  rdf::TripleStore store;
  store.SetStatsSamplingThreshold(64);
  auto iri = [](const std::string& s) { return Term::Iri("http://x/" + s); };
  for (int i = 0; i < 300; ++i) {
    store.Add(iri("s" + std::to_string(i % 90)), iri("p"),
              iri("o" + std::to_string(i % 7)));
  }
  store.FinalizeIndex();

  // Small incremental batch (< 1/8 of the index) triggers sampling.
  store.Add(iri("extra"), iri("p"), iri("o1"));
  store.FinalizeIndex();

  const rdf::TermId p = store.dict().Lookup(iri("p"));
  ASSERT_NE(p, rdf::kInvalidTermId);
  rdf::PredicateStats stats = store.StatsForPredicate(p);
  EXPECT_FALSE(stats.exact);
  EXPECT_EQ(stats.triples, store.size());  // range arithmetic stays exact

  // Oracle distinct counts over the full index.
  rdf::TriplePattern pat;
  pat.p = p;
  std::set<rdf::TermId> subjects, objects;
  for (const rdf::Triple& t : store.MatchAll(pat)) {
    subjects.insert(t.s);
    objects.insert(t.o);
  }
  EXPECT_EQ(store.CountDistinct(pat, rdf::TriplePos::kS), subjects.size());
  EXPECT_EQ(store.CountDistinct(pat, rdf::TriplePos::kO), objects.size());

  // Deterministic: a second identical store produces identical stats.
  rdf::TripleStore twin;
  twin.SetStatsSamplingThreshold(64);
  for (int i = 0; i < 300; ++i) {
    twin.Add(iri("s" + std::to_string(i % 90)), iri("p"),
             iri("o" + std::to_string(i % 7)));
  }
  twin.FinalizeIndex();
  twin.Add(iri("extra"), iri("p"), iri("o1"));
  twin.FinalizeIndex();
  rdf::PredicateStats twin_stats = twin.StatsForPredicate(p);
  EXPECT_EQ(stats.triples, twin_stats.triples);
  EXPECT_EQ(stats.distinct_subjects, twin_stats.distinct_subjects);
  EXPECT_EQ(stats.distinct_objects, twin_stats.distinct_objects);
}

// --------------------------------------------------------------- capacity

TEST(PlanCacheTest, CapacityEvictionDropsTheEpoch) {
  rdf::TripleStore store = MakeSmallStore();
  PlanCache cache(4);
  Executor ex(&store, ExecOptions{}, &cache);
  for (int i = 0; i < 10; ++i) {
    // Distinct constants -> distinct keys.
    std::string q = "SELECT ?a WHERE { ?a <http://x/p" + std::to_string(i) +
                    "> ?b . }";
    ASSERT_TRUE(ex.Execute(q).ok());
  }
  EXPECT_LE(cache.size(), 4u);
}

// ------------------------------------------------- concurrent readers

// TSan-gated in CI: many threads hammer one LocalEndpoint (one shared
// plan cache) with aliased and distinct queries while reading stats.
TEST(PlanCacheConcurrencyTest, SharedCacheUnderConcurrentReaders) {
  rdf::TripleStore store = MakeSmallStore();
  endpoint::LocalEndpoint ep("http://x/sparql", "x", &store);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 200;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Rotate over a few alpha-equivalent spellings plus some distinct
        // shapes so hits, misses, and inserts interleave.
        std::string v = "?x" + std::to_string((t + i) % 5);
        std::string q;
        if (i % 3 == 0) {
          q = "SELECT " + v + " WHERE { " + v + " <http://x/p> ?o . }";
        } else if (i % 3 == 1) {
          q = "SELECT " + v + " WHERE { " + v + " <http://x/q> ?o . " + v +
              " <http://x/p> ?c . }";
        } else {
          q = "SELECT (COUNT(*) AS ?n) WHERE { " + v + " <http://x/p> ?o . }";
        }
        sparql::ExecStats stats;
        auto r = ep.QueryWithStats(q, &stats);
        if (!r.ok()) failures.fetch_add(1);
        if (i % 16 == 0) (void)ep.engine_stats();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  endpoint::QueryEngineStats es = ep.engine_stats();
  EXPECT_EQ(es.plan_cache_hits + es.plan_cache_misses,
            static_cast<uint64_t>(kThreads) * kQueriesPerThread);
  // Two distinct normalized WHERE shapes (the COUNT form shares the first
  // form's WHERE tree) -> at least one miss each; the steady state is hits.
  EXPECT_GE(es.plan_cache_misses, 2u);
  EXPECT_GT(es.plan_cache_hits, es.plan_cache_misses);
}

}  // namespace
}  // namespace hbold::sparql
