// Unit tests for src/sparql: lexer, parser, executor semantics (BGP joins,
// FILTER, OPTIONAL, UNION, aggregates, modifiers), result tables, and the
// visual-query builder.

#include <gtest/gtest.h>

#include <limits>

#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"
#include "sparql/executor.h"
#include "sparql/lexer.h"
#include "sparql/parser.h"
#include "sparql/query_builder.h"
#include "sparql/results.h"

namespace hbold::sparql {
namespace {

using rdf::Term;

// Shared fixture: a small social/geo dataset.
class SparqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto n = rdf::ParseTurtle(R"(
@prefix ex: <http://x/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

ex:alice a foaf:Person ; foaf:name "Alice" ; foaf:age 30 ;
    foaf:knows ex:bob ; ex:livesIn ex:rome .
ex:bob a foaf:Person ; foaf:name "Bob" ; foaf:age 25 ;
    foaf:knows ex:carol ; ex:livesIn ex:rome .
ex:carol a foaf:Person ; foaf:name "Carol" ; foaf:age 41 .
ex:rome a ex:City ; foaf:name "Rome" ;
    ex:website <http://rome.example.org/sparql> .
ex:milan a ex:City ; foaf:name "Milan" ;
    ex:website <http://milan.example.org/data> .
)",
                              &store_);
    ASSERT_TRUE(n.ok()) << n.status();
    executor_ = std::make_unique<Executor>(&store_);
  }

  ResultTable Run(const std::string& q) {
    auto r = executor_->Execute(q);
    EXPECT_TRUE(r.ok()) << q << "\n" << r.status();
    return r.ok() ? *r : ResultTable();
  }

  rdf::TripleStore store_;
  std::unique_ptr<Executor> executor_;
};

constexpr char kPrefixes[] =
    "PREFIX ex: <http://x/>\n"
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";

// ---------------------------------------------------------------- Lexer

TEST(LexerTest, TokenizesCoreForms) {
  auto toks = Tokenize("SELECT ?x WHERE { ?x a <http://x/C> . }");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 9u);
  EXPECT_EQ((*toks)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[1].kind, TokenKind::kVar);
  EXPECT_EQ((*toks)[1].text, "x");
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto toks = Tokenize("select distinct where filter regex");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[4].text, "REGEX");
}

TEST(LexerTest, DisambiguatesIriFromLessThan) {
  auto toks = Tokenize("FILTER (?a < 5) . ?s ?p <http://x/y>");
  ASSERT_TRUE(toks.ok());
  bool saw_lt = false, saw_iri = false;
  for (const auto& t : *toks) {
    if (t.kind == TokenKind::kLt) saw_lt = true;
    if (t.kind == TokenKind::kIri) saw_iri = true;
  }
  EXPECT_TRUE(saw_lt);
  EXPECT_TRUE(saw_iri);
}

TEST(LexerTest, StringEscapesAndComments) {
  auto toks = Tokenize("\"a\\\"b\" # trailing comment\n'single'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "a\"b");
  EXPECT_EQ((*toks)[1].text, "single");
}

TEST(LexerTest, OperatorsTwoChar) {
  auto toks = Tokenize("!= <= >= && || ^^");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokenKind::kNe);
  EXPECT_EQ((*toks)[1].kind, TokenKind::kLe);
  EXPECT_EQ((*toks)[2].kind, TokenKind::kGe);
  EXPECT_EQ((*toks)[3].kind, TokenKind::kAnd);
  EXPECT_EQ((*toks)[4].kind, TokenKind::kOr);
  EXPECT_EQ((*toks)[5].kind, TokenKind::kDtCaret);
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_FALSE(Tokenize("SELECT ?x & ?y").ok());
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
}

TEST(LexerTest, KeywordMatchIsWholeWordAndCaseInsensitive) {
  auto toks = Tokenize("SeLeCt IsLiTeRaL lcase Optional");
  ASSERT_TRUE(toks.ok()) << toks.status();
  ASSERT_EQ(toks->size(), 5u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*toks)[i].kind, TokenKind::kKeyword);
  }
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[1].text, "ISLITERAL");
  EXPECT_EQ((*toks)[2].text, "LCASE");
  EXPECT_EQ((*toks)[3].text, "OPTIONAL");
  EXPECT_EQ((*toks)[3].offset, 23u);
  // Prefixes, suffixes and longer words of a keyword are not keywords.
  for (const char* word : {"SELEC", "SELECTS", "ISLITERALS", "B", "ASKING",
                           "longer_than_any_keyword"}) {
    auto r = Tokenize(word);
    ASSERT_FALSE(r.ok()) << word;
    EXPECT_NE(r.status().message().find(std::string("unknown word '") + word +
                                        "'"),
              std::string::npos)
        << r.status();
  }
}

TEST(LexerTest, LowercaseAIsRdfTypeOnly) {
  auto toks = Tokenize("?s a ?c");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[1].kind, TokenKind::kA);
  EXPECT_EQ((*toks)[1].text, "a");
  // Uppercase 'A' is neither rdf:type nor a keyword.
  EXPECT_FALSE(Tokenize("?s A ?c").ok());
  // 'as' in any case is the AS keyword.
  auto as = Tokenize("as");
  ASSERT_TRUE(as.ok());
  EXPECT_EQ((*as)[0].kind, TokenKind::kKeyword);
  EXPECT_EQ((*as)[0].text, "AS");
}

TEST(LexerTest, PrefixedNamesKeepTheirSpelling) {
  auto toks = Tokenize("Select:Where ex:a-b_1 :local");
  ASSERT_TRUE(toks.ok()) << toks.status();
  EXPECT_EQ((*toks)[0].kind, TokenKind::kPname);
  EXPECT_EQ((*toks)[0].text, "Select:Where");
  EXPECT_EQ((*toks)[1].text, "ex:a-b_1");
  EXPECT_EQ((*toks)[2].text, ":local");
}

// ---------------------------------------------------------------- Parser

TEST(ParserTest, ParsesProjectionAndPrefixes) {
  auto q = ParseQuery(
      "PREFIX ex: <http://x/> SELECT DISTINCT ?a ?b WHERE { ?a ex:p ?b . } "
      "LIMIT 10 OFFSET 2");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->distinct);
  EXPECT_EQ(q->vars, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(q->limit, 10u);
  EXPECT_EQ(q->offset, 2u);
  ASSERT_EQ(q->where.triples.size(), 1u);
  EXPECT_EQ(q->where.triples[0].p.term.lexical(), "http://x/p");
}

TEST(ParserTest, ParsesCountAggregate) {
  auto q = ParseQuery(
      "SELECT ?c (COUNT(DISTINCT ?i) AS ?n) WHERE { ?i a ?c . } GROUP BY ?c");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->aggregates.size(), 1u);
  EXPECT_TRUE(q->aggregates[0].distinct);
  EXPECT_EQ(q->aggregates[0].var, "i");
  EXPECT_EQ(q->aggregates[0].as, "n");
  EXPECT_EQ(q->group_by, (std::vector<std::string>{"c"}));
  EXPECT_TRUE(q->UsesAggregates());
}

TEST(ParserTest, ParsesListing1PortalQuery) {
  // The exact query shape from the paper's Listing 1.
  auto q = ParseQuery(R"(
PREFIX dcat: <http://www.w3.org/ns/dcat#>
PREFIX dc: <http://purl.org/dc/terms/>
SELECT ?dataset ?title ?url
WHERE {
  ?dataset a dcat:Dataset .
  ?dataset dc:title ?title .
  ?dataset dcat:distribution ?distribution .
  ?distribution dcat:accessURL ?url .
  filter ( regex(?url, 'sparql') ) .
}
)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->vars.size(), 3u);
  EXPECT_EQ(q->where.triples.size(), 4u);
  EXPECT_EQ(q->where.filters.size(), 1u);
}

TEST(ParserTest, ParsesOptionalAndUnion) {
  auto q = ParseQuery(R"(
SELECT * WHERE {
  ?s a <http://x/C> .
  OPTIONAL { ?s <http://x/p> ?v . }
  { ?s <http://x/q> ?w . } UNION { ?s <http://x/r> ?w . }
})");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->select_all);
  EXPECT_EQ(q->where.optionals.size(), 1u);
  EXPECT_EQ(q->where.unions.size(), 1u);
}

TEST(ParserTest, ParsesOrderByForms) {
  auto q = ParseQuery(
      "SELECT ?a WHERE { ?a ?p ?b . } ORDER BY DESC(?b) ?a LIMIT 1");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->order_by.size(), 2u);
  EXPECT_FALSE(q->order_by[0].second);
  EXPECT_TRUE(q->order_by[1].second);
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("WHERE { ?s ?p ?o }").ok());
  EXPECT_FALSE(ParseQuery("SELECT WHERE { ?s ?p ?o . }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . ").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s nope:x ?o . }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o . } trailing").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT (SUM(?x) AS ?s) WHERE { ?a ?b ?x . }").ok());
}

TEST(ParserTest, LimitAndOffsetOverflowIsAParseError) {
  // Past size_t (and int64): used to throw out of ParseQuery.
  for (const char* q : {"SELECT ?s WHERE { ?s ?p ?o . } LIMIT 99999999999999999999",
                        "SELECT ?s WHERE { ?s ?p ?o . } OFFSET 99999999999999999999",
                        "SELECT ?s WHERE { ?s ?p ?o . } LIMIT 1 "
                        "OFFSET 99999999999999999999"}) {
    auto r = ParseQuery(q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_TRUE(r.status().IsParseError()) << r.status();
  }
  // The largest size_t still parses.
  auto max = ParseQuery(
      "SELECT ?s WHERE { ?s ?p ?o . } LIMIT 18446744073709551615");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->limit, std::numeric_limits<size_t>::max());
}

TEST(ParserTest, LimitAndOffsetRejectSignedAndFractionalValues) {
  for (const char* q : {"SELECT ?s WHERE { ?s ?p ?o . } LIMIT -5",
                        "SELECT ?s WHERE { ?s ?p ?o . } OFFSET -1",
                        "SELECT ?s WHERE { ?s ?p ?o . } LIMIT +5",
                        "SELECT ?s WHERE { ?s ?p ?o . } LIMIT 1.5",
                        "SELECT ?s WHERE { ?s ?p ?o . } OFFSET 1e3"}) {
    auto r = ParseQuery(q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_TRUE(r.status().IsParseError()) << r.status();
  }
  auto zero = ParseQuery("SELECT ?s WHERE { ?s ?p ?o . } LIMIT 0 OFFSET 0");
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->limit, 0u);
  EXPECT_EQ(zero->offset, 0u);
}

TEST(ParserTest, ParsesSemicolonAndCommaLists) {
  auto q = ParseQuery(
      "PREFIX ex: <http://x/> SELECT ?s WHERE { ?s a ex:C ; ex:p ?a, ?b . }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where.triples.size(), 3u);
}

// ---------------------------------------------------------------- Executor

TEST_F(SparqlTest, SimpleClassQuery) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT ?p WHERE { ?p a foaf:Person . }");
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.columns(), (std::vector<std::string>{"p"}));
}

TEST_F(SparqlTest, JoinAcrossPatterns) {
  // Who lives in the same city as alice? (join via ?city)
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?other WHERE {
  ex:alice ex:livesIn ?city .
  ?other ex:livesIn ?city .
})");
  EXPECT_EQ(t.num_rows(), 2u);  // alice and bob
}

TEST_F(SparqlTest, FilterNumericComparison) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:age ?a . FILTER (?a > 28) . })");
  EXPECT_EQ(t.num_rows(), 2u);  // alice(30), carol(41)
}

TEST_F(SparqlTest, FilterRegexOnIriIsLenient) {
  // Listing-1 style: regex over an IRI-valued object.
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?c WHERE { ?c ex:website ?u . FILTER regex(?u, "sparql") . })");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "c")->lexical(), "http://x/rome");
}

TEST_F(SparqlTest, FilterRegexCaseInsensitiveFlag) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER regex(?n, "^ali", "i") . })");
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST_F(SparqlTest, FilterRegexAlternationAndQuantifiers) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER regex(?n, "^ali|^bob", "i") . })");
  EXPECT_EQ(t.num_rows(), 2u);  // Alice and Bob
  ResultTable q = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER regex(?n, "^[B-C].*[bl]$") . })");
  EXPECT_EQ(q.num_rows(), 2u);  // Bob, Carol (not Alice)
}

TEST_F(SparqlTest, FilterRegexUnsupportedPatternFiltersRow) {
  // Patterns outside the lite-matcher subset evaluate to an error, which
  // FILTER treats as false — same observable behavior as a malformed
  // regex before, never a silent literal match.
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER regex(?n, "(ali)+") . })");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(SparqlTest, FilterStrAndContains) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?c WHERE { ?c ex:website ?u . FILTER CONTAINS(STR(?u), "example.org") . })");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(SparqlTest, FilterBooleanConnectives) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:age ?a .
  FILTER (?a > 28 && ?a < 40 || ?a = 25) . })");
  EXPECT_EQ(t.num_rows(), 2u);  // 30 and 25
}

TEST_F(SparqlTest, FilterNotAndInequality) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p a foaf:Person . ?p foaf:name ?n .
  FILTER (!(?n = "Alice")) . })");
  EXPECT_EQ(t.num_rows(), 2u);
  ResultTable t2 = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE { ?p foaf:name ?n . FILTER (?n != "Rome") . })");
  EXPECT_EQ(t2.num_rows(), 4u);
}

TEST_F(SparqlTest, OptionalKeepsUnmatchedRows) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p ?k WHERE {
  ?p a foaf:Person .
  OPTIONAL { ?p foaf:knows ?k . }
})");
  EXPECT_EQ(t.num_rows(), 3u);
  size_t unbound = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (!t.Cell(i, "k").has_value()) ++unbound;
  }
  EXPECT_EQ(unbound, 1u);  // carol knows nobody
}

TEST_F(SparqlTest, BoundFilterOverOptional) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?p WHERE {
  ?p a foaf:Person .
  OPTIONAL { ?p foaf:knows ?k . }
  FILTER (!BOUND(?k)) .
})");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "p")->lexical(), "http://x/carol");
}

TEST_F(SparqlTest, UnionConcatenatesAlternatives) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?x WHERE {
  { ?x a foaf:Person . } UNION { ?x a ex:City . }
})");
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST_F(SparqlTest, CountStarGlobal) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }");
  EXPECT_EQ(t.ScalarInt("n"), static_cast<int64_t>(store_.size()));
}

TEST_F(SparqlTest, CountEmptyMatchIsZeroRow) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:nothing ?o . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.ScalarInt("n"), 0);
}

TEST_F(SparqlTest, GroupByClassWithCounts) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?c (COUNT(?i) AS ?n) WHERE { ?i a ?c . } GROUP BY ?c ORDER BY DESC(?n))");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Cell(0, "n")->lexical(), "3");  // Person
  EXPECT_EQ(t.Cell(1, "n")->lexical(), "2");  // City
}

TEST_F(SparqlTest, CountDistinct) {
  // Distinct cities people live in: rome only.
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?p ex:livesIn ?c . })");
  EXPECT_EQ(t.ScalarInt("n"), 1);
}

TEST_F(SparqlTest, DistinctRemovesDuplicateRows) {
  ResultTable plain = Run(std::string(kPrefixes) +
                          "SELECT ?c WHERE { ?p ex:livesIn ?c . }");
  ResultTable dedup = Run(std::string(kPrefixes) +
                          "SELECT DISTINCT ?c WHERE { ?p ex:livesIn ?c . }");
  EXPECT_EQ(plain.num_rows(), 2u);
  EXPECT_EQ(dedup.num_rows(), 1u);
}

TEST_F(SparqlTest, OrderByNumericAscending) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?n WHERE { ?p foaf:age ?n . } ORDER BY ?n)");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.Cell(0, "n")->lexical(), "25");
  EXPECT_EQ(t.Cell(2, "n")->lexical(), "41");
}

TEST_F(SparqlTest, LimitOffsetSlice) {
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?n WHERE { ?p foaf:age ?n . } ORDER BY ?n LIMIT 1 OFFSET 1)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "n")->lexical(), "30");
}

TEST_F(SparqlTest, SelectStarProjectsAllVars) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT * WHERE { ?p foaf:knows ?q . }");
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(SparqlTest, SharedVariableWithinPattern) {
  // ?x ?p ?x — nothing is self-linked in the fixture.
  ResultTable t = Run("SELECT ?x WHERE { ?x ?p ?x . }");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(SparqlTest, ChainJoinOrderIndependence) {
  // knows-chain: alice -> bob -> carol; written in worst order to exercise
  // the greedy reorder.
  ResultTable t = Run(std::string(kPrefixes) + R"(
SELECT ?a ?c WHERE {
  ?b foaf:knows ?c .
  ?a foaf:knows ?b .
  ?a foaf:name "Alice" .
})");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "c")->lexical(), "http://x/carol");
}

TEST_F(SparqlTest, ExecStatsPopulated) {
  ExecStats stats;
  auto r = executor_->Execute(
      std::string(kPrefixes) + "SELECT ?p WHERE { ?p a foaf:Person . }",
      &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.result_rows, 3u);
  EXPECT_GE(stats.intermediate_bindings, 3u);
}

TEST_F(SparqlTest, ParseErrorPropagates) {
  auto r = executor_->Execute("SELECT");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

// ---------------------------------------------------------------- Results

TEST_F(SparqlTest, ResultTableJsonShape) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT ?p WHERE { ?p a ex:City . } ORDER BY ?p");
  Json j = t.ToJson();
  ASSERT_NE(j.Find("head"), nullptr);
  ASSERT_NE(j.Find("results"), nullptr);
  const Json* bindings = j.Find("results")->Find("bindings");
  ASSERT_NE(bindings, nullptr);
  EXPECT_EQ(bindings->as_array().size(), 2u);
  EXPECT_EQ(bindings->as_array()[0].Find("p")->GetString("type"), "uri");
}

TEST_F(SparqlTest, ResultTableTsvHasHeader) {
  ResultTable t = Run(std::string(kPrefixes) +
                      "SELECT ?p WHERE { ?p a ex:City . }");
  std::string tsv = t.ToTsv();
  EXPECT_EQ(tsv.substr(0, 2), "?p");
}

TEST(ResultTableTest, TruncateAndScalar) {
  ResultTable t({"n"});
  t.AddRow({Term::IntLiteral(9)});
  t.AddRow({Term::IntLiteral(8)});
  t.Truncate(1);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.ScalarInt("n"), 9);
  EXPECT_FALSE(t.ScalarInt("missing").has_value());
}

TEST(ResultTableTest, ScalarIntRejectsNonNumeric) {
  ResultTable t({"n"});
  t.AddRow({Term::Literal("abc")});
  EXPECT_FALSE(t.ScalarInt("n").has_value());
}

// ---------------------------------------------------------------- Builder

TEST(QueryBuilderTest, BuildsClassAttributeQuery) {
  QueryBuilder b;
  b.Prefix("foaf", "http://xmlns.com/foaf/0.1/")
      .Select("s")
      .Select("name")
      .Distinct()
      .WhereClass("s", "http://xmlns.com/foaf/0.1/Person")
      .WhereLink("s", "http://xmlns.com/foaf/0.1/name", "name")
      .OrderBy("name")
      .Limit(5);
  std::string text = b.Build();
  auto q = ParseQuery(text);
  ASSERT_TRUE(q.ok()) << text << "\n" << q.status();
  EXPECT_TRUE(q->distinct);
  EXPECT_EQ(q->where.triples.size(), 2u);
  EXPECT_EQ(q->limit, 5u);
}

TEST(QueryBuilderTest, BuildsCountQuery) {
  QueryBuilder b;
  b.SelectCount(std::nullopt, "n").WhereRaw("?s", "?p", "?o");
  auto q = ParseQuery(b.Build());
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->aggregates.size(), 1u);
  EXPECT_FALSE(q->aggregates[0].var.has_value());
}

TEST(QueryBuilderTest, FiltersAndOptional) {
  QueryBuilder b;
  b.Select("s")
      .WhereClass("s", "http://x/C")
      .WhereLink("s", "http://x/p", "v")
      .MakeLastOptional()
      .FilterRegex("s", "sparql", /*case_insensitive=*/true)
      .FilterCompare("v", ">", "10");
  auto q = ParseQuery(b.Build());
  ASSERT_TRUE(q.ok()) << b.Build() << "\n" << q.status();
  EXPECT_EQ(q->where.optionals.size(), 1u);
  EXPECT_EQ(q->where.filters.size(), 2u);
}

// ----------------------------------------------------- hostile-text escaping

TEST(QueryBuilderTest, EscapeLiteralEmitsOnlyLexerEscapes) {
  EXPECT_EQ(EscapeLiteral("plain"), "plain");
  EXPECT_EQ(EscapeLiteral("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLiteral("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLiteral("line\nbreak\ttab\rcr"),
            "line\\nbreak\\ttab\\rcr");
}

TEST(QueryBuilderTest, EscapeRegexTextNeutralizesMetacharacters) {
  EXPECT_EQ(EscapeRegexText("abc"), "abc");
  EXPECT_EQ(EscapeRegexText("C++ (draft)"), "C\\+\\+ \\(draft\\)");
  EXPECT_EQ(EscapeRegexText("a.b*c?"), "a\\.b\\*c\\?");
  EXPECT_EQ(EscapeRegexText("^[x]|{y}$"), "\\^\\[x\\]\\|\\{y\\}\\$");
}

TEST(QueryBuilderTest, EscapeIriPercentEncodesForbiddenBytes) {
  // Well-formed IRIs pass through byte-identical.
  EXPECT_EQ(EscapeIri("http://x/Person"), "http://x/Person");
  // Delimiters that would terminate or corrupt the <...> token get
  // percent-encoded, so the query stays parseable.
  EXPECT_EQ(EscapeIri("http://x/a b"), "http://x/a%20b");
  EXPECT_EQ(EscapeIri("http://x/a>c"), "http://x/a%3Ec");
  EXPECT_EQ(EscapeIri("http://x/a\"c"), "http://x/a%22c");
  EXPECT_EQ(EscapeIri("http://x/a\\c"), "http://x/a%5Cc");
  EXPECT_EQ(EscapeIri("http://x/a\nc"), "http://x/a%0Ac");
}

// Hostile labels round-trip through the builder into queries the repo's own
// parser accepts — quotes, backslashes, newlines, and regex metacharacters
// can never break out of the literal or IRI context.
TEST(QueryBuilderTest, HostileTextProducesParseableQueries) {
  const std::string hostile[] = {
      "say \"hi\"",  "back\\slash", "line\nbreak",
      "C++ (draft)", "^a.b$|[c]*",  "tab\there \"x\\y\"",
  };
  for (const std::string& text : hostile) {
    QueryBuilder b;
    b.Select("s")
        .WhereClass("s", "http://x/C " + text)  // hostile IRI too
        .WhereLink("s", "http://x/p", "v")
        .FilterRegex("v", EscapeRegexText(text), true)
        .FilterCompare("v", "!=", "\"" + EscapeLiteral(text) + "\"");
    auto q = ParseQuery(b.Build());
    ASSERT_TRUE(q.ok()) << b.Build() << "\n" << q.status();
    EXPECT_EQ(q->where.filters.size(), 2u);
  }
}

// A regex-escaped search still MATCHES the literal text it came from when
// executed (metachars match themselves after escaping).
TEST_F(SparqlTest, EscapedRegexMatchesLiterally) {
  QueryBuilder b;
  b.Select("name")
      .WhereClass("p", "http://xmlns.com/foaf/0.1/Person")
      .WhereLink("p", "http://xmlns.com/foaf/0.1/name", "name")
      .FilterRegex("name", EscapeRegexText("Alice"), false);
  ResultTable t = Run(b.Build());
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Cell(0, "name")->lexical(), "Alice");

  // A pattern full of metachars escaped: matches nothing, breaks nothing.
  QueryBuilder b2;
  b2.Select("name")
      .WhereClass("p", "http://xmlns.com/foaf/0.1/Person")
      .WhereLink("p", "http://xmlns.com/foaf/0.1/name", "name")
      .FilterRegex("name", EscapeRegexText("^Al.ce$"), false);
  EXPECT_EQ(Run(b2.Build()).num_rows(), 0u);
}

// End-to-end: builder-generated query runs on the fixture store.
TEST_F(SparqlTest, BuilderQueryExecutes) {
  QueryBuilder b;
  b.Prefix("foaf", "http://xmlns.com/foaf/0.1/")
      .Select("name")
      .WhereClass("p", "http://xmlns.com/foaf/0.1/Person")
      .WhereLink("p", "http://xmlns.com/foaf/0.1/name", "name")
      .OrderBy("name");
  ResultTable t = Run(b.Build());
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.Cell(0, "name")->lexical(), "Alice");
}

}  // namespace
}  // namespace hbold::sparql
