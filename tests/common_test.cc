// Unit tests for src/common: Status/Result, string utilities, JSON, RNG,
// clocks, logging.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace hbold {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Timeout("x"), Status::Timeout("x"));
  EXPECT_FALSE(Status::Timeout("x") == Status::Timeout("y"));
  EXPECT_FALSE(Status::Timeout("x") == Status::Unavailable("x"));
}

TEST(StatusTest, PredicateHelpers) {
  EXPECT_TRUE(Status::Unavailable("").IsUnavailable());
  EXPECT_TRUE(Status::Timeout("").IsTimeout());
  EXPECT_TRUE(Status::Unsupported("").IsUnsupported());
  EXPECT_TRUE(Status::ParseError("").IsParseError());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() { return Status::IOError("disk"); };
  auto outer = [&]() -> Status {
    HBOLD_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIOError);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kIOError, StatusCode::kUnavailable, StatusCode::kTimeout,
        StatusCode::kUnsupported, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(0), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto get = [](bool good) -> Result<std::string> {
    if (good) return std::string("yes");
    return Status::Internal("boom");
  };
  auto use = [&](bool good) -> Result<size_t> {
    HBOLD_ASSIGN_OR_RETURN(std::string s, get(good));
    return s.size();
  };
  ASSERT_TRUE(use(true).ok());
  EXPECT_EQ(*use(true), 3u);
  EXPECT_FALSE(use(false).ok());
}

TEST(ResultTest, MoveOnlyType) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------- Strings

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("solo", ','), (std::vector<std::string>{"solo"}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http"));
  EXPECT_FALSE(StartsWith("ttp", "http"));
  EXPECT_TRUE(EndsWith("file.jsonl", ".jsonl"));
  EXPECT_FALSE(EndsWith("l", ".jsonl"));
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SpArQl"), "sparql");
  EXPECT_TRUE(ContainsIgnoreCase("http://x/SPARQL", "sparql"));
  EXPECT_FALSE(ContainsIgnoreCase("http://x/rest", "sparql"));
}

TEST(StringUtilTest, IriLocalName) {
  EXPECT_EQ(IriLocalName("http://x.org/onto#Person"), "Person");
  EXPECT_EQ(IriLocalName("http://x.org/Person"), "Person");
  EXPECT_EQ(IriLocalName("http://x.org/Person/"), "Person");
  EXPECT_EQ(IriLocalName("Person"), "Person");
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(StringUtilTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("<a & \"b\">"), "&lt;a &amp; &quot;b&quot;&gt;");
  EXPECT_EQ(XmlEscape("it's"), "it&apos;s");
}

TEST(StringUtilTest, XmlEscapeReplacesIllegalControlCharacters) {
  // Tab, newline and carriage return are legal XML 1.0 characters.
  EXPECT_EQ(XmlEscape("a\tb\nc\rd"), "a\tb\nc\rd");
  const std::string replacement = "\xEF\xBF\xBD";
  EXPECT_EQ(XmlEscape(std::string("\0", 1)), replacement);
  for (char c : {'\x01', '\x08', '\x0B', '\x0C', '\x0E', '\x1F'}) {
    EXPECT_EQ(XmlEscape(std::string(1, c)), replacement) << static_cast<int>(c);
  }
  // DEL and multi-byte UTF-8 pass through untouched.
  EXPECT_EQ(XmlEscape("\x7F caf\xC3\xA9"), "\x7F caf\xC3\xA9");
}

TEST(StringUtilTest, AppendXmlEscapedAppends) {
  std::string out = "<t>";
  AppendXmlEscaped(&out, "x&\x02");
  EXPECT_EQ(out, "<t>x&amp;\xEF\xBF\xBD");
  AppendXmlEscaped(&out, "");
  EXPECT_EQ(out, "<t>x&amp;\xEF\xBF\xBD");
}

// ---------------------------------------------------------------- JSON

TEST(JsonTest, ScalarsRoundTrip) {
  for (const std::string text :
       {"null", "true", "false", "42", "-3.5", "\"hi\""}) {
    auto parsed = Json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->Dump(), text);
  }
}

TEST(JsonTest, ObjectRoundTrip) {
  std::string text = R"({"a":[1,2,{"b":"c"}],"d":null})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), text);
}

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("{").ok());
  // Truncated documents: each must fail without reading past the end.
  for (const char* text : {"{\"a\"", "{\"a\":", "[", "\"", "{\"a\":1,"}) {
    EXPECT_FALSE(Json::Parse(text).ok()) << text;
  }
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
}

TEST(JsonTest, StringEscapes) {
  auto parsed = Json::Parse(R"("line\nquote\"tab\t\\")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "line\nquote\"tab\t\\");
}

TEST(JsonTest, UnicodeEscapes) {
  auto parsed = Json::Parse(R"("é€")");  // é €
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonTest, SurrogatePair) {
  auto parsed = Json::Parse(R"("😀")");  // 😀 U+1F600
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonTest, FieldAccessors) {
  auto doc = Json::Parse(R"({"s":"x","n":5,"b":true,"o":{"inner":1}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetString("s"), "x");
  EXPECT_EQ(doc->GetInt("n"), 5);
  EXPECT_TRUE(doc->GetBool("b"));
  EXPECT_EQ(doc->GetString("missing", "dflt"), "dflt");
  ASSERT_NE(doc->Find("o"), nullptr);
  EXPECT_EQ(doc->Find("o")->GetInt("inner"), 1);
  EXPECT_EQ(doc->Find("nope"), nullptr);
}

TEST(JsonTest, GetIntDefaultsWhenTheNumberDoesNotFitInt64) {
  Json doc = Json::MakeObject();
  doc.Set("huge", 1e300);
  doc.Set("tiny", -1e300);
  doc.Set("two_pow_63", 9223372036854775808.0);
  doc.Set("minus_two_pow_63", -9223372036854775808.0);
  doc.Set("inf", std::numeric_limits<double>::infinity());
  doc.Set("nan", std::numeric_limits<double>::quiet_NaN());
  doc.Set("fraction", -2.75);
  EXPECT_EQ(doc.GetInt("huge", 7), 7);
  EXPECT_EQ(doc.GetInt("tiny", 7), 7);
  EXPECT_EQ(doc.GetInt("two_pow_63", 7), 7);
  EXPECT_EQ(doc.GetInt("minus_two_pow_63", 7),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(doc.GetInt("inf", 7), 7);
  EXPECT_EQ(doc.GetInt("nan", 7), 7);
  EXPECT_EQ(doc.GetInt("fraction", 7), -2);  // truncates, as before
}

TEST(JsonTest, SetAndAppend) {
  Json obj = Json::MakeObject();
  obj.Set("k", Json(1));
  obj.Set("k", Json(2));  // overwrite
  EXPECT_EQ(obj.GetInt("k"), 2);
  Json arr = Json::MakeArray();
  arr.Append(Json("a")).Append(Json("b"));
  EXPECT_EQ(arr.as_array().size(), 2u);
}

TEST(JsonTest, Equality) {
  auto a = Json::Parse(R"({"x":[1,2]})");
  auto b = Json::Parse(R"({ "x" : [ 1 , 2 ] })");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
  auto c = Json::Parse(R"({"x":[1,3]})");
  EXPECT_TRUE(*a != *c);
}

TEST(JsonTest, PrettyPrintParsesBack) {
  auto doc = Json::Parse(R"({"a":{"b":[1,2,3]},"c":"s"})");
  ASSERT_TRUE(doc.ok());
  std::string pretty = doc->Dump(2);
  auto reparsed = Json::Parse(pretty);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(*doc == *reparsed);
}

TEST(JsonTest, LargeIntegersPreserved) {
  auto doc = Json::Parse("123456789012");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_int(), 123456789012LL);
  EXPECT_EQ(doc->Dump(), "123456789012");
}

// One document with every value type, keys set out of order (uppercase,
// UTF-8, empty, a space, an overwrite), escapes and C0 controls.
Json GoldenDocument() {
  using Limits = std::numeric_limits<double>;
  Json nested = Json::MakeObject();
  nested.Set("b", Json(2));
  nested.Set("a", Json(1));
  nested.Set("B", Json("upper"));
  nested.Set("aa", Json::MakeArray());
  nested.Set("a ", Json(3));
  nested.Set("A", Json(nullptr));
  Json numbers = Json::MakeArray();
  for (double d : {0.0, -0.0, 1.0, -1.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
                   0.1, 1.0 / 3, -2.5e-7, 123456789.125, 1e300, 5e-324,
                   Limits::max(), -Limits::max(), Limits::quiet_NaN(),
                   Limits::infinity()}) {
    numbers.Append(Json(d));
  }
  Json doc = Json::MakeObject();
  doc.Set("zeta", Json(1.5));
  doc.Set("Alpha", Json(true));
  doc.Set("", Json(nullptr));
  doc.Set("\xc3\xa9t\xc3\xa9", Json("caf\xc3\xa9 \xe2\x82\xac"));
  doc.Set("arr", Json(Json::Array{Json(1), Json("two"), Json(false),
                                 Json::MakeObject(), Json::MakeArray()}));
  doc.Set("esc", Json(std::string(
                     "q\" b\\ n\n r\r t\t b\b f\f c\x01\x1f\x7f/ z\0", 29)));
  doc.Set("numbers", std::move(numbers));
  doc.Set("nested", std::move(nested));
  doc.Set("Zeta", Json(int64_t{-42}));
  doc.Set("Alpha", Json(false));
  return doc;
}

// Every content hash and fingerprint derives from these bytes, which are
// the ones a std::map-backed object writes.
TEST(JsonTest, GoldenDumpBytes) {
  const Json doc = GoldenDocument();
  const std::string numbers =
      R"("numbers":[0,0,1,-1,999999999999999,-999999999999999,)"
      R"(1000000000000000,-1000000000000000,0.10000000000000001,)"
      R"(0.33333333333333331,-2.4999999999999999e-07,123456789.125,)"
      R"(1.0000000000000001e+300,4.9406564584124654e-324,)"
      R"(1.7976931348623157e+308,-1.7976931348623157e+308,null,null])";
  EXPECT_EQ(doc.Dump(),
            R"({"":null,"Alpha":false,"Zeta":-42,"arr":[1,"two",false,{},[]],)"
            R"("esc":"q\" b\\ n\n r\r t\t b\b f\f c\u0001\u001f)"
            "\x7f"
            R"(/ z\u0000","nested":{"A":null,"B":"upper","a":1,"a ":3,)"
            R"("aa":[],"b":2},)" +
                numbers + R"(,"zeta":1.5,"été":"café €"})");
  EXPECT_EQ(doc.Dump(2),
            "{\n"
            "  \"\": null,\n"
            "  \"Alpha\": false,\n"
            "  \"Zeta\": -42,\n"
            "  \"arr\": [\n    1,\n    \"two\",\n    false,\n    {},\n"
            "    []\n  ],\n"
            R"(  "esc": "q\" b\\ n\n r\r t\t b\b f\f c\u0001\u001f)"
            "\x7f"
            "/ z\\u0000\",\n"
            "  \"nested\": {\n"
            "    \"A\": null,\n    \"B\": \"upper\",\n    \"a\": 1,\n"
            "    \"a \": 3,\n    \"aa\": [],\n    \"b\": 2\n  },\n"
            "  \"numbers\": [\n    0,\n    0,\n    1,\n    -1,\n"
            "    999999999999999,\n    -999999999999999,\n"
            "    1000000000000000,\n    -1000000000000000,\n"
            "    0.10000000000000001,\n    0.33333333333333331,\n"
            "    -2.4999999999999999e-07,\n    123456789.125,\n"
            "    1.0000000000000001e+300,\n    4.9406564584124654e-324,\n"
            "    1.7976931348623157e+308,\n    -1.7976931348623157e+308,\n"
            "    null,\n    null\n  ],\n"
            "  \"zeta\": 1.5,\n"
            "  \"été\": \"café €\"\n"
            "}");
  // Parsing sorts the members; of duplicate keys the last one wins.
  auto parsed = Json::Parse(
      R"({"k":1,"a":[],"k":2,"K":{"y":1,"x":2,"y":3},"":0,"k":{"z":[true]}})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(),
            R"({"":0,"K":{"x":2,"y":3},"a":[],"k":{"z":[true]}})");
  auto round_trip = Json::Parse(doc.Dump());
  ASSERT_TRUE(round_trip.ok());
  EXPECT_EQ(round_trip->Dump(), doc.Dump());
}

TEST(JsonTest, LookupFindsEveryKeyOfASortedObject) {
  Json obj = Json::MakeObject();
  for (int i = 99; i >= 0; i -= 2) obj.Set("k" + std::to_string(i), Json(i));
  for (int i = 0; i < 100; ++i) obj.Set("k" + std::to_string(i), Json(i));
  ASSERT_EQ(obj.as_object().size(), 100u);
  const std::string* prev = nullptr;
  for (const auto& [key, value] : obj.as_object()) {
    if (prev != nullptr) EXPECT_LT(*prev, key);
    prev = &key;
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(obj.GetInt("k" + std::to_string(i), -1), i);
  }
  EXPECT_EQ(obj.Find("k100"), nullptr);
  EXPECT_EQ(obj.Find(""), nullptr);
}

// Numbers are written with std::to_chars; they must match the printf
// formats the fingerprints were computed with, byte for byte.
TEST(JsonTest, NumbersMatchPrintf) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0, -0.0, 1e15, -1e15, 1e15 - 1,
                                -(1e15 - 1), 1e15 + 1, 1e15 - 0.5,
                                Limits::max(), -Limits::max(), Limits::min(),
                                -Limits::min(), Limits::denorm_min(),
                                -Limits::denorm_min(), 1e-5, 123456.5};
  Rng rng(2020);
  for (int i = 0; i < 40000; ++i) {
    const double near = std::round((rng.NextDouble() - 0.5) * 2e4);
    values.push_back(1e15 + near);  // integers either side of the cut-off
    values.push_back(-1e15 + near);
    values.push_back((rng.NextDouble() - 0.5) * 1e6);
    values.push_back(std::round((rng.NextDouble() - 0.5) * 1e12));
    double v = 0;
    uint64_t bits = rng.Next();
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);  // every exponent, NaN/inf, denormals
  }
  size_t mismatches = 0;
  for (double v : values) {
    char want[400];
    if (!std::isfinite(v)) {
      std::snprintf(want, sizeof(want), "null");
    } else if (v == std::floor(v) && std::fabs(v) < 1e15) {
      std::snprintf(want, sizeof(want), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(want, sizeof(want), "%.17g", v);
    }
    const std::string got = Json(v).Dump();
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "Dump gives \"" << got << "\" but printf \"" << want
                    << "\"";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

// ---------------------------------------------------------------- RNG

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(11);
  size_t low = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(100, 1.2) < 5) ++low;
  }
  // With s=1.2 the first five ranks should dominate clearly.
  EXPECT_GT(low, static_cast<size_t>(kTrials) / 3);
}

TEST(RngTest, ZipfCoversRange) {
  Rng rng(13);
  std::set<size_t> seen;
  for (int i = 0; i < 20000; ++i) seen.insert(rng.Zipf(10, 0.5));
  EXPECT_EQ(seen.size(), 10u);
  for (size_t v : seen) EXPECT_LT(v, 10u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

// ---------------------------------------------------------------- Clock

TEST(SimClockTest, AdvancesByDaysAndMillis) {
  SimClock clock;
  EXPECT_EQ(clock.NowMs(), 0);
  EXPECT_EQ(clock.NowDay(), 0);
  clock.AdvanceDays(3);
  EXPECT_EQ(clock.NowDay(), 3);
  clock.AdvanceMs(SimClock::kMillisPerHour * 25);
  EXPECT_EQ(clock.NowDay(), 4);
}

TEST(SimClockTest, ToStringFormat) {
  SimClock clock(SimClock::kMillisPerDay * 2 + SimClock::kMillisPerHour * 3 +
                 SimClock::kMillisPerMinute * 4 + 5 * 1000 + 6);
  EXPECT_EQ(clock.ToString(), "day 2 03:04:05.006");
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 1000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(sw.ElapsedNanos(), 0);
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
  int64_t before = sw.ElapsedNanos();
  sw.Reset();
  EXPECT_LE(sw.ElapsedNanos(), before + 1000000000LL);
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, ThresholdFilters) {
  LogLevel prev = Logger::threshold();
  Logger::set_threshold(LogLevel::kError);
  EXPECT_EQ(Logger::threshold(), LogLevel::kError);
  // Smoke: must not crash under/over threshold.
  HBOLD_LOG(kDebug) << "suppressed";
  HBOLD_LOG(kError) << "emitted";
  Logger::set_threshold(prev);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SubmitReturnsFutureResult) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  auto f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ZeroWorkersClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, RunsAllTasksAcrossWorkers) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  ThreadPool::ParallelFor(&pool, hits.size(),
                          [&](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForNullPoolRunsInline) {
  std::vector<size_t> order;
  ThreadPool::ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(ThreadPool::ParallelFor(&pool, 16,
                                       [&](size_t i) {
                                         ++ran;
                                         if (i % 3 == 0) {
                                           throw std::runtime_error("boom");
                                         }
                                       }),
               std::runtime_error);
  // Every iteration still ran — an exception does not abandon the rest.
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, NestedParallelForOnSharedPoolDoesNotDeadlock) {
  // The fleet pattern: outer loop = shard cycles, inner loop = endpoint
  // pipelines, both on ONE pool that is smaller than the outer fan-out.
  // The caller-participates claim loop must drive this to completion even
  // though every pool worker can be blocked inside an outer iteration.
  ThreadPool pool(2);
  constexpr size_t kOuter = 4;
  constexpr size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ThreadPool::ParallelFor(&pool, kOuter, [&](size_t o) {
    ThreadPool::ParallelFor(&pool, kInner,
                            [&](size_t i) { ++hits[o * kInner + i]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // destructor must run all 50 before joining
  EXPECT_EQ(count.load(), 50);
}

// ------------------------------------------------------ WorkerLatencyLedger

TEST(WorkerLatencyLedgerTest, SingleWorkerMakespanIsSum) {
  WorkerLatencyLedger ledger(1);
  ledger.Assign(10);
  ledger.Assign(20);
  ledger.Assign(30);
  EXPECT_DOUBLE_EQ(ledger.TotalMs(), 60);
  EXPECT_DOUBLE_EQ(ledger.MakespanMs(), 60);
}

TEST(WorkerLatencyLedgerTest, ListSchedulingPicksLeastLoaded) {
  WorkerLatencyLedger ledger(2);
  EXPECT_EQ(ledger.Assign(10), 0u);  // both idle -> lowest id
  EXPECT_EQ(ledger.Assign(4), 1u);   // worker 1 idle
  EXPECT_EQ(ledger.Assign(5), 1u);   // 4 < 10
  EXPECT_EQ(ledger.Assign(1), 1u);   // 9 < 10
  EXPECT_EQ(ledger.Assign(1), 0u);   // 10 == 10 -> lowest id
  EXPECT_DOUBLE_EQ(ledger.TotalMs(), 21);
  EXPECT_DOUBLE_EQ(ledger.MakespanMs(), 11);
}

TEST(WorkerLatencyLedgerTest, DeterministicAcrossReplays) {
  auto replay = [] {
    WorkerLatencyLedger ledger(4);
    for (int i = 0; i < 100; ++i) ledger.Assign((i * 37) % 11 + 1);
    return ledger.MakespanMs();
  };
  EXPECT_DOUBLE_EQ(replay(), replay());
}

// ------------------------------------------------------- LitePatternMatch

TEST(LitePatternMatchTest, UnanchoredSubstring) {
  EXPECT_TRUE(LitePatternMatch("http://x.org/sparql", "sparql"));
  EXPECT_FALSE(LitePatternMatch("http://x.org/download", "sparql"));
  EXPECT_TRUE(LitePatternMatch("abc", ""));
}

TEST(LitePatternMatchTest, Anchors) {
  EXPECT_TRUE(LitePatternMatch("alice", "^ali"));
  EXPECT_FALSE(LitePatternMatch("malice", "^ali"));
  EXPECT_TRUE(LitePatternMatch("query.rq", "rq$"));
  EXPECT_FALSE(LitePatternMatch("rq.query", "rq$"));
  EXPECT_TRUE(LitePatternMatch("exact", "^exact$"));
  EXPECT_FALSE(LitePatternMatch("inexact", "^exact$"));
}

TEST(LitePatternMatchTest, DotAndStar) {
  EXPECT_TRUE(LitePatternMatch("cat", "c.t"));
  EXPECT_FALSE(LitePatternMatch("ct", "c.t"));
  EXPECT_TRUE(LitePatternMatch("coooool", "co*l"));
  EXPECT_TRUE(LitePatternMatch("cl", "co*l"));
  EXPECT_TRUE(LitePatternMatch("http://a/b", "^http.*b$"));
  EXPECT_FALSE(LitePatternMatch("https://a/c", "^http.*b$"));
}

TEST(LitePatternMatchTest, EscapesMetacharacters) {
  EXPECT_TRUE(LitePatternMatch("x.org", "x\\.org"));
  EXPECT_FALSE(LitePatternMatch("xyorg", "x\\.org"));
  EXPECT_TRUE(LitePatternMatch("a*b", "a\\*b"));
  EXPECT_TRUE(LitePatternMatch("cost$", "cost\\$"));
}

TEST(LitePatternMatchTest, CaseInsensitiveFlag) {
  EXPECT_TRUE(LitePatternMatch("SPARQL endpoint", "sparql", true));
  EXPECT_FALSE(LitePatternMatch("SPARQL endpoint", "sparql", false));
  EXPECT_TRUE(LitePatternMatch("Alice", "^ali", true));
}

TEST(LitePatternMatchTest, PlusAndQuestionQuantifiers) {
  EXPECT_TRUE(LitePatternMatch("cool", "co+l"));
  EXPECT_FALSE(LitePatternMatch("cl", "co+l"));
  EXPECT_TRUE(LitePatternMatch("color", "colou?r"));
  EXPECT_TRUE(LitePatternMatch("colour", "colou?r"));
  EXPECT_FALSE(LitePatternMatch("colouur", "^colou?r$"));
}

TEST(LitePatternMatchTest, Alternation) {
  EXPECT_TRUE(LitePatternMatch("http://a/sparql", "sparql|query"));
  EXPECT_TRUE(LitePatternMatch("http://a/query", "sparql|query"));
  EXPECT_FALSE(LitePatternMatch("http://a/download", "sparql|query"));
  // Anchors bind per alternative, as in (^ab)|(cd$).
  EXPECT_TRUE(LitePatternMatch("abx", "^ab|cd$"));
  EXPECT_TRUE(LitePatternMatch("xcd", "^ab|cd$"));
  EXPECT_FALSE(LitePatternMatch("xabcdx", "^ab|cd$"));
  EXPECT_TRUE(LitePatternMatch("a|b", "a\\|b"));  // escaped: literal pipe
}

TEST(LitePatternMatchTest, CharacterClasses) {
  EXPECT_TRUE(LitePatternMatch("cat", "c[au]t"));
  EXPECT_TRUE(LitePatternMatch("cut", "c[au]t"));
  EXPECT_FALSE(LitePatternMatch("cot", "c[au]t"));
  EXPECT_TRUE(LitePatternMatch("x7y", "x[0-9]y"));
  EXPECT_FALSE(LitePatternMatch("xay", "x[0-9]y"));
  EXPECT_TRUE(LitePatternMatch("xay", "x[^0-9]y"));
  EXPECT_TRUE(LitePatternMatch("id42", "^id[0-9]+$"));
  EXPECT_FALSE(LitePatternMatch("id", "^id[0-9]+$"));
  EXPECT_TRUE(LitePatternMatch("Cat", "c[a-z]t", /*ignore_case=*/true));
}

TEST(LitePatternSupportedTest, DetectsUnsupportedSyntax) {
  EXPECT_TRUE(LitePatternSupported("sparql"));
  EXPECT_TRUE(LitePatternSupported("^a[0-9]+|b.*c$"));
  EXPECT_TRUE(LitePatternSupported("a\\(b\\)"));  // escaped parens are fine
  EXPECT_TRUE(LitePatternSupported("cost\\$"));   // escaped anchor is fine
  EXPECT_FALSE(LitePatternSupported("(ab)+"));
  EXPECT_FALSE(LitePatternSupported("a{2,3}"));
  EXPECT_FALSE(LitePatternSupported("[abc"));  // unclosed class
  EXPECT_FALSE(LitePatternSupported("oops\\"));  // trailing backslash
  // Shorthand classes / backreferences would match literally — reject.
  EXPECT_FALSE(LitePatternSupported("\\d+"));
  EXPECT_FALSE(LitePatternSupported("\\w*x"));
  EXPECT_FALSE(LitePatternSupported("a\\1"));
  // Quantifier with nothing to repeat (ECMAScript errors).
  EXPECT_FALSE(LitePatternSupported("+39"));
  EXPECT_FALSE(LitePatternSupported("a**"));
  EXPECT_FALSE(LitePatternSupported("ab|*c"));
  EXPECT_FALSE(LitePatternSupported("^*a"));
  // Mid-pattern anchors are ECMAScript assertions, not literals.
  EXPECT_FALSE(LitePatternSupported("a^b"));
  EXPECT_FALSE(LitePatternSupported("a$b"));
  EXPECT_TRUE(LitePatternSupported("^ab|cd$"));  // per-alternative anchors
}

}  // namespace
}  // namespace hbold
