#include "layers.h"

#include <filesystem>
#include <memory>

#include "cluster/louvain.h"
#include "common/clock.h"
#include "extraction/extractor.h"
#include "perfbench.h"
#include "rdf/run_file.h"
#include "sim/event_loop.h"
#include "sparql/executor.h"
#include "sparql/lexer.h"
#include "sparql/parser.h"
#include "sparql/planner.h"
#include "viz/hierarchy.h"
#include "viz/layout_cache.h"
#include "viz/render.h"

namespace perfbench {

namespace {

using hbold::rdf::Triple;
using hbold::rdf::TripleSpan;
using hbold::rdf::TriplePattern;

double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

SparqlReplay ReplaySparql(const std::vector<QueryLog>& logs) {
  namespace sparql = hbold::sparql;
  SparqlReplay out;
  for (const QueryLog& log : logs) {
    if (log.texts.empty()) continue;
    std::vector<sparql::SelectQuery> parsed;
    parsed.reserve(log.texts.size());
    for (const std::string& text : log.texts) {
      auto t0 = SteadyClock::now();
      auto tokens = sparql::Tokenize(text);
      auto t1 = SteadyClock::now();
      auto query = sparql::ParseQuery(text);
      auto t2 = SteadyClock::now();
      out.tokenize_ms += MsBetween(t0, t1);
      out.parse_ms += MsBetween(t1, t2) - MsBetween(t0, t1);
      if (!tokens.ok() || !query.ok()) {
        ++out.errors;
        continue;
      }
      parsed.push_back(std::move(query).value());
    }
    const sparql::ExecOptions options;
    for (const sparql::SelectQuery& q : parsed) {
      auto t0 = SteadyClock::now();
      sparql::QueryPlan plan = sparql::PlanQuery(q, options, log.store);
      out.plan_ms += MsBetween(t0, SteadyClock::now());
      (void)plan;
    }
    // A warm pass fills the plan cache so the timed pass measures
    // execution, not planning a second time.
    sparql::PlanCache cache(
        sparql::PlanCache::CapacityForStoreSize(log.store->size()), true);
    sparql::Executor executor(log.store, options, &cache);
    for (const sparql::SelectQuery& q : parsed) (void)executor.Execute(q);
    for (const sparql::SelectQuery& q : parsed) {
      sparql::ExecStats stats;
      auto t0 = SteadyClock::now();
      auto table = executor.Execute(q, &stats);
      out.execute_ms += MsBetween(t0, SteadyClock::now());
      if (!table.ok()) {
        ++out.errors;
        continue;
      }
      ++out.queries;
      out.intermediate_bindings += stats.intermediate_bindings;
      out.result_rows += stats.result_rows;
    }
  }
  return out;
}

ExtractionReplay ReplayExtraction(const std::vector<ReplayEndpoint>& eps) {
  ExtractionReplay out;
  hbold::SimClock clock;
  const hbold::extraction::IndexExtractor extractor;
  for (const ReplayEndpoint& e : eps) {
    hbold::endpoint::SimulatedRemoteEndpoint ep(e.url, e.url, e.store, &clock,
                                                e.dialect);
    hbold::extraction::ExtractionReport report;
    auto t0 = SteadyClock::now();
    auto indexes = extractor.Extract(&ep, &report);
    auto t1 = SteadyClock::now();
    out.extract_ms += MsBetween(t0, t1);
    ++out.endpoints;
    out.queries += report.queries_issued;
    out.fallbacks += report.fallbacks.size();
    if (!indexes.ok()) {
      ++out.errors;
      continue;
    }
    auto summary = hbold::schema::SchemaSummary::FromIndexes(*indexes);
    auto t2 = SteadyClock::now();
    hbold::cluster::UGraph graph = hbold::cluster::BuildClassGraph(summary);
    hbold::cluster::Partition partition = hbold::cluster::Louvain(graph);
    auto t3 = SteadyClock::now();
    out.summary_ms += MsBetween(t1, t2);
    out.louvain_ms += MsBetween(t2, t3);
    (void)partition;
  }
  return out;
}

RdfMicro MeasureRdf(const hbold::rdf::TripleStore& store,
                    const std::string& scratch_dir) {
  namespace fs = std::filesystem;
  namespace rdf = hbold::rdf;
  RdfMicro out;
  const TripleSpan all = store.Span(TriplePattern{});
  const std::vector<Triple> content(all.begin(), all.end());
  if (content.empty()) return out;
  std::error_code ec;
  fs::create_directories(scratch_dir, ec);

  // External sort into POS order with a budget of a quarter of the input,
  // so the fragments spill and merge.
  const size_t bytes = content.size() * sizeof(Triple);
  std::vector<double> mb_per_s;
  for (int rep = 0; rep < 3; ++rep) {
    const std::string sort_dir = scratch_dir + "/sort" + std::to_string(rep);
    fs::create_directories(sort_dir, ec);
    rdf::MappedTripleRun run;
    auto t0 = SteadyClock::now();
    hbold::Status st = rdf::ExternalSortToRun(
        TripleSpan{content.data(), content.size()}, rdf::RunOrder::kPos,
        std::max<size_t>(bytes / 4, 4096), sort_dir, sort_dir + "/pos.run",
        &run);
    const double s = MsBetween(t0, SteadyClock::now()) / 1000.0;
    run.Close();
    fs::remove_all(sort_dir, ec);
    if (st.ok() && s > 0) mb_per_s.push_back(bytes / 1e6 / s);
  }
  out.external_sort_mb_per_s = Median(mb_per_s);

  // Identical content on both backends; ids are copied as they are (Span
  // never consults the dictionary).
  rdf::TripleStore ram;
  rdf::TripleStore mmap;
  rdf::DiskBackendOptions disk;
  disk.directory = scratch_dir + "/mmap";
  disk.memory_budget_bytes = std::max<size_t>(bytes / 2, 1 << 16);
  if (!mmap.EnableDiskBackend(disk).ok()) return out;
  for (const Triple& t : content) {
    ram.AddIds(t.s, t.p, t.o);
    mmap.AddIds(t.s, t.p, t.o);
  }
  ram.FinalizeIndex();
  mmap.FinalizeIndex();

  // Every bound-position shape, keyed on a stride sample of the content.
  std::vector<TriplePattern> patterns;
  const size_t stride = std::max<size_t>(1, content.size() / 512);
  for (size_t i = 0; i < content.size(); i += stride) {
    const Triple& t = content[i];
    patterns.push_back({t.s, rdf::kInvalidTermId, rdf::kInvalidTermId});
    patterns.push_back({rdf::kInvalidTermId, t.p, rdf::kInvalidTermId});
    patterns.push_back({rdf::kInvalidTermId, rdf::kInvalidTermId, t.o});
    patterns.push_back({t.s, t.p, rdf::kInvalidTermId});
    patterns.push_back({rdf::kInvalidTermId, t.p, t.o});
    patterns.push_back({t.s, rdf::kInvalidTermId, t.o});
    patterns.push_back({t.s, t.p, t.o});
  }
  auto time_spans = [&](const rdf::TripleStore& s) {
    std::vector<double> per_call_ns;
    for (int rep = 0; rep < 5; ++rep) {
      size_t sink = 0;
      auto t0 = SteadyClock::now();
      for (const TriplePattern& p : patterns) sink += s.Span(p).size;
      const double ns = std::chrono::duration<double, std::nano>(
                            SteadyClock::now() - t0)
                            .count();
      if (sink == 0) return 0.0;  // content was lost: report no figure
      per_call_ns.push_back(ns / static_cast<double>(patterns.size()));
    }
    return Median(per_call_ns);
  };
  out.span_ns_ram = time_spans(ram);
  out.span_ns_mmap = time_spans(mmap);
  return out;
}

VizReplay ReplayViz(const std::vector<VizInput>& catalog) {
  namespace viz = hbold::viz;
  VizReplay out;
  const viz::LayoutSetOptions options;
  for (const VizInput& in : catalog) {
    auto t0 = SteadyClock::now();
    viz::LayoutSet set = viz::ComputeLayoutSet(*in.summary, *in.clusters,
                                               in.name, options);
    out.layout_set_ms += MsBetween(t0, SteadyClock::now());
    (void)set;

    viz::Hierarchy root =
        viz::HierarchyFromClusterSchema(*in.clusters, *in.summary, in.name);
    auto t1 = SteadyClock::now();
    auto treemap = viz::TreemapLayout(
        root, viz::Rect{0, 0, options.treemap_width, options.treemap_height},
        options.treemap);
    auto t2 = SteadyClock::now();
    auto sunburst = viz::SunburstLayout(root, options.sunburst);
    auto t3 = SteadyClock::now();
    auto circles = viz::CirclePackLayout(root, options.circle_pack);
    auto t4 = SteadyClock::now();
    auto bundling =
        viz::BundleSchemaSummary(*in.summary, *in.clusters, options.bundling);
    auto t5 = SteadyClock::now();
    size_t svg_bytes = 0;
    svg_bytes += viz::RenderTreemap(treemap, options.treemap_width,
                                    options.treemap_height)
                     .ToString()
                     .size();
    svg_bytes +=
        viz::RenderSunburst(sunburst, options.sunburst.radius).ToString().size();
    svg_bytes += viz::RenderCirclePack(circles, options.circle_pack.radius)
                     .ToString()
                     .size();
    svg_bytes += viz::RenderEdgeBundling(bundling, options.bundling.radius)
                     .ToString()
                     .size();
    auto t6 = SteadyClock::now();
    (void)svg_bytes;
    out.treemap_ms += MsBetween(t1, t2);
    out.sunburst_ms += MsBetween(t2, t3);
    out.circle_pack_ms += MsBetween(t3, t4);
    out.edge_bundling_ms += MsBetween(t4, t5);
    out.svg_ms += MsBetween(t5, t6);
  }
  return out;
}

double ReplaySimEvents(size_t events) {
  hbold::SimClock clock;
  hbold::sim::EventLoop loop(&clock);
  size_t fired = 0;
  auto t0 = SteadyClock::now();
  for (size_t i = 0; i < events; ++i) {
    loop.ScheduleAt(static_cast<int64_t>(i), hbold::sim::EventKind::kGeneric,
                    "event " + std::to_string(i), [&fired] { ++fired; });
  }
  loop.RunUntilIdle();
  return MsBetween(t0, SteadyClock::now());
}

}  // namespace perfbench
