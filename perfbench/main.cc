// perfbench: the repository benchmark.
//
//   perfbench --workload <extract_full|delta_churn_ooc|serve_sessions>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's inputs from the seed, measures for about the given
// number of seconds, checks the outputs against the fingerprints the
// parent program gives for that seed, and prints as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans go to .bench_trace/<workload>-<seed>.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "perfbench.h"
#include "workload/exploration_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Every end-to-end metric, reported by every workload with tracing off.
const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"unit_p50_ms", "ms"},
      {"unit_p99_ms", "ms"},
      {"sim_cost_ms", "ms"},
      {"snapshot_refresh_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

/// Every per-layer metric, reported by every traced run; a layer the
/// workload never calls reports 0.
const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> v = {
        {"total_ms", "ms"},
        {"unattributed_ms", "ms"},
        {"sparql.tokenize_ms", "ms"},
        {"sparql.parse_ms", "ms"},
        {"sparql.plan_ms", "ms"},
        {"sparql.execute_ms", "ms"},
        {"sparql.replayed_queries", "count"},
        {"sparql.plan_cache_hit_ratio", "ratio"},
        {"sparql.plan_cache_lookups", "count"},
        {"sparql.hash_join_builds", "count"},
        {"sparql.bindings_per_row", "ratio"},
        {"endpoint.query_count", "count"},
        {"endpoint.query_ms", "ms"},
        {"endpoint.self_ms", "ms"},
        {"endpoint.probe_ms", "ms"},
        {"endpoint.advance_day_ms", "ms"},
        {"endpoint.query_failed.Unsupported", "count"},
        {"endpoint.query_failed.Timeout", "count"},
        {"endpoint.query_failed.Unavailable", "count"},
        {"endpoint.query_failed.other", "count"},
        {"extraction.extract_ms", "ms"},
        {"extraction.queries_per_endpoint", "count"},
        {"extraction.fallbacks", "count"},
        {"extraction.probe_skip_share", "fraction"},
        {"extraction.delta_share", "fraction"},
        {"extraction.forced_refresh_share", "fraction"},
        {"schema.summary_ms", "ms"},
        {"schema.summary_replay_ms", "ms"},
        {"cluster.cluster_ms", "ms"},
        {"cluster.louvain_ms", "ms"},
        {"store.persist_ms", "ms"},
        {"store.snapshot_save_ms", "ms"},
        {"store.snapshot_bytes", "bytes"},
        {"rdf.changed_triples", "count"},
        {"rdf.run_bytes_per_changed_triple", "B/triple"},
        {"rdf.external_sort_mb_per_s", "MB/s"},
        {"rdf.span_ns.ram", "ns"},
        {"rdf.span_ns.mmap", "ns"},
        {"viz.layout_cache.hit_ratio", "ratio"},
        {"viz.layout_cache.lookups", "count"},
        {"viz.layout_set_ms", "ms"},
        {"viz.treemap_ms", "ms"},
        {"viz.sunburst_ms", "ms"},
        {"viz.circle_pack_ms", "ms"},
        {"viz.edge_bundling_ms", "ms"},
        {"viz.svg_ms", "ms"},
        {"serve.snapshot_refresh_ms", "ms"},
        {"serve.gestures", "count"},
        {"hbold.fleet_self_ms", "ms"},
        {"sim.events", "count"},
        {"sim.dispatch_ms", "ms"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
        {"failed_frac", "fraction"},
    };
    for (const char* layer : {"sparql", "endpoint", "extraction", "schema",
                              "cluster", "store", "rdf", "viz", "hbold",
                              "sim"}) {
      v.push_back({std::string("self.") + layer + "_ms", "ms"});
    }
    for (int k = 0; k < 10; ++k) {
      const std::string base =
          std::string("serve.") +
          hbold::workload::SessionActionKindName(
              static_cast<hbold::workload::SessionActionKind>(k)) +
          "_ms";
      v.push_back({base + ".p50", "ms"});
      v.push_back({base + ".p99", "ms"});
    }
    return v;
  }();
  return specs;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--fingerprint-only") {
      args->fingerprint_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

// ------------------------------------------------------ shared reporting

std::string WorkDir(const std::string& workload, uint64_t seed) {
  return ".bench_work/" + workload + "-" + std::to_string(seed);
}

void Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void WriteTrace(const Tracer& tracer, const std::string& workload,
                uint64_t seed) {
  std::error_code ec;
  std::filesystem::create_directories(".bench_trace", ec);
  const std::string path =
      ".bench_trace/" + workload + "-" + std::to_string(seed) + ".json";
  // The first spans suffice to read a workload's shape; the metrics come
  // from the decorators' totals, not from this file.
  constexpr size_t kMaxWrittenSpans = 250'000;
  if (tracer.WriteChromeTrace(path, kMaxWrittenSpans)) {
    Note("wrote " + std::to_string(std::min(kMaxWrittenSpans, tracer.size())) +
         " of " + std::to_string(tracer.size()) + " spans to " + path);
  } else {
    Note("could not write " + path);
  }
}

void AddSelfTimes(const LayerTimes& self, double total_ms, RunOutput* out) {
  out->Add("self.sparql_ms", self.sparql, "ms");
  out->Add("self.endpoint_ms", self.endpoint, "ms");
  out->Add("self.extraction_ms", self.extraction, "ms");
  out->Add("self.schema_ms", self.schema, "ms");
  out->Add("self.cluster_ms", self.cluster, "ms");
  out->Add("self.store_ms", self.store, "ms");
  out->Add("self.rdf_ms", self.rdf, "ms");
  out->Add("self.viz_ms", self.viz, "ms");
  out->Add("self.hbold_ms", self.hbold, "ms");
  out->Add("self.sim_ms", self.sim, "ms");
  out->Add("total_ms", total_ms, "ms");
  out->Add("unattributed_ms", total_ms - self.Sum(), "ms");
}

void AddQueryFailures(const std::map<std::string, uint64_t>& failed,
                      double iterations, RunOutput* out) {
  double other = 0;
  std::map<std::string, double> named = {
      {"Unsupported", 0}, {"Timeout", 0}, {"Unavailable", 0}};
  for (const auto& [code, n] : failed) {
    auto it = named.find(code);
    if (it != named.end()) {
      it->second += n;
    } else {
      other += n;
    }
  }
  for (const auto& [code, n] : named) {
    out->Add("endpoint.query_failed." + code, n / iterations, "count");
  }
  out->Add("endpoint.query_failed.other", other / iterations, "count");
}

void AddTraceOverhead(const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms, size_t spans,
                      RunOutput* out) {
  const double untraced = Median(untraced_ms);
  out->Add("trace.overhead_pct",
           untraced > 0 ? (Median(traced_ms) / untraced - 1) * 100 : 0, "%");
  out->Add("trace.spans", static_cast<double>(spans), "count");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  using perfbench::RunOutput;
  hbold::Logger::set_threshold(hbold::LogLevel::kError);
  Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--fingerprint-only]\n");
    return 2;
  }

  RunOutput out;
  if (args.workload == "extract_full") {
    out = perfbench::RunExtractFull(args);
  } else if (args.workload == "delta_churn_ooc") {
    out = perfbench::RunDeltaChurnOoc(args);
  } else if (args.workload == "serve_sessions") {
    out = perfbench::RunServeSessions(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.fingerprint_only) {
    std::printf("%s %llu %s%s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                out.fingerprint.c_str(), out.correct ? "" : " INCONSISTENT");
    return out.correct ? 0 : 1;
  }

  // Per-layer runs report every per-layer name; a layer the workload never
  // reaches reads 0. End-to-end runs must have produced every metric.
  hbold::Json metrics = hbold::Json::MakeObject();
  std::set<std::string> seen;
  for (const perfbench::Metric& m : out.metrics) {
    hbold::Json value = hbold::Json::MakeObject();
    value.Set("value", m.value);
    value.Set("unit", m.unit);
    metrics.Set(m.name, std::move(value));
    seen.insert(m.name);
  }
  if (args.trace) {
    for (const perfbench::MetricSpec& spec : perfbench::PerLayerSpecs()) {
      if (seen.count(spec.name)) continue;
      hbold::Json value = hbold::Json::MakeObject();
      value.Set("value", 0.0);
      value.Set("unit", spec.unit);
      metrics.Set(spec.name, std::move(value));
    }
  } else {
    for (const perfbench::MetricSpec& spec : perfbench::EndToEndSpecs()) {
      if (!seen.count(spec.name)) {
        std::fprintf(stderr, "workload did not report %s\n",
                     spec.name.c_str());
        out.correct = false;
      }
    }
  }

  // The machine record travels with every result.
  hbold::Json machine = hbold::Json::MakeObject();
  machine.Set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  machine.Set("build_type", PERFBENCH_BUILD_TYPE);
  machine.Set("compiler", PERFBENCH_COMPILER);
  machine.Set("fleet_workers", 1);
  machine.Set("why_inline",
              "two-worker extract_full runs ranged 0.53-1.41 s over 8 runs");
  perfbench::Note("machine " + machine.Dump());
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0;
  perfbench::Note("correct=" + std::string(out.correct ? "true" : "false") +
                  " fingerprint=" + out.fingerprint +
                  " failed_frac=" + std::to_string(failed_frac) + " (" +
                  std::to_string(out.failed) + "/" +
                  std::to_string(out.attempted) + " " + out.attempt_base +
                  ")");

  hbold::Json result = hbold::Json::MakeObject();
  result.Set("correct", out.correct);
  result.Set("attempted", static_cast<int64_t>(std::max<uint64_t>(1, out.attempted)));
  result.Set("failed", static_cast<int64_t>(out.failed));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
