// The two fleet workloads: extract_full (a cold full extraction of the
// 130-endpoint world) and delta_churn_ooc (a week of bounded-incremental
// daily cycles over a churning 48-endpoint fleet on the mmap backend).

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet_world.h"
#include "hbold/exploration_service.h"
#include "hbold/fleet.h"
#include "layers.h"
#include "perfbench.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using hbold::FleetDayReport;
using hbold::FleetReport;

namespace {

/// What the benchmark measured around one fleet day.
struct DayTiming {
  double wall_ms = 0;
  std::vector<double> pipeline_ms;
};

/// Runs one fleet day. Pipelines run inline in registration order, so each
/// endpoint's pipeline lasts from its first endpoint call to the next
/// pipeline's first call; the last one ends after its last endpoint call
/// plus the stage times it reported, leaving the merge, ledger and event
/// dispatch after it to the fleet. In a traced run those boundaries become
/// `extraction` spans under the day span, the endpoint calls are
/// re-parented under their pipeline, and the stage times each pipeline
/// reported become `schema`/`cluster`/`store` children at its end.
FleetDayReport RunTimedDay(World* w, Tracer* tracer, DayTiming* timing) {
  for (auto& t : w->timed) t->ResetFirstCall();
  const double start_us = NowUs();
  int64_t day_span = 0;
  FleetDayReport report;
  {
    ScopedSpan span(tracer, "hbold", "Fleet::RunDay");
    day_span = span.id();
    report = w->fleet->RunDay();
  }
  const double end_us = NowUs();
  timing->wall_ms = (end_us - start_us) / 1000.0;

  std::map<std::string, const hbold::PipelineReport*> by_url;
  for (const hbold::PipelineReport& r : report.reports) by_url[r.url] = &r;
  auto stage_us = [&](const std::string& url) {
    auto it = by_url.find(url);
    if (it == by_url.end()) return 0.0;
    const hbold::PipelineReport& r = *it->second;
    return (r.summary_ms + r.cluster_ms + r.persist_ms) * 1000;
  };

  std::vector<std::pair<double, size_t>> starts;  // first call, member
  for (size_t i = 0; i < w->timed.size(); ++i) {
    const double first = w->timed[i]->first_call_us();
    if (first >= 0) starts.emplace_back(first, i);
  }
  std::sort(starts.begin(), starts.end());
  timing->pipeline_ms.clear();
  Tracer::Adopters pipeline_spans;
  for (size_t k = 0; k < starts.size(); ++k) {
    const size_t member = starts[k].second;
    const std::string& url = w->members[member].url;
    const double begin = starts[k].first;
    const double end =
        k + 1 < starts.size()
            ? starts[k + 1].first
            : std::min(end_us,
                       w->timed[member]->last_call_end_us() + stage_us(url));
    timing->pipeline_ms.push_back((end - begin) / 1000.0);
    if (!tracer->enabled()) continue;
    const int64_t id = tracer->Record("extraction", "pipeline " + url, begin,
                                      end - begin, day_span, true);
    pipeline_spans.emplace_back(begin, id);
    auto it = by_url.find(url);
    if (it == by_url.end()) continue;
    const hbold::PipelineReport& r = *it->second;
    double at = end - stage_us(url);
    tracer->Record("schema", "SchemaSummary", at, r.summary_ms * 1000, id,
                   true);
    at += r.summary_ms * 1000;
    tracer->Record("cluster", "ClusterSchema", at, r.cluster_ms * 1000, id,
                   true);
    at += r.cluster_ms * 1000;
    tracer->Record("store", "persist", at, r.persist_ms * 1000, id, true);
  }
  if (tracer->enabled()) tracer->ReparentByStart({{day_span, pipeline_spans}});
  return report;
}

/// One timed iteration of a fleet workload: the figures every run keeps,
/// plus what the traced run attributes to layers.
struct Iteration {
  double setup_ms = 0;
  double timed_ms = 0;
  std::vector<double> pipeline_ms;
  size_t due = 0;
  size_t succeeded = 0;
  size_t failed = 0;
  size_t probe_skips = 0;
  size_t delta_extractions = 0;
  size_t forced_refreshes = 0;
  double sim_makespan_ms = 0;
  /// ExplorationService::RefreshSnapshots after each timed day: how long
  /// before the day's results can be served (not part of timed_ms).
  std::vector<double> refresh_ms;
  std::string content_fingerprint;
  // Layer figures.
  double day_ms = 0;
  double save_ms = 0;
  double snapshot_bytes = 0;
  double summary_ms = 0;
  double cluster_ms = 0;
  double persist_ms = 0;
  double pipelines_ms = 0;
  size_t events = 0;
  size_t changed_triples = 0;
  double run_bytes = 0;
  EndpointTotals endpoint;
  hbold::endpoint::QueryEngineStats engine;
};

void FoldDay(const FleetDayReport& day, const DayTiming& timing,
             Iteration* it) {
  it->due += day.due;
  it->succeeded += day.succeeded;
  it->failed += day.failed;
  it->probe_skips += day.probe_skips;
  it->delta_extractions += day.delta_extractions;
  it->forced_refreshes += day.forced_refreshes;
  it->sim_makespan_ms += day.sim_makespan_ms;
  it->day_ms += timing.wall_ms;
  for (double ms : timing.pipeline_ms) it->pipelines_ms += ms;
  it->pipeline_ms.insert(it->pipeline_ms.end(), timing.pipeline_ms.begin(),
                         timing.pipeline_ms.end());
  for (const hbold::PipelineReport& r : day.reports) {
    it->summary_ms += r.summary_ms;
    it->cluster_ms += r.cluster_ms;
    it->persist_ms += r.persist_ms;
  }
}

double DirBytes(const std::string& dir, const std::string& extension) {
  double bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        (extension.empty() || entry.path().extension() == extension)) {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

/// Sorted copy of a store's content (SPO order).
std::vector<hbold::rdf::Triple> Content(const hbold::rdf::TripleStore& s) {
  hbold::rdf::TripleSpan all = s.Span(hbold::rdf::TriplePattern{});
  return std::vector<hbold::rdf::Triple>(all.begin(), all.end());
}

size_t SymmetricDifference(const std::vector<hbold::rdf::Triple>& a,
                           const std::vector<hbold::rdf::Triple>& b) {
  std::vector<hbold::rdf::Triple> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  return diff.size();
}

// ------------------------------------------------------------ workloads

/// Parameters that tell the two fleet workloads apart.
struct FleetWorkload {
  std::string name;
  WorldShape world;
  hbold::FleetOptions fleet;
  /// Days run during set-up (before the timed part).
  int64_t setup_days = 0;
  /// Days in one timed iteration.
  int64_t timed_days = 1;
  /// Stores on the mmap backend, and a durable snapshot of the fleet's
  /// database after every day.
  bool out_of_core = false;
};

FleetWorkload ExtractFullWorkload(uint64_t seed) {
  FleetWorkload w;
  w.name = "extract_full";
  w.world.size = 130;
  w.world.seed = seed;
  w.fleet = InlineFleet(hbold::IncrementalMode::kOff, 7);
  w.setup_days = 0;
  w.timed_days = 1;
  return w;
}

FleetWorkload DeltaChurnWorkload(uint64_t seed) {
  FleetWorkload w;
  w.name = "delta_churn_ooc";
  w.world.size = 48;
  w.world.seed = seed;
  w.world.daily_churn_fraction = 0.05;
  w.world.quiet_fraction = 0.34;
  w.fleet = InlineFleet(hbold::IncrementalMode::kBounded, 1);
  w.setup_days = 1;
  w.timed_days = 7;
  w.out_of_core = true;
  return w;
}

/// The content fingerprint of the same world crawled by another access
/// path: in RAM, inline, under IncrementalMode::kTrack (probes plus a full
/// extraction every due day). What the fleet learns must not depend on
/// the path, so this is the check for seeds the expected table lacks.
std::string ReferenceFingerprint(const FleetWorkload& spec) {
  hbold::FleetOptions options = spec.fleet;
  options.server.incremental.mode = hbold::IncrementalMode::kTrack;
  Tracer off;
  std::unique_ptr<World> w = BuildWorld(spec.world, options, &off, "");
  if (w == nullptr) return "";
  for (int64_t d = 0; d < spec.setup_days; ++d) w->fleet->RunDay();
  FleetReport report;
  for (int64_t d = 0; d < spec.timed_days; ++d) {
    report.days.push_back(w->fleet->RunDay());
  }
  return report.ContentFingerprint();
}

class FleetRunner {
 public:
  FleetRunner(FleetWorkload spec, const Args& args)
      : spec_(std::move(spec)), args_(args) {
    work_dir_ = WorkDir(spec_.name, args.seed);
  }

  /// Measures, then removes the run's scratch files.
  RunOutput Run();

 private:
  RunOutput Measure();
  /// Builds a fresh world and runs the set-up days (timed as set-up), then
  /// the timed days; fills `it`. Leaves the world alive in `world_`.
  bool RunIteration(bool traced, Iteration* it);
  /// Runs iterations until their timed part adds up to `budget_ms` (and at
  /// least `min_count` of them).
  bool RunPhase(bool traced, double budget_ms, size_t min_count,
                std::vector<Iteration>* its);
  void AddLayerMetrics(const std::vector<Iteration>& traced,
                       const std::vector<Iteration>& untraced,
                       RunOutput* out);

  FleetWorkload spec_;
  Args args_;
  std::string work_dir_;
  SteadyClock::time_point start_;
  Tracer tracer_;
  std::unique_ptr<World> world_;
  std::vector<QueryLog> query_logs_;
};

bool FleetRunner::RunIteration(bool traced, Iteration* it) {
  // Destroy the previous world (stores and their mmaps) before its files.
  world_.reset();
  std::error_code ec;
  fs::remove_all(work_dir_, ec);
  const std::string disk_root = spec_.out_of_core ? work_dir_ + "/stores" : "";
  const std::string snap_dir = work_dir_ + "/snapshots";

  tracer_.set_enabled(false);
  auto setup_start = SteadyClock::now();
  world_ = BuildWorld(spec_.world, spec_.fleet, &tracer_, disk_root);
  if (world_ == nullptr) return false;
  for (int64_t d = 0; d < spec_.setup_days; ++d) {
    DayTiming ignored;
    FleetDayReport day = RunTimedDay(world_.get(), &tracer_, &ignored);
    if (spec_.out_of_core &&
        !world_->fleet->shard_db(0).SaveToDirectory(snap_dir).ok()) {
      return false;
    }
    (void)day;
  }
  it->setup_ms = MsSince(setup_start);

  tracer_.set_enabled(traced);
  const EndpointTotals before = SumTotals(*world_);
  const auto engine_before = SumEngine(*world_);
  const size_t events_before = world_->fleet->loop().history().size();
  for (auto& t : world_->timed) t->set_record_queries(traced);
  ScopedSpan iteration_span(&tracer_, "bench", spec_.name + " iteration");

  hbold::ExplorationService service(world_->fleet.get());
  FleetReport report;
  for (int64_t d = 0; d < spec_.timed_days; ++d) {
    std::vector<std::vector<hbold::rdf::Triple>> before_content;
    if (traced && spec_.out_of_core) {
      for (const auto& m : world_->members) {
        before_content.push_back(Content(*m.store));
      }
    }
    DayTiming timing;
    FleetDayReport day = RunTimedDay(world_.get(), &tracer_, &timing);
    FoldDay(day, timing, it);
    it->timed_ms += timing.wall_ms;
    if (spec_.out_of_core) {
      auto t0 = SteadyClock::now();
      hbold::Status st;
      {
        ScopedSpan span(&tracer_, "store", "Database::SaveToDirectory");
        st = world_->fleet->shard_db(0).SaveToDirectory(snap_dir);
      }
      const double ms = MsSince(t0);
      if (!st.ok()) return false;
      it->save_ms += ms;
      it->timed_ms += ms;
      it->snapshot_bytes = DirBytes(snap_dir, ".hbsnap");
    }
    {
      auto t0 = SteadyClock::now();
      service.RefreshSnapshots();
      it->refresh_ms.push_back(MsSince(t0));
    }
    if (traced && spec_.out_of_core) {
      for (size_t i = 0; i < world_->members.size(); ++i) {
        const size_t changed = SymmetricDifference(
            before_content[i], Content(*world_->members[i].store));
        it->changed_triples += changed;
        if (changed > 0) it->run_bytes += DirBytes(world_->store_dirs[i], ".run");
      }
    }
    report.days.push_back(std::move(day));
  }
  if (traced) {
    // Keep only the last traced iteration's query texts for the replay.
    query_logs_.clear();
    for (size_t i = 0; i < world_->timed.size(); ++i) {
      query_logs_.push_back(
          QueryLog{world_->members[i].store.get(), world_->timed[i]->TakeQueries()});
      world_->timed[i]->set_record_queries(false);
    }
  }
  it->endpoint = SumTotals(*world_) - before;
  it->engine = SumEngine(*world_) - engine_before;
  it->events = world_->fleet->loop().history().size() - events_before;
  it->content_fingerprint = report.ContentFingerprint();
  return true;
}

bool FleetRunner::RunPhase(bool traced, double budget_ms, size_t min_count,
                           std::vector<Iteration>* its) {
  double used_ms = 0;
  while (its->size() < min_count ||
         (used_ms < budget_ms && MsSince(start_) < kWallCapMs)) {
    Iteration it;
    if (!RunIteration(traced, &it)) return false;
    used_ms += it.timed_ms;
    its->push_back(std::move(it));
  }
  return true;
}

RunOutput FleetRunner::Run() {
  RunOutput out = Measure();
  world_.reset();
  std::error_code ec;
  fs::remove_all(work_dir_, ec);
  return out;
}

RunOutput FleetRunner::Measure() {
  RunOutput out;
  out.attempt_base = "endpoint attempts";
  start_ = SteadyClock::now();
  // A traced run spends its first third untraced, for the overhead.
  const double budget_ms = args_.fingerprint_only ? 0 : args_.seconds * 1000;
  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  const bool ran =
      args_.trace
          ? RunPhase(false, budget_ms / 3, 1, &untraced) &&
                RunPhase(true, budget_ms * 2 / 3, 2, &traced)
          : RunPhase(false, budget_ms, args_.fingerprint_only ? 1 : 3,
                     &untraced);
  if (!ran) {
    out.correct = false;
    return out;
  }
  // Before the reference crawl below, which only some seeds need.
  const double peak_rss_mb = PeakRssMb();

  // Correctness: every iteration learned the same content, and that
  // content is what the parent program learned from this seed.
  out.fingerprint = untraced.front().content_fingerprint;
  for (const std::vector<Iteration>* its : {&untraced, &traced}) {
    for (const Iteration& it : *its) {
      out.attempted += it.due;
      out.failed += it.failed;
      if (it.content_fingerprint != out.fingerprint) out.correct = false;
    }
  }
  if (args_.fingerprint_only) return out;
  const char* expected = ExpectedFingerprint(spec_.name, args_.seed);
  std::string reference = expected != nullptr ? expected : "";
  if (reference.empty()) {
    reference = ReferenceFingerprint(spec_);
    Note("no recorded fingerprint for seed " + std::to_string(args_.seed) +
         "; compared against the in-RAM kTrack crawl of the same world (" +
         reference + ")");
  }
  if (reference != out.fingerprint) {
    Note("content fingerprint " + out.fingerprint + " != expected " +
         reference);
    out.correct = false;
    out.failed = out.attempted;  // every attempt learned the wrong content
  }

  std::vector<double> setup_s;
  for (const std::vector<Iteration>* its : {&untraced, &traced}) {
    for (const Iteration& it : *its) setup_s.push_back(it.setup_ms / 1000);
  }
  if (!args_.trace) {
    std::vector<double> throughput;
    std::vector<double> pipelines;
    std::vector<double> refresh;
    for (const Iteration& it : untraced) {
      refresh.insert(refresh.end(), it.refresh_ms.begin(), it.refresh_ms.end());
      throughput.push_back(it.succeeded / (it.timed_ms / 1000));
      pipelines.insert(pipelines.end(), it.pipeline_ms.begin(),
                       it.pipeline_ms.end());
    }
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("throughput_per_s", Median(throughput), "1/s");
    out.Add("unit_p50_ms", Percentile(pipelines, 50), "ms");
    out.Add("unit_p99_ms", Percentile(pipelines, 99), "ms");
    out.Add("sim_cost_ms", untraced.front().sim_makespan_ms, "ms");
    out.Add("snapshot_refresh_ms", Median(refresh), "ms");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    std::string iteration_ms;
    for (const Iteration& it : untraced) {
      iteration_ms += " " + std::to_string(static_cast<int>(it.timed_ms));
    }
    Note("iteration_ms:" + iteration_ms);
    Note("iterations=" + std::to_string(untraced.size()) +
         " pipeline samples=" + std::to_string(pipelines.size()) +
         " setup samples=" + std::to_string(setup_s.size()));
  } else {
    AddLayerMetrics(traced, untraced, &out);
    WriteTrace(tracer_, spec_.name, args_.seed);
  }
  return out;
}

void FleetRunner::AddLayerMetrics(const std::vector<Iteration>& traced,
                                  const std::vector<Iteration>& untraced,
                                  RunOutput* out) {
  const double n = static_cast<double>(traced.size());
  auto mean = [&](auto field) {
    double sum = 0;
    for (const Iteration& it : traced) sum += static_cast<double>(it.*field);
    return sum / n;
  };
  EndpointTotals endpoint;
  hbold::endpoint::QueryEngineStats engine;
  std::vector<double> traced_ms, untraced_ms;
  for (const Iteration& it : traced) {
    endpoint += it.endpoint;
    engine += it.engine;
    traced_ms.push_back(it.timed_ms);
  }
  for (const Iteration& it : untraced) untraced_ms.push_back(it.timed_ms);

  const SparqlReplay sq = ReplaySparql(query_logs_);
  std::vector<ReplayEndpoint> eps;
  for (const auto& m : world_->members) {
    eps.push_back(ReplayEndpoint{m.url, m.store.get(), m.endpoint->dialect()});
  }
  // The extraction replay runs on the stores as the last iteration left
  // them: a cold full extraction of each, whatever the workload's mode.
  const ExtractionReplay ex = ReplayExtraction(eps);
  size_t largest = 0;
  for (size_t i = 0; i < world_->members.size(); ++i) {
    if (world_->members[i].store->size() >
        world_->members[largest].store->size()) {
      largest = i;
    }
  }
  const RdfMicro rdf =
      MeasureRdf(*world_->members[largest].store, work_dir_ + "/rdf");
  const double events = mean(&Iteration::events);
  const double sim_ms = ReplaySimEvents(static_cast<size_t>(events));

  // Per iteration (one cycle for extract_full, one week for
  // delta_churn_ooc). The sparql replay covers the last traced iteration.
  const double total = mean(&Iteration::timed_ms);
  const double day = mean(&Iteration::day_ms);
  const double pipelines = mean(&Iteration::pipelines_ms);
  const double query_ms = endpoint.query_ms / n;
  const double probe_ms = endpoint.probe_ms / n;
  const double advance_ms = endpoint.advance_day_ms / n;
  const double summary = mean(&Iteration::summary_ms);
  const double cluster = mean(&Iteration::cluster_ms);
  const double persist = mean(&Iteration::persist_ms);
  const double save = mean(&Iteration::save_ms);

  LayerTimes self;
  self.sparql = sq.total_ms();
  self.endpoint = query_ms + probe_ms - sq.total_ms();
  self.rdf = advance_ms;
  self.schema = summary;
  self.cluster = cluster;
  self.store = persist + save;
  self.extraction = pipelines - query_ms - probe_ms - summary - cluster - persist;
  self.sim = sim_ms;
  self.hbold = day - pipelines - advance_ms - sim_ms;
  AddSelfTimes(self, total, out);

  out->Add("sparql.tokenize_ms", sq.tokenize_ms, "ms");
  out->Add("sparql.parse_ms", sq.parse_ms, "ms");
  out->Add("sparql.plan_ms", sq.plan_ms, "ms");
  out->Add("sparql.execute_ms", sq.execute_ms, "ms");
  out->Add("sparql.replayed_queries", sq.queries, "count");
  const double lookups = static_cast<double>(engine.plan_cache_hits +
                                             engine.plan_cache_misses);
  out->Add("sparql.plan_cache_hit_ratio",
           lookups > 0 ? engine.plan_cache_hits / lookups : 0, "ratio");
  out->Add("sparql.plan_cache_lookups", lookups / n, "count");
  out->Add("sparql.hash_join_builds", engine.hash_join_builds / n, "count");
  out->Add("sparql.bindings_per_row",
           sq.result_rows > 0
               ? static_cast<double>(sq.intermediate_bindings) / sq.result_rows
               : 0,
           "ratio");
  out->Add("endpoint.query_count", endpoint.queries / n, "count");
  out->Add("endpoint.query_ms", query_ms, "ms");
  out->Add("endpoint.self_ms", self.endpoint, "ms");
  out->Add("endpoint.probe_ms", probe_ms, "ms");
  out->Add("endpoint.advance_day_ms", advance_ms, "ms");
  AddQueryFailures(endpoint.failed, n, out);
  out->Add("extraction.extract_ms", ex.extract_ms, "ms");
  out->Add("extraction.queries_per_endpoint",
           ex.endpoints > 0 ? static_cast<double>(ex.queries) / ex.endpoints : 0,
           "count");
  out->Add("extraction.fallbacks", ex.fallbacks, "count");
  const double succeeded = std::max(1.0, mean(&Iteration::succeeded));
  out->Add("extraction.probe_skip_share",
           mean(&Iteration::probe_skips) / succeeded, "fraction");
  out->Add("extraction.delta_share",
           mean(&Iteration::delta_extractions) / succeeded, "fraction");
  out->Add("extraction.forced_refresh_share",
           mean(&Iteration::forced_refreshes) / succeeded, "fraction");
  out->Add("schema.summary_ms", summary, "ms");
  out->Add("schema.summary_replay_ms", ex.summary_ms, "ms");
  out->Add("cluster.cluster_ms", cluster, "ms");
  out->Add("cluster.louvain_ms", ex.louvain_ms, "ms");
  out->Add("store.persist_ms", persist, "ms");
  out->Add("store.snapshot_save_ms", save, "ms");
  out->Add("store.snapshot_bytes", traced.back().snapshot_bytes, "bytes");
  const double changed = mean(&Iteration::changed_triples);
  out->Add("rdf.changed_triples", changed, "count");
  out->Add("rdf.run_bytes_per_changed_triple",
           changed > 0 ? mean(&Iteration::run_bytes) / changed : 0,
           "B/triple");
  out->Add("rdf.external_sort_mb_per_s", rdf.external_sort_mb_per_s, "MB/s");
  out->Add("rdf.span_ns.ram", rdf.span_ns_ram, "ns");
  out->Add("rdf.span_ns.mmap", rdf.span_ns_mmap, "ns");
  // What the day spends outside every pipeline and data advance: merge,
  // ledger and event dispatch.
  out->Add("hbold.fleet_self_ms", day - pipelines - advance_ms, "ms");
  out->Add("sim.events", events, "count");
  out->Add("sim.dispatch_ms", sim_ms, "ms");
  const double due = mean(&Iteration::due);
  out->Add("failed_frac", due > 0 ? mean(&Iteration::failed) / due : 0,
           "fraction");
  AddTraceOverhead(traced_ms, untraced_ms, tracer_.size(), out);
  Note("traced iterations=" + std::to_string(traced.size()) +
       " untraced=" + std::to_string(untraced.size()) +
       " replay errors sparql=" + std::to_string(sq.errors) +
       " extraction=" + std::to_string(ex.errors) +
       " schema.summary_ms(run)=" + std::to_string(summary) +
       " vs replay=" + std::to_string(ex.summary_ms));
}

}  // namespace

RunOutput RunExtractFull(const Args& args) {
  return FleetRunner(ExtractFullWorkload(args.seed), args).Run();
}

RunOutput RunDeltaChurnOoc(const Args& args) {
  return FleetRunner(DeltaChurnWorkload(args.seed), args).Run();
}

}  // namespace perfbench
