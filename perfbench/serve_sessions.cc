// The serving workload: exploration sessions over the catalog the
// 130-endpoint world extracted during set-up, served by closed-loop client
// threads through ExplorationService::RunSession.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "fleet_world.h"
#include "hbold/exploration_service.h"
#include "layers.h"
#include "perfbench.h"
#include "workload/exploration_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hbold::ExplorationService;
using hbold::SessionResult;
using hbold::workload::SessionActionKind;
using hbold::workload::SessionPlan;

/// Sessions per round. With Zipf(1.1) dataset popularity this renders a
/// few thousand layout sets, of which about one per distinct dataset is a
/// cache miss.
constexpr size_t kSessions = 2000;
/// Closed-loop clients (capped at the core count): each waits for its
/// session to finish before taking the next plan.
constexpr size_t kClients = 2;
constexpr int kSetups = 3;
constexpr int kActionKinds = 10;

/// One round: a snapshot refresh, then every plan served once.
struct Round {
  double refresh_ms = 0;
  /// Wall time of the serving phase (all clients).
  double serve_ms = 0;
  /// Sum over clients of each client's loop time.
  double client_ms = 0;
  std::vector<double> session_ms;
  std::vector<double> gesture_ms[kActionKinds];
  double render_ms = 0;
  size_t failed_sessions = 0;
  uint64_t fingerprint = 0;
  EndpointTotals endpoint;
  hbold::endpoint::QueryEngineStats engine;
  hbold::viz::LayoutCacheStats cache;
};

WorldShape WorldOptions(uint64_t seed) {
  WorldShape world;
  world.size = 130;
  world.seed = seed;
  return world;
}

class ServeRunner {
 public:
  explicit ServeRunner(const Args& args) : args_(args) {}
  RunOutput Run();

 private:
  bool Setup(double* setup_ms);
  Round ServeRound(bool traced);
  void AddLayerMetrics(const std::vector<Round>& traced,
                       const std::vector<Round>& untraced, RunOutput* out);

  Args args_;
  Tracer tracer_;
  std::unique_ptr<World> world_;
  std::unique_ptr<ExplorationService> service_;
  std::vector<SessionPlan> plans_;
  size_t clients_ = 1;
};

bool ServeRunner::Setup(double* setup_ms) {
  service_.reset();
  world_.reset();
  auto t0 = SteadyClock::now();
  world_ = BuildWorld(WorldOptions(args_.seed),
                      InlineFleet(hbold::IncrementalMode::kOff, 7), &tracer_,
                      "");
  if (world_ == nullptr) return false;
  hbold::FleetDayReport day = world_->fleet->RunDay();
  service_ = std::make_unique<ExplorationService>(world_->fleet.get());
  const size_t datasets = service_->RefreshSnapshots();
  *setup_ms = MsSince(t0);
  if (datasets == 0 || day.failed != 0) return false;
  hbold::workload::ExplorationWorkloadOptions options;
  options.sessions = kSessions;
  options.seed = args_.seed * 7 + 3;
  options.dataset_zipf_s = 1.1;
  plans_ = hbold::workload::GenerateSessions(options, datasets);
  return true;
}

Round ServeRunner::ServeRound(bool traced) {
  Round round;
  tracer_.set_enabled(traced);
  for (auto& t : world_->timed) {
    t->TakeQueries();
    t->set_record_queries(traced);
  }
  const EndpointTotals before = SumTotals(*world_);
  const hbold::endpoint::QueryEngineStats engine_before = SumEngine(*world_);
  const hbold::viz::LayoutCacheStats cache_before = service_->cache_stats();
  ScopedSpan round_span(&tracer_, "bench", "serve_sessions round");

  auto t0 = SteadyClock::now();
  {
    ScopedSpan span(&tracer_, "hbold", "ExplorationService::RefreshSnapshots");
    service_->RefreshSnapshots();
  }
  round.refresh_ms = MsSince(t0);

  std::vector<SessionResult> results(plans_.size());
  std::vector<double> session_start_us(plans_.size());
  std::vector<int64_t> session_span(plans_.size());
  round.session_ms.assign(plans_.size(), 0);
  std::vector<double> client_ms(clients_, 0);
  std::atomic<size_t> next{0};
  auto client = [&](size_t c) {
    auto start = SteadyClock::now();
    for (size_t i = next++; i < plans_.size(); i = next++) {
      session_start_us[i] = NowUs();
      ScopedSpan span(&tracer_, "hbold", "ExplorationService::RunSession");
      session_span[i] = span.id();
      results[i] = service_->RunSession(plans_[i]);
      round.session_ms[i] = (NowUs() - session_start_us[i]) / 1000.0;
    }
    client_ms[c] = MsSince(start);
  };
  auto serve_start = SteadyClock::now();
  {
    std::vector<std::thread> threads;
    for (size_t c = 1; c < clients_; ++c) threads.emplace_back(client, c);
    client(0);
    for (std::thread& t : threads) t.join();
  }
  round.serve_ms = MsSince(serve_start);
  for (double ms : client_ms) round.client_ms += ms;

  std::map<int64_t, Tracer::Adopters> moves;
  for (size_t i = 0; i < plans_.size(); ++i) {
    const SessionResult& r = results[i];
    if (r.transcript.find(" error=") != std::string::npos) {
      ++round.failed_sessions;
    }
    // Gestures run back to back inside the session; the transcript lines
    // and interaction_wall_ms are index-aligned with the plan's actions.
    double at = session_start_us[i];
    Tracer::Adopters gestures;
    for (size_t g = 0; g < r.interaction_wall_ms.size() &&
                       g < plans_[i].actions.size();
         ++g) {
      const SessionActionKind kind = plans_[i].actions[g].kind;
      const double ms = r.interaction_wall_ms[g];
      round.gesture_ms[static_cast<int>(kind)].push_back(ms);
      if (kind == SessionActionKind::kRenderLayouts) round.render_ms += ms;
      if (traced) {
        const bool render = kind == SessionActionKind::kRenderLayouts;
        gestures.emplace_back(
            at, tracer_.Record(render ? "viz" : "hbold",
                               hbold::workload::SessionActionKindName(kind), at,
                               ms * 1000, session_span[i], true));
      }
      at += ms * 1000;
    }
    if (traced) moves[session_span[i]] = std::move(gestures);
  }
  if (traced) tracer_.ReparentByStart(moves);
  for (auto& t : world_->timed) t->set_record_queries(false);
  round.fingerprint = ExplorationService::CombinedFingerprint(results);
  round.endpoint = SumTotals(*world_) - before;
  round.engine = SumEngine(*world_) - engine_before;
  const hbold::viz::LayoutCacheStats cache_after = service_->cache_stats();
  round.cache.hits = cache_after.hits - cache_before.hits;
  round.cache.misses = cache_after.misses - cache_before.misses;
  return round;
}

RunOutput ServeRunner::Run() {
  RunOutput out;
  out.attempt_base = "sessions";
  clients_ = std::max<size_t>(
      1, std::min<size_t>(kClients, std::thread::hardware_concurrency()));
  std::vector<double> setup_s;
  const int setups = args_.fingerprint_only ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    double ms = 0;
    if (!Setup(&ms)) {
      out.correct = false;
      return out;
    }
    setup_s.push_back(ms / 1000);
  }

  // A traced run spends its first third untraced, for the overhead.
  const auto start = SteadyClock::now();
  const double budget_ms = args_.fingerprint_only ? 0 : args_.seconds * 1000;
  auto run_rounds = [&](bool traced, double budget, size_t min_count,
                        std::vector<Round>* rounds) {
    double used_ms = 0;
    while (rounds->size() < min_count ||
           (used_ms < budget && MsSince(start) < kWallCapMs)) {
      rounds->push_back(ServeRound(traced));
      used_ms += rounds->back().refresh_ms + rounds->back().serve_ms;
    }
  };
  std::vector<Round> untraced;
  std::vector<Round> traced;
  if (args_.trace) {
    run_rounds(false, budget_ms / 3, 1, &untraced);
    run_rounds(true, budget_ms * 2 / 3, 2, &traced);
  } else {
    run_rounds(false, budget_ms, args_.fingerprint_only ? 1 : 3, &untraced);
  }
  tracer_.set_enabled(false);
  // Before the reference replay below, which only some seeds need.
  const double peak_rss_mb = PeakRssMb();

  // Correctness: every round served the same transcripts, and they are
  // what the parent program served for this seed.
  out.fingerprint = hbold::HexU64(untraced.front().fingerprint);
  for (const std::vector<Round>* rounds : {&untraced, &traced}) {
    for (const Round& r : *rounds) {
      out.attempted += plans_.size();
      out.failed += r.failed_sessions;
      if (hbold::HexU64(r.fingerprint) != out.fingerprint) out.correct = false;
    }
  }
  if (args_.fingerprint_only) return out;
  const char* expected = ExpectedFingerprint("serve_sessions", args_.seed);
  std::string reference = expected != nullptr ? expected : "";
  if (reference.empty()) {
    // Another access path: a fresh service serving every plan inline on
    // this thread, in plan order.
    ExplorationService fresh(world_->fleet.get());
    fresh.RefreshSnapshots();
    reference = hbold::HexU64(ExplorationService::CombinedFingerprint(
        fresh.RunSessions(plans_, nullptr)));
    Note("no recorded fingerprint for seed " + std::to_string(args_.seed) +
         "; compared against an inline single-thread replay (" + reference +
         ")");
  }
  if (reference != out.fingerprint) {
    Note("transcript fingerprint " + out.fingerprint + " != expected " +
         reference);
    out.correct = false;
    out.failed = out.attempted;
  }

  if (!args_.trace) {
    std::vector<double> throughput, sessions, refresh;
    double sim_cost = untraced.front().endpoint.sim_latency_ms;
    for (const Round& r : untraced) {
      throughput.push_back(r.session_ms.size() / (r.serve_ms / 1000));
      sessions.insert(sessions.end(), r.session_ms.begin(), r.session_ms.end());
      refresh.push_back(r.refresh_ms);
    }
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("throughput_per_s", Median(throughput), "1/s");
    out.Add("unit_p50_ms", Percentile(sessions, 50), "ms");
    out.Add("unit_p99_ms", Percentile(sessions, 99), "ms");
    out.Add("sim_cost_ms", sim_cost, "ms");
    out.Add("snapshot_refresh_ms", Median(refresh), "ms");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    Note("rounds=" + std::to_string(untraced.size()) + " clients=" +
         std::to_string(clients_) + " session samples=" +
         std::to_string(sessions.size()) + " setup samples=" +
         std::to_string(setup_s.size()));
  } else {
    AddLayerMetrics(traced, untraced, &out);
    WriteTrace(tracer_, "serve_sessions", args_.seed);
  }
  return out;
}

void ServeRunner::AddLayerMetrics(const std::vector<Round>& traced,
                                  const std::vector<Round>& untraced,
                                  RunOutput* out) {
  const double n = static_cast<double>(traced.size());
  double total = 0, refresh = 0, sessions = 0, render = 0, query_ms = 0;
  double queries = 0;
  std::map<std::string, uint64_t> failed;
  uint64_t hits = 0, misses = 0;
  hbold::endpoint::QueryEngineStats engine;
  std::vector<double> gestures[kActionKinds];
  std::vector<double> refresh_all, traced_ms, untraced_ms;
  size_t failed_sessions = 0;
  for (const Round& r : traced) {
    total += r.refresh_ms + r.client_ms;
    refresh += r.refresh_ms;
    refresh_all.push_back(r.refresh_ms);
    for (double ms : r.session_ms) sessions += ms;
    render += r.render_ms;
    query_ms += r.endpoint.query_ms;
    queries += r.endpoint.queries;
    for (const auto& [code, k] : r.endpoint.failed) failed[code] += k;
    engine += r.engine;
    hits += r.cache.hits;
    misses += r.cache.misses;
    for (int k = 0; k < kActionKinds; ++k) {
      gestures[k].insert(gestures[k].end(), r.gesture_ms[k].begin(),
                         r.gesture_ms[k].end());
    }
    failed_sessions += r.failed_sessions;
    traced_ms.push_back(r.refresh_ms + r.serve_ms);
  }
  for (const Round& r : untraced) untraced_ms.push_back(r.refresh_ms + r.serve_ms);

  std::vector<QueryLog> logs;
  for (size_t i = 0; i < world_->timed.size(); ++i) {
    logs.push_back(QueryLog{world_->members[i].store.get(),
                            world_->timed[i]->TakeQueries()});
  }
  const SparqlReplay sq = ReplaySparql(logs);
  std::vector<VizInput> catalog;
  for (const hbold::DatasetSnapshot& ds : service_->catalog()) {
    catalog.push_back(VizInput{ds.summary.get(), ds.clusters.get(), ds.url});
  }
  const VizReplay vz = ReplayViz(catalog);
  size_t largest = 0;
  for (size_t i = 0; i < world_->members.size(); ++i) {
    if (world_->members[i].store->size() >
        world_->members[largest].store->size()) {
      largest = i;
    }
  }
  const std::string work_dir = WorkDir("serve_sessions", args_.seed);
  const RdfMicro rdf =
      MeasureRdf(*world_->members[largest].store, work_dir + "/rdf");
  std::error_code ec;
  fs::remove_all(work_dir, ec);

  // Per round; the sparql replay covers the last traced round's queries.
  LayerTimes self;
  self.sparql = sq.total_ms();
  self.endpoint = query_ms / n - sq.total_ms();
  self.viz = render / n;
  self.hbold = (refresh + sessions - render - query_ms) / n;
  AddSelfTimes(self, total / n, out);

  out->Add("sparql.tokenize_ms", sq.tokenize_ms, "ms");
  out->Add("sparql.parse_ms", sq.parse_ms, "ms");
  out->Add("sparql.plan_ms", sq.plan_ms, "ms");
  out->Add("sparql.execute_ms", sq.execute_ms, "ms");
  out->Add("sparql.replayed_queries", sq.queries, "count");
  const double plan_lookups = static_cast<double>(engine.plan_cache_hits +
                                                  engine.plan_cache_misses);
  out->Add("sparql.plan_cache_hit_ratio",
           plan_lookups > 0 ? engine.plan_cache_hits / plan_lookups : 0,
           "ratio");
  out->Add("sparql.plan_cache_lookups", plan_lookups / n, "count");
  out->Add("sparql.hash_join_builds", engine.hash_join_builds / n, "count");
  out->Add("sparql.bindings_per_row",
           sq.result_rows > 0
               ? static_cast<double>(sq.intermediate_bindings) / sq.result_rows
               : 0,
           "ratio");
  out->Add("endpoint.query_count", queries / n, "count");
  out->Add("endpoint.query_ms", query_ms / n, "ms");
  out->Add("endpoint.self_ms", self.endpoint, "ms");
  AddQueryFailures(failed, n, out);
  const double lookups = static_cast<double>(hits + misses);
  out->Add("viz.layout_cache.hit_ratio", lookups > 0 ? hits / lookups : 0,
           "ratio");
  out->Add("viz.layout_cache.lookups", lookups / n, "count");
  out->Add("viz.layout_set_ms", vz.layout_set_ms, "ms");
  out->Add("viz.treemap_ms", vz.treemap_ms, "ms");
  out->Add("viz.sunburst_ms", vz.sunburst_ms, "ms");
  out->Add("viz.circle_pack_ms", vz.circle_pack_ms, "ms");
  out->Add("viz.edge_bundling_ms", vz.edge_bundling_ms, "ms");
  out->Add("viz.svg_ms", vz.svg_ms, "ms");
  out->Add("serve.snapshot_refresh_ms", Median(refresh_all), "ms");
  size_t gesture_count = 0;
  for (int k = 0; k < kActionKinds; ++k) {
    const std::string name = std::string("serve.") +
                             hbold::workload::SessionActionKindName(
                                 static_cast<SessionActionKind>(k)) +
                             "_ms";
    out->Add(name + ".p50", Percentile(gestures[k], 50), "ms");
    out->Add(name + ".p99", Percentile(gestures[k], 99), "ms");
    gesture_count += gestures[k].size();
  }
  out->Add("serve.gestures", gesture_count / n, "count");
  out->Add("rdf.external_sort_mb_per_s", rdf.external_sort_mb_per_s, "MB/s");
  out->Add("rdf.span_ns.ram", rdf.span_ns_ram, "ns");
  out->Add("rdf.span_ns.mmap", rdf.span_ns_mmap, "ns");
  out->Add("failed_frac",
           failed_sessions / std::max(1.0, n * static_cast<double>(plans_.size())),
           "fraction");
  AddTraceOverhead(traced_ms, untraced_ms, tracer_.size(), out);
  Note("traced rounds=" + std::to_string(traced.size()) + " untraced=" +
       std::to_string(untraced.size()) + " clients=" +
       std::to_string(clients_) + " replay errors sparql=" +
       std::to_string(sq.errors));
}

}  // namespace

RunOutput RunServeSessions(const Args& args) {
  return ServeRunner(args).Run();
}

}  // namespace perfbench
