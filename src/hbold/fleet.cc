#include "hbold/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace hbold {

namespace {

/// Stable (seed, url, day) coin in [0, 1): top 53 bits of an FNV-1a hash
/// over a canonical key string. Identical on every platform and in every
/// deployment shape, which is what keeps the death calendar — and with it
/// the whole simulated history — shard-invariant.
double ChurnCoin(uint64_t seed, const std::string& url, int64_t day) {
  std::string key = url;
  key += '|';
  key += std::to_string(day);
  key += '|';
  key += std::to_string(seed);
  return static_cast<double>(Fnv64(key) >> 11) /
         9007199254740992.0;  // 2^53
}

std::string HexFingerprint(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------- churn

void ChurnModel::ScheduleArrival(int64_t day, endpoint::EndpointRecord record,
                                 endpoint::SparqlEndpoint* ep) {
  ChurnArrival arrival;
  arrival.day = day;
  arrival.record = std::move(record);
  arrival.endpoint = ep;
  // Keep the schedule sorted by day with ties in insertion order, so
  // arrivals apply in a deterministic sequence.
  auto it = std::upper_bound(
      arrivals_.begin(), arrivals_.end(), day,
      [](int64_t d, const ChurnArrival& a) { return d < a.day; });
  arrivals_.insert(it, std::move(arrival));
}

int64_t ChurnModel::ArrivalDayFor(const std::string& url, int64_t first_day,
                                  int64_t span) const {
  if (span <= 1) return first_day;
  return first_day +
         static_cast<int64_t>(Fnv64(url + "|arrival|" +
                                    std::to_string(options_.seed)) %
                              static_cast<uint64_t>(span));
}

bool ChurnModel::DiesOn(const std::string& url, int64_t day) const {
  if (options_.death_probability <= 0) return false;
  return ChurnCoin(options_.seed, url, day) < options_.death_probability;
}

std::vector<ChurnArrival> ChurnModel::TakeArrivalsThrough(int64_t day) {
  auto it = std::upper_bound(
      arrivals_.begin(), arrivals_.end(), day,
      [](int64_t d, const ChurnArrival& a) { return d < a.day; });
  std::vector<ChurnArrival> taken(std::make_move_iterator(arrivals_.begin()),
                                  std::make_move_iterator(it));
  arrivals_.erase(arrivals_.begin(), it);
  return taken;
}

// ------------------------------------------------------- adaptive width

AdaptiveWidthController::AdaptiveWidthController(
    const AdaptiveWidthOptions& options, int initial_width)
    : options_(options),
      initial_width_(std::clamp(initial_width, std::max(1, options.min_width),
                                std::max(1, options.max_width))) {}

int AdaptiveWidthController::WidthFor(const std::string& url) const {
  auto it = state_.find(url);
  return it != state_.end() ? it->second.width : initial_width_;
}

int AdaptiveWidthController::Observe(const std::string& url,
                                     bool attempt_failed,
                                     size_t throttle_events) {
  State& s = state_.try_emplace(url, State{initial_width_, 0}).first->second;
  if (attempt_failed || throttle_events > 0) {
    // Back off multiplicatively: the endpoint pushed back (Timeout
    // fallback) or the whole attempt failed — halve the concurrent
    // pressure we put on it tomorrow.
    s.width = std::max(std::max(1, options_.min_width), s.width / 2);
    s.clean_streak = 0;
  } else {
    ++s.clean_streak;
    if (s.clean_streak >= std::max(1, options_.recovery_days) &&
        s.width < options_.max_width) {
      ++s.width;
      s.clean_streak = 0;
    }
  }
  return s.width;
}

// ----------------------------------------------------------------- fleet

Fleet::Fleet(sim::EventLoop* loop, const FleetOptions& options)
    : Fleet(nullptr, loop, options) {}

Fleet::Fleet(SimClock* clock, const FleetOptions& options)
    : Fleet(std::make_unique<sim::EventLoop>(clock), nullptr, options) {}

Fleet::Fleet(std::unique_ptr<sim::EventLoop> owned, sim::EventLoop* loop,
             const FleetOptions& options)
    : owned_loop_(std::move(owned)),
      loop_(loop != nullptr ? loop : owned_loop_.get()),
      options_(options),
      churn_(options.churn),
      widths_(options.adaptive_width,
              std::max(1, options.server.query_batch_width)),
      cycle_process_(loop_, sim::EventKind::kCycleStart, "fleet-cycle") {
  options_.num_shards = std::max(1, options_.num_shards);
  options_.virtual_workers = std::max(1, options_.virtual_workers);
  if (options_.fleet_workers == 0) {
    options_.fleet_workers =
        static_cast<size_t>(options_.num_shards) *
        static_cast<size_t>(std::max(1, options_.server.parallelism));
  }
  dbs_.reserve(options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    dbs_.push_back(std::make_unique<store::Database>());
    shards_.push_back(std::make_unique<Server>(
        dbs_.back().get(), loop_->clock(), options_.server));
  }
  if (options_.fleet_workers > 1) pool_.emplace(options_.fleet_workers);
}

size_t Fleet::ShardOf(const std::string& url) const {
  return static_cast<size_t>(Fnv64(url) %
                             static_cast<uint64_t>(shards_.size()));
}

bool Fleet::RegisterEndpoint(endpoint::EndpointRecord record) {
  std::string url = record.url;
  if (!shards_[ShardOf(url)]->RegisterEndpoint(std::move(record))) {
    return false;
  }
  registration_order_.push_back(std::move(url));
  return true;
}

void Fleet::AttachEndpoint(const std::string& url,
                           endpoint::SparqlEndpoint* ep) {
  attached_[url] = ep;
  shards_[ShardOf(url)]->AttachEndpoint(url, ep);
}

void Fleet::DetachEndpoint(const std::string& url) {
  attached_.erase(url);
  shards_[ShardOf(url)]->DetachEndpoint(url);
}

endpoint::SparqlEndpoint* Fleet::EndpointFor(const std::string& url) const {
  auto it = attached_.find(url);
  return it == attached_.end() ? nullptr : it->second;
}

void Fleet::ApplyChurn(int64_t day, FleetDayReport* day_report) {
  for (ChurnArrival& arrival : churn_.TakeArrivalsThrough(day)) {
    std::string url = arrival.record.url;
    arrival.record.added_day = day;
    // The §3.1 contract for mid-simulation newcomers: schedulable from
    // the NEXT day, so every deployment shape sees the same due lists.
    arrival.record.first_eligible_day = day + 1;
    if (RegisterEndpoint(std::move(arrival.record))) {
      if (arrival.endpoint != nullptr) AttachEndpoint(url, arrival.endpoint);
      ++day_report->arrivals;
      loop_->Note(sim::EventKind::kChurn, "arrival|" + url);
      HBOLD_LOG(kDebug) << "fleet churn: " << url << " arrived on day "
                        << day;
    } else if (arrival.endpoint != nullptr && attached_.count(url) == 0) {
      // Known URL coming back online (e.g. a portal that died earlier in
      // the simulation): the registry record persists by design, so
      // restore the route and count the recovery as an arrival.
      AttachEndpoint(url, arrival.endpoint);
      ++day_report->arrivals;
      loop_->Note(sim::EventKind::kChurn, "recover|" + url);
      HBOLD_LOG(kDebug) << "fleet churn: " << url << " recovered on day "
                        << day;
    } else {
      HBOLD_LOG(kDebug) << "fleet churn: arrival for " << url << " on day "
                        << day << " ignored (already registered"
                        << (attached_.count(url) > 0 ? " and attached)"
                                                     : ", no endpoint)");
    }
  }
  if (options_.churn.death_probability > 0) {
    std::vector<std::string> victims;
    for (const auto& [url, ep] : attached_) {
      if (churn_.DiesOn(url, day)) victims.push_back(url);
    }
    for (const std::string& url : victims) {
      DetachEndpoint(url);
      ++day_report->deaths;
      loop_->Note(sim::EventKind::kChurn, "death|" + url);
      HBOLD_LOG(kDebug) << "fleet churn: " << url << " died on day " << day;
    }
  }
}

void Fleet::PushAdaptiveWidths() {
  for (const std::string& url : registration_order_) {
    shards_[ShardOf(url)]->SetQueryBatchWidthOverride(url,
                                                      widths_.WidthFor(url));
  }
}

void Fleet::ObserveOutcomes(const FleetDayReport& day_report) {
  std::unordered_map<std::string, size_t> throttle_by_url;
  for (const PipelineReport& r : day_report.reports) {
    throttle_by_url[r.url] = r.extraction.throttle_events;
  }
  for (const DueOutcome& o : day_report.outcomes) {
    auto it = throttle_by_url.find(o.url);
    widths_.Observe(o.url, !o.succeeded,
                    it != throttle_by_url.end() ? it->second : 0);
  }
}

void Fleet::MergeShardReports(std::vector<DailyReport> shard_reports,
                              FleetDayReport* day_report) const {
  // Per-shard lookup tables: due-entry index and pipeline-report index by
  // URL. Each URL lives in exactly one shard, so the merged walk over the
  // global registration order visits every due entry exactly once — in
  // the order a 1-shard registry would have produced.
  std::vector<std::unordered_map<std::string, size_t>> outcome_idx(
      shard_reports.size());
  std::vector<std::unordered_map<std::string, size_t>> report_idx(
      shard_reports.size());
  for (size_t s = 0; s < shard_reports.size(); ++s) {
    for (size_t i = 0; i < shard_reports[s].outcomes.size(); ++i) {
      outcome_idx[s].emplace(shard_reports[s].outcomes[i].url, i);
    }
    for (size_t i = 0; i < shard_reports[s].reports.size(); ++i) {
      report_idx[s].emplace(shard_reports[s].reports[i].url, i);
    }
  }

  for (const std::string& url : registration_order_) {
    const size_t s = ShardOf(url);
    auto oit = outcome_idx[s].find(url);
    if (oit == outcome_idx[s].end()) continue;  // not due today
    const DueOutcome& outcome = shard_reports[s].outcomes[oit->second];
    // Canonical cost fold: strictly in global registration order, never
    // via the per-shard ledger sums (whose float addition order depends
    // on the deployment).
    day_report->sum_latency_ms += outcome.charged_latency_ms;
    day_report->outcomes.push_back(outcome);
    auto rit = report_idx[s].find(url);
    if (rit != report_idx[s].end()) {
      day_report->reports.push_back(
          std::move(shard_reports[s].reports[rit->second]));
    }
  }

  for (DailyReport& shard : shard_reports) {
    *day_report += shard;
    day_report->fleet_makespan_ms =
        std::max(day_report->fleet_makespan_ms, shard.batched_makespan_ms);
    // The pipeline reports were moved into the merged list above; drop
    // the gutted shells rather than publish moved-from objects. The
    // per-shard view keeps its counters, outcomes, and makespans.
    shard.reports.clear();
  }
  day_report->shard_reports = std::move(shard_reports);
}

// ------------------------------------------------- the event-loop chain

void Fleet::ScheduleCycles(int64_t count) {
  if (count <= 0) return;
  const bool chain_idle = cycles_remaining_ == 0;
  cycles_remaining_ += count;
  if (chain_idle) ScheduleCycleAt(loop_->NowMs());
}

void Fleet::ScheduleCycleAt(int64_t start_ms) {
  const int64_t day = start_ms / SimClock::kMillisPerDay;
  // A cycle landing on a day boundary crosses it with an explicit
  // kDayBoundary event — boundaries are scheduled occurrences on the
  // timeline, not clock arithmetic. Catch-up cycles start mid-day and
  // cross no boundary.
  if (start_ms % SimClock::kMillisPerDay == 0 &&
      start_ms > last_boundary_ms_) {
    last_boundary_ms_ = start_ms;
    loop_->ScheduleAt(start_ms, sim::EventKind::kDayBoundary,
                      "day " + std::to_string(day), nullptr);
  }
  // Churn precedes the cycle at the same instant (scheduled first, lower
  // sequence): arrivals/deaths applied for the day the cycle runs in.
  loop_->ScheduleAt(start_ms, sim::EventKind::kChurn,
                    "day " + std::to_string(day), [this] {
                      pending_day_ = FleetDayReport{};
                      pending_day_.day = loop_->NowDay();
                      ApplyChurn(pending_day_.day, &pending_day_);
                      if (options_.adaptive_width.enabled) {
                        PushAdaptiveWidths();
                      }
                    });
  cycle_process_.ActivateAt(start_ms, [this] { RunCycleBody(); });
}

void Fleet::RunCycleBody() {
  const int64_t day = loop_->NowDay();
  const int64_t start_ms = loop_->NowMs();
  FleetDayReport& day_report = pending_day_;  // primed by the kChurn event

  Stopwatch wall;
  std::vector<DailyReport> shard_reports(shards_.size());
  ThreadPool* pool = pool_ ? &*pool_ : nullptr;
  // Shard cycles are tasks on the same pool their pipelines (and their
  // pipelines' query batches) fan out over; every layer's claim loop
  // participates, so one pool serves the whole depth without deadlock
  // and total threads stay at fleet_workers. The loop itself never leaves
  // this thread — workers compute, only the dispatcher schedules.
  ThreadPool::ParallelFor(pool, shards_.size(), [&](size_t s) {
    shard_reports[s] =
        shards_[s]->RunDailyCycleOn(pool, options_.server.parallelism);
  });
  day_report.wall_ms = wall.ElapsedMillis();

  MergeShardReports(std::move(shard_reports), &day_report);
  if (options_.adaptive_width.enabled) ObserveOutcomes(day_report);

  // Price the simulated timeline with the canonical ledger: merged
  // charged latencies, global registration order, virtual_workers wide.
  // Every figure feeding it is deployment-invariant, so the resulting
  // event times (and overrun decisions) are too.
  std::unordered_map<std::string, size_t> throttle_by_url;
  for (const PipelineReport& r : day_report.reports) {
    throttle_by_url[r.url] = r.extraction.throttle_events;
  }
  WorkerLatencyLedger ledger(
      static_cast<size_t>(std::max(1, options_.virtual_workers)));
  for (const DueOutcome& o : day_report.outcomes) {
    const size_t worker = ledger.Assign(o.charged_latency_ms);
    const int64_t finish_ms =
        start_ms + static_cast<int64_t>(std::ceil(ledger.WorkerMs(worker)));
    loop_->ScheduleAt(finish_ms, sim::EventKind::kPipelineComplete,
                      o.url + (o.succeeded ? "" : "|failed"), nullptr);
    auto it = throttle_by_url.find(o.url);
    if (it != throttle_by_url.end() && it->second > 0) {
      loop_->ScheduleAt(finish_ms, sim::EventKind::kThrottle,
                        o.url + "|x" + std::to_string(it->second), nullptr);
    }
  }
  day_report.sim_makespan_ms = ledger.MakespanMs();
  const int64_t complete_ms =
      start_ms + static_cast<int64_t>(std::ceil(day_report.sim_makespan_ms));
  loop_->ScheduleAt(complete_ms, sim::EventKind::kCycleComplete,
                    "day " + std::to_string(day),
                    [this, day] { CompleteCycle(day); });
}

void Fleet::CompleteCycle(int64_t day) {
  FleetDayReport report = std::move(pending_day_);
  pending_day_ = FleetDayReport{};
  const int64_t boundary = (day + 1) * SimClock::kMillisPerDay;
  const int64_t now = loop_->NowMs();
  if (now >= boundary) {
    report.overran_day = true;
    HBOLD_LOG(kWarn) << "fleet day " << day << " overran its boundary ("
                     << report.sim_makespan_ms
                     << " ms canonical makespan); scheduling a catch-up "
                        "cycle";
  }
  collected_days_.push_back(std::move(report));
  const FleetDayReport& done = collected_days_.back();
  if (cycle_complete_handler_) cycle_complete_handler_(done);
  --cycles_remaining_;
  if (cycles_remaining_ > 0) {
    // Overrun -> catch-up: the next cycle starts immediately instead of
    // waiting for a boundary that already passed.
    ScheduleCycleAt(done.overran_day ? now : boundary);
  } else if (!done.overran_day && boundary > last_boundary_ms_) {
    // No further cycles: cross into the next day so the clock contract
    // ("a drained day ends at the next boundary") still holds.
    last_boundary_ms_ = boundary;
    loop_->ScheduleAt(boundary, sim::EventKind::kDayBoundary,
                      "day " + std::to_string(day + 1), nullptr);
  }
}

FleetReport Fleet::TakeReport() {
  FleetReport report;
  report.num_shards = options_.num_shards;
  report.parallelism = std::max(1, options_.server.parallelism);
  report.query_batch_width = std::max(1, options_.server.query_batch_width);
  report.adaptive_width = options_.adaptive_width.enabled;
  report.days = std::move(collected_days_);
  collected_days_.clear();
  return report;
}

FleetDayReport Fleet::RunDay() {
  ScheduleCycles(1);
  loop_->RunUntilIdle();
  FleetDayReport report = std::move(collected_days_.back());
  collected_days_.pop_back();
  return report;
}

FleetReport Fleet::RunSimulation(int64_t days) {
  collected_days_.clear();
  ScheduleCycles(days);
  loop_->RunUntilIdle();
  return TakeReport();
}

// ---------------------------------------------------------------- report

namespace {

/// The deployment-invariant slice of one pipeline report. Incremental
/// markers are emitted only when a probe actually ran, so kOff dumps stay
/// byte-identical to pre-incremental builds (the committed baseline gates
/// on the exact fingerprint).
Json CanonicalPipelineJson(const PipelineReport& r) {
  Json j = Json::MakeObject();
  j.Set("url", r.url);
  j.Set("classes", static_cast<int64_t>(r.classes));
  j.Set("arcs", static_cast<int64_t>(r.arcs));
  j.Set("clusters", static_cast<int64_t>(r.clusters));
  j.Set("reused", r.reused_cluster_schema);
  j.Set("strategy", r.extraction.strategy_used);
  j.Set("queries", static_cast<int64_t>(r.extraction.queries_issued));
  j.Set("rows", static_cast<int64_t>(r.extraction.rows_transferred));
  j.Set("latency_ms", r.extraction.total_latency_ms);
  j.Set("throttle_events",
        static_cast<int64_t>(r.extraction.throttle_events));
  Json fallbacks = Json::MakeArray();
  for (const std::string& f : r.extraction.fallbacks) fallbacks.Append(f);
  j.Set("fallbacks", std::move(fallbacks));
  if (r.probed) {
    j.Set("probed", true);
    j.Set("probe_skipped", r.probe_skipped);
    j.Set("delta", r.delta_extracted);
    j.Set("dirty", static_cast<int64_t>(r.dirty_classes));
    j.Set("removed", static_cast<int64_t>(r.removed_classes));
  }
  // Defense markers are emitted only when they fired, so honest-fleet
  // dumps (and their committed fingerprints) are byte-identical to
  // pre-hardening builds.
  if (r.probe_mismatch) j.Set("probe_mismatch", true);
  if (r.forced_refresh) j.Set("forced_refresh", true);
  if (r.quarantined) j.Set("quarantined", true);
  if (r.quarantine_entered) j.Set("quarantine_entered", true);
  if (r.quarantine_exited) j.Set("quarantine_exited", true);
  if (r.probe_retries > 0) {
    j.Set("probe_retries", static_cast<int64_t>(r.probe_retries));
  }
  if (r.staleness_days > 0) j.Set("staleness_days", r.staleness_days);
  return j;
}

/// The content slice of one pipeline report: what was learned, not how.
Json ContentPipelineJson(const PipelineReport& r) {
  Json j = Json::MakeObject();
  j.Set("url", r.url);
  j.Set("classes", static_cast<int64_t>(r.classes));
  j.Set("arcs", static_cast<int64_t>(r.arcs));
  j.Set("clusters", static_cast<int64_t>(r.clusters));
  j.Set("reused", r.reused_cluster_schema);
  return j;
}

}  // namespace

std::string FleetReport::CanonicalDump() const {
  Json root = Json::MakeObject();
  Json day_array = Json::MakeArray();
  for (const FleetDayReport& day : days) {
    Json d = Json::MakeObject();
    d.Set("day", day.day);
    // Incremental and defense counters appear only once they moved, so
    // kOff and honest-fleet dumps keep their committed fingerprints.
    day.WriteTo(&d, /*canonical=*/true);
    d.Set("arrivals", static_cast<int64_t>(day.arrivals));
    d.Set("deaths", static_cast<int64_t>(day.deaths));
    d.Set("sum_latency_ms", day.sum_latency_ms);
    Json outcomes = Json::MakeArray();
    for (const DueOutcome& o : day.outcomes) {
      Json oj = Json::MakeObject();
      oj.Set("url", o.url);
      oj.Set("ok", o.succeeded);
      // charged_intra_ms is deliberately absent: it is a function of the
      // (possibly adaptive) batch width, a deployment knob.
      oj.Set("latency_ms", o.charged_latency_ms);
      outcomes.Append(std::move(oj));
    }
    d.Set("outcomes", std::move(outcomes));
    Json reports = Json::MakeArray();
    for (const PipelineReport& r : day.reports) {
      reports.Append(CanonicalPipelineJson(r));
    }
    d.Set("reports", std::move(reports));
    day_array.Append(std::move(d));
  }
  root.Set("days", std::move(day_array));
  return root.Dump();
}

std::string FleetReport::Fingerprint() const {
  return HexFingerprint(Fnv64(CanonicalDump()));
}

std::string FleetReport::ContentDump() const {
  Json root = Json::MakeObject();
  Json day_array = Json::MakeArray();
  for (const FleetDayReport& day : days) {
    Json d = Json::MakeObject();
    d.Set("day", day.day);
    d.Set("due", static_cast<int64_t>(day.due));
    d.Set("succeeded", static_cast<int64_t>(day.succeeded));
    d.Set("failed", static_cast<int64_t>(day.failed));
    d.Set("reused", static_cast<int64_t>(day.reused));
    d.Set("arrivals", static_cast<int64_t>(day.arrivals));
    d.Set("deaths", static_cast<int64_t>(day.deaths));
    Json outcomes = Json::MakeArray();
    for (const DueOutcome& o : day.outcomes) {
      Json oj = Json::MakeObject();
      oj.Set("url", o.url);
      oj.Set("ok", o.succeeded);
      outcomes.Append(std::move(oj));
    }
    d.Set("outcomes", std::move(outcomes));
    Json reports = Json::MakeArray();
    for (const PipelineReport& r : day.reports) {
      reports.Append(ContentPipelineJson(r));
    }
    d.Set("reports", std::move(reports));
    day_array.Append(std::move(d));
  }
  root.Set("days", std::move(day_array));
  return root.Dump();
}

std::string FleetReport::ContentFingerprint() const {
  return HexFingerprint(Fnv64(ContentDump()));
}

Json FleetReport::ToJson() const {
  Json root = Json::MakeObject();
  root.Set("num_shards", static_cast<int64_t>(num_shards));
  root.Set("parallelism", static_cast<int64_t>(parallelism));
  root.Set("query_batch_width", static_cast<int64_t>(query_batch_width));
  root.Set("adaptive_width", adaptive_width);
  root.Set("fingerprint", Fingerprint());
  Json day_array = Json::MakeArray();
  for (const FleetDayReport& day : days) {
    Json d = Json::MakeObject();
    d.Set("day", day.day);
    day.WriteTo(&d, /*canonical=*/false);
    d.Set("arrivals", static_cast<int64_t>(day.arrivals));
    d.Set("deaths", static_cast<int64_t>(day.deaths));
    d.Set("sum_latency_ms", day.sum_latency_ms);
    d.Set("fleet_makespan_ms", day.fleet_makespan_ms);
    d.Set("sim_makespan_ms", day.sim_makespan_ms);
    d.Set("wall_ms", day.wall_ms);
    d.Set("overran_day", day.overran_day);
    Json shards = Json::MakeArray();
    for (const DailyReport& s : day.shard_reports) {
      Json sj = Json::MakeObject();
      sj.Set("due", static_cast<int64_t>(s.due));
      sj.Set("succeeded", static_cast<int64_t>(s.succeeded));
      sj.Set("failed", static_cast<int64_t>(s.failed));
      sj.Set("makespan_ms", s.makespan_ms);
      sj.Set("batched_makespan_ms", s.batched_makespan_ms);
      shards.Append(std::move(sj));
    }
    d.Set("shards", std::move(shards));
    day_array.Append(std::move(d));
  }
  root.Set("days", std::move(day_array));
  return root;
}

}  // namespace hbold
