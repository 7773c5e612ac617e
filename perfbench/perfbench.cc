#include "perfbench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"
#include "common/status.h"

namespace perfbench {

double NowUs() {
  static const SteadyClock::time_point origin = SteadyClock::now();
  return std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                   origin)
      .count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  return 0;
}

// ---------------------------------------------------------------- Tracer

int64_t Tracer::Begin(const std::string& layer, const std::string& name) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Open>& stack = open_[std::this_thread::get_id()];
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_us = now;
  span.id = next_id_++;
  span.parent = stack.empty() ? 0 : stack.back().id;
  span.tid = tids_.emplace(std::this_thread::get_id(),
                           static_cast<int>(tids_.size()) + 1)
                 .first->second;
  stack.push_back(Open{span.id, now, spans_.size()});
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Open>& stack = open_[std::this_thread::get_id()];
  if (stack.empty() || stack.back().id != id) return;
  spans_[stack.back().index].dur_us = now - stack.back().start_us;
  stack.pop_back();
}

int64_t Tracer::Record(const std::string& layer, const std::string& name,
                       double start_us, double dur_us, int64_t parent,
                       bool synthesized) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_us = start_us;
  span.dur_us = dur_us;
  span.id = next_id_++;
  span.parent = parent;
  span.tid = 1;
  span.synthesized = synthesized;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::ReparentByStart(const std::map<int64_t, Adopters>& moves) {
  if (moves.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (Span& span : spans_) {
    auto found = moves.find(span.parent);
    if (found == moves.end()) continue;
    const Adopters& starts = found->second;
    auto it = std::upper_bound(
        starts.begin(), starts.end(), span.start_us,
        [](double t, const std::pair<double, int64_t>& s) {
          return t < s.first;
        });
    if (it == starts.begin()) continue;
    const int64_t target = std::prev(it)->second;
    if (target != span.id) span.parent = target;
  }
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              size_t max_spans) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    hbold::Json args = hbold::Json::MakeObject();
    args.Set("id", s.id);
    args.Set("parent", s.parent);
    if (s.synthesized) args.Set("synthesized", true);
    hbold::Json event = hbold::Json::MakeObject();
    event.Set("name", s.name);
    event.Set("cat", s.layer);
    event.Set("ph", "X");
    event.Set("ts", s.start_us);
    event.Set("dur", s.dur_us);
    event.Set("pid", 1);
    event.Set("tid", s.tid);
    event.Set("args", std::move(args));
    out << event.Dump() << (i + 1 < n ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --------------------------------------------------------- TimedEndpoint

EndpointTotals& EndpointTotals::operator+=(const EndpointTotals& o) {
  queries += o.queries;
  probes += o.probes;
  query_ms += o.query_ms;
  probe_ms += o.probe_ms;
  advance_day_ms += o.advance_day_ms;
  sim_latency_ms += o.sim_latency_ms;
  for (const auto& [code, n] : o.failed) failed[code] += n;
  return *this;
}

EndpointTotals EndpointTotals::operator-(const EndpointTotals& o) const {
  EndpointTotals d = *this;
  d.queries -= o.queries;
  d.probes -= o.probes;
  d.query_ms -= o.query_ms;
  d.probe_ms -= o.probe_ms;
  d.advance_day_ms -= o.advance_day_ms;
  d.sim_latency_ms -= o.sim_latency_ms;
  for (const auto& [code, n] : o.failed) d.failed[code] -= n;
  return d;
}

void TimedEndpoint::MarkCall(double now_us) {
  double expected = -1;
  first_call_us_.compare_exchange_strong(expected, now_us);
}

hbold::Result<hbold::endpoint::QueryOutcome> TimedEndpoint::Query(
    const std::string& query_text) {
  const double start = NowUs();
  MarkCall(start);
  ScopedSpan span(tracer_, "endpoint", "endpoint.Query");
  hbold::Result<hbold::endpoint::QueryOutcome> outcome =
      inner_->Query(query_text);
  const double end = NowUs();
  last_call_end_us_.store(end);
  const double ms = (end - start) / 1000.0;
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.queries;
  totals_.query_ms += ms;
  if (outcome.ok()) {
    totals_.sim_latency_ms += outcome->latency_ms;
    if (record_queries_) queries_.push_back(query_text);
  } else {
    ++totals_.failed[hbold::StatusCodeName(outcome.status().code())];
  }
  return outcome;
}

hbold::Result<hbold::endpoint::ChangeProbe> TimedEndpoint::ProbeChanges() {
  const double start = NowUs();
  MarkCall(start);
  ScopedSpan span(tracer_, "endpoint", "endpoint.ProbeChanges");
  hbold::Result<hbold::endpoint::ChangeProbe> probe = inner_->ProbeChanges();
  const double end = NowUs();
  last_call_end_us_.store(end);
  const double ms = (end - start) / 1000.0;
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.probes;
  totals_.probe_ms += ms;
  if (probe.ok()) {
    totals_.sim_latency_ms += probe->latency_ms;
  } else {
    ++totals_.failed[hbold::StatusCodeName(probe.status().code())];
  }
  return probe;
}

void TimedEndpoint::AdvanceDataDay(int64_t day) {
  const double start = NowUs();
  {
    ScopedSpan span(tracer_, "endpoint", "endpoint.AdvanceDataDay");
    inner_->AdvanceDataDay(day);
  }
  const double ms = (NowUs() - start) / 1000.0;
  std::lock_guard<std::mutex> lock(mu_);
  totals_.advance_day_ms += ms;
}

std::vector<std::string> TimedEndpoint::TakeQueries() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> taken = std::move(queries_);
  queries_.clear();
  return taken;
}

EndpointTotals TimedEndpoint::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

}  // namespace perfbench
