#ifndef HBOLD_PERFBENCH_PERFBENCH_H_
#define HBOLD_PERFBENCH_PERFBENCH_H_

// Shared pieces of the repository benchmark: the run arguments and result,
// the span recorder behind the traced run, and the timing SparqlEndpoint
// decorator through which every workload reaches its endpoints.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "endpoint/endpoint.h"

namespace perfbench {

// ------------------------------------------------------------ run shape

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Runs set-up and one iteration only and prints the correctness
  /// fingerprint (how expected_fingerprints.h is produced).
  bool fingerprint_only = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the correctness verdict, the attempt
/// accounting, and the metrics of the requested kind.
struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// What `attempted` counts ("endpoint attempts", "sessions").
  std::string attempt_base;
  std::vector<Metric> metrics;
  /// The correctness fingerprint of the first timed iteration.
  std::string fingerprint;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

RunOutput RunExtractFull(const Args& args);
RunOutput RunDeltaChurnOoc(const Args& args);
RunOutput RunServeSessions(const Args& args);

/// Fingerprint the parent program gives for (workload, seed), or nullptr
/// when the table has no entry for that seed.
const char* ExpectedFingerprint(const std::string& workload, uint64_t seed);

// ---------------------------------------------------------------- time

using SteadyClock = std::chrono::steady_clock;

/// Microseconds since the first call (the trace's time origin).
double NowUs();

inline double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

double Median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);
/// The VmHWM line of /proc/self/status, in MB (0 when unreadable).
double PeakRssMb();

// --------------------------------------------------------------- spans

/// One recorded span: a call into a layer's public function, made from the
/// benchmark's own code (or a stage time a layer reported, marked
/// `synthesized`).
struct Span {
  std::string name;
  std::string layer;
  double start_us = 0;
  double dur_us = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int tid = 0;
  bool synthesized = false;
};

/// In-memory span store, written out as Chrome trace-event JSON at exit.
/// Thread-safe; the parent of a span opened with Begin() is the innermost
/// span the same thread has open.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  /// Not thread-safe: switch only while no span is being opened.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span on this thread; returns its id (0 when disabled).
  int64_t Begin(const std::string& layer, const std::string& name);
  /// Closes the innermost span of this thread (must be `id`).
  void End(int64_t id);
  /// Records a finished span with an explicit parent (stage times the
  /// program reported, spans reconstructed from call boundaries).
  int64_t Record(const std::string& layer, const std::string& name,
                 double start_us, double dur_us, int64_t parent,
                 bool synthesized);
  /// Intervals that adopt spans: sorted (start_us, span id) pairs; each
  /// interval runs to the next start (the last one is open).
  using Adopters = std::vector<std::pair<double, int64_t>>;
  /// For every (parent, adopters) entry, moves each child of `parent` that
  /// starts inside an adopter's interval under that adopter.
  void ReparentByStart(const std::map<int64_t, Adopters>& moves);

  size_t size() const;
  /// Writes the first `max_spans` spans as Chrome trace-event JSON ("X"
  /// events; the causing span's id is in args.parent).
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  struct Open {
    int64_t id;
    double start_us;
    size_t index;
  };

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
  std::map<std::thread::id, std::vector<Open>> open_;
  std::map<std::thread::id, int> tids_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& layer,
             const std::string& name)
      : tracer_(tracer),
        id_(tracer->enabled() ? tracer->Begin(layer, name) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ----------------------------------------------------- endpoint decorator

/// Totals one TimedEndpoint accumulated (always on; spans only when the
/// tracer is enabled).
struct EndpointTotals {
  uint64_t queries = 0;
  uint64_t probes = 0;
  double query_ms = 0;
  double probe_ms = 0;
  double advance_day_ms = 0;
  /// Simulated latency the endpoint charged for successful queries and
  /// probes.
  double sim_latency_ms = 0;
  /// Failed queries and probes by StatusCodeName.
  std::map<std::string, uint64_t> failed;

  EndpointTotals& operator+=(const EndpointTotals& o);
  EndpointTotals operator-(const EndpointTotals& o) const;
};

/// A SparqlEndpoint decorator attached in place of a workload endpoint:
/// forwards every call to `inner`, times it, and records it as an
/// `endpoint` span. The first call of each cycle marks where that
/// endpoint's pipeline began (pipelines run inline, in order), which is
/// how per-pipeline wall times are taken from outside the program.
class TimedEndpoint : public hbold::endpoint::SparqlEndpoint {
 public:
  TimedEndpoint(hbold::endpoint::SparqlEndpoint* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  hbold::Result<hbold::endpoint::QueryOutcome> Query(
      const std::string& query_text) override;
  hbold::Result<hbold::endpoint::ChangeProbe> ProbeChanges() override;
  void AdvanceDataDay(int64_t day) override;

  const std::string& url() const override { return inner_->url(); }
  const std::string& name() const override { return inner_->name(); }
  size_t queries_served() const override { return inner_->queries_served(); }
  hbold::endpoint::QueryEngineStats engine_stats() const override {
    return inner_->engine_stats();
  }

  /// Keeps the texts of successful queries for the sparql replay.
  void set_record_queries(bool on) { record_queries_ = on; }
  std::vector<std::string> TakeQueries();

  EndpointTotals Totals() const;
  /// Steady-clock microseconds of the first Query/ProbeChanges call since
  /// the last ResetFirstCall(), or a negative value when none happened.
  double first_call_us() const { return first_call_us_.load(); }
  /// When the latest Query/ProbeChanges call returned.
  double last_call_end_us() const { return last_call_end_us_.load(); }
  void ResetFirstCall() { first_call_us_.store(-1); }

 private:
  void MarkCall(double now_us);

  hbold::endpoint::SparqlEndpoint* inner_;
  Tracer* tracer_;
  bool record_queries_ = false;
  std::atomic<double> first_call_us_{-1};
  std::atomic<double> last_call_end_us_{-1};
  mutable std::mutex mu_;
  EndpointTotals totals_;
  std::vector<std::string> queries_;
};

}  // namespace perfbench

#endif  // HBOLD_PERFBENCH_PERFBENCH_H_
