#ifndef HBOLD_PERFBENCH_WORKLOADS_H_
#define HBOLD_PERFBENCH_WORKLOADS_H_

// Reporting helpers the workload runners share.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

/// No run keeps iterating past this much wall time, however slow the
/// machine: a run must end within 180 s.
inline constexpr double kWallCapMs = 90'000;

/// Scratch directory of one run, inside the working directory.
std::string WorkDir(const std::string& workload, uint64_t seed);

/// Prints one diagnostic line to stdout (never the last line).
void Note(const std::string& line);

/// Writes the tracer's spans to `.bench_trace/<workload>-<seed>.json`.
void WriteTrace(const Tracer& tracer, const std::string& workload,
                uint64_t seed);

/// Self time of each module for one iteration of a workload, in ms.
struct LayerTimes {
  double sparql = 0;
  double endpoint = 0;
  double extraction = 0;
  double schema = 0;
  double cluster = 0;
  double store = 0;
  double rdf = 0;
  double viz = 0;
  double hbold = 0;
  double sim = 0;

  double Sum() const {
    return sparql + endpoint + extraction + schema + cluster + store + rdf +
           viz + hbold + sim;
  }
};

/// Adds `self.<layer>_ms` for every module, `total_ms` and
/// `unattributed_ms` (total minus every self time), so the stage times
/// add up to the workload total by construction.
void AddSelfTimes(const LayerTimes& self, double total_ms, RunOutput* out);

/// Adds `endpoint.query_failed.<code>` for the status codes a workload can
/// meet (per iteration: counts divided by `iterations`).
void AddQueryFailures(const std::map<std::string, uint64_t>& failed,
                      double iterations, RunOutput* out);

/// Adds `trace.overhead_pct` (median traced iteration over median untraced
/// iteration, minus one) and `trace.spans`.
void AddTraceOverhead(const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms, size_t spans,
                      RunOutput* out);

}  // namespace perfbench

#endif  // HBOLD_PERFBENCH_WORKLOADS_H_
