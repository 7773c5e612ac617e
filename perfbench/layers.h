#ifndef HBOLD_PERFBENCH_LAYERS_H_
#define HBOLD_PERFBENCH_LAYERS_H_

// Per-layer replays for the traced run: each one feeds a workload's own
// inputs back through one layer's public functions and times them, so the
// layer gets a figure of its own without spans inside the program.

#include <cstdint>
#include <string>
#include <vector>

#include "endpoint/simulated_endpoint.h"
#include "rdf/graph.h"
#include "schema/schema_summary.h"
#include "cluster/cluster_schema.h"

namespace perfbench {

/// The successful query texts one endpoint answered, with its store.
struct QueryLog {
  const hbold::rdf::TripleStore* store = nullptr;
  std::vector<std::string> texts;
};

struct SparqlReplay {
  uint64_t queries = 0;
  double tokenize_ms = 0;
  /// ParseQuery time minus the Tokenize time it contains.
  double parse_ms = 0;
  double plan_ms = 0;
  /// Executor::Execute on the parsed query with its plan already cached.
  double execute_ms = 0;
  uint64_t intermediate_bindings = 0;
  uint64_t result_rows = 0;
  /// Queries the replay could not parse or execute (0 when the replay
  /// agrees with the run, where these same texts succeeded).
  uint64_t errors = 0;

  double total_ms() const {
    return tokenize_ms + parse_ms + plan_ms + execute_ms;
  }
};

/// Replays every text through Tokenize, ParseQuery, PlanQuery and
/// Executor::Execute against the store that answered it.
SparqlReplay ReplaySparql(const std::vector<QueryLog>& logs);

/// One endpoint of a fleet as the extraction replay needs it.
struct ReplayEndpoint {
  std::string url;
  hbold::rdf::TripleStore* store = nullptr;
  hbold::endpoint::Dialect dialect;
};

struct ExtractionReplay {
  uint64_t endpoints = 0;
  uint64_t errors = 0;
  double extract_ms = 0;
  double summary_ms = 0;
  /// BuildClassGraph + Louvain.
  double louvain_ms = 0;
  uint64_t queries = 0;
  uint64_t fallbacks = 0;
};

/// Cold IndexExtractor::Extract over a fresh simulated endpoint per store,
/// then SchemaSummary::FromIndexes, BuildClassGraph and Louvain on its
/// output.
ExtractionReplay ReplayExtraction(const std::vector<ReplayEndpoint>& eps);

struct RdfMicro {
  double external_sort_mb_per_s = 0;
  double span_ns_ram = 0;
  double span_ns_mmap = 0;
};

/// ExternalSortToRun throughput over `store`'s content, and the cost of one
/// TripleStore::Span lookup on a RAM and an mmap copy of that content.
/// Scratch files go under `scratch_dir`.
RdfMicro MeasureRdf(const hbold::rdf::TripleStore& store,
                    const std::string& scratch_dir);

/// One dataset of a serving catalog.
struct VizInput {
  const hbold::schema::SchemaSummary* summary = nullptr;
  const hbold::cluster::ClusterSchema* clusters = nullptr;
  std::string name;
};

struct VizReplay {
  double layout_set_ms = 0;
  double treemap_ms = 0;
  double sunburst_ms = 0;
  double circle_pack_ms = 0;
  double edge_bundling_ms = 0;
  double svg_ms = 0;
};

/// ComputeLayoutSet over the catalog, then the same work split into
/// TreemapLayout, SunburstLayout, CirclePackLayout, BundleSchemaSummary and
/// the four Render* calls.
VizReplay ReplayViz(const std::vector<VizInput>& catalog);

/// Dispatch cost of `events` no-op events on a fresh sim::EventLoop.
double ReplaySimEvents(size_t events);

}  // namespace perfbench

#endif  // HBOLD_PERFBENCH_LAYERS_H_
