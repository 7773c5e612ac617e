#include "endpoint/local_endpoint.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "common/clock.h"

namespace hbold::endpoint {

Status ApplyStoreBackendPolicy(rdf::TripleStore* store,
                               const StoreBackendPolicy& policy) {
  if (store->on_disk() || store->size() < policy.disk_threshold_triples) {
    return Status::OK();
  }
  rdf::DiskBackendOptions options;
  options.memory_budget_bytes = policy.memory_budget_bytes;
  if (!policy.directory.empty()) {
    options.directory = policy.directory;
  } else {
    namespace fs = std::filesystem;
    static std::atomic<uint64_t> counter{0};
    options.directory =
        (fs::temp_directory_path() /
         ("hbold-store-" + std::to_string(static_cast<long>(::getpid())) +
          "-" + std::to_string(counter.fetch_add(1))))
            .string();
  }
  return store->EnableDiskBackend(options);
}

Result<QueryOutcome> LocalEndpoint::Query(const std::string& query_text) {
  sparql::ExecStats stats;
  return QueryWithStats(query_text, &stats);
}

Result<QueryOutcome> LocalEndpoint::QueryWithStats(
    const std::string& query_text, sparql::ExecStats* stats) {
  HBOLD_ASSIGN_OR_RETURN(sparql::ResolvedQuery resolved, Resolve(query_text));
  return Execute(std::move(resolved), stats);
}

Result<sparql::ResolvedQuery> LocalEndpoint::Resolve(
    std::string_view query_text) {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return executor_.Resolve(query_text);
}

Result<QueryOutcome> LocalEndpoint::Execute(sparql::ResolvedQuery resolved,
                                            sparql::ExecStats* stats) {
  *stats = sparql::ExecStats{};  // per-query stats, never accumulated
  Stopwatch sw;
  HBOLD_ASSIGN_OR_RETURN(sparql::ResultTable table,
                         executor_.Execute(std::move(resolved), stats));
  if (stats->hash_join_builds > 0) {
    hash_join_builds_.fetch_add(stats->hash_join_builds,
                                std::memory_order_relaxed);
  }
  QueryOutcome outcome;
  outcome.table = std::move(table);
  outcome.latency_ms = sw.ElapsedMillis();
  return outcome;
}

}  // namespace hbold::endpoint
