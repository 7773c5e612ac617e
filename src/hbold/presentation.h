#ifndef HBOLD_HBOLD_PRESENTATION_H_
#define HBOLD_HBOLD_PRESENTATION_H_

#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_schema.h"
#include "common/result.h"
#include "endpoint/endpoint.h"
#include "schema/schema_summary.h"
#include "store/database.h"
#include "viz/force_layout.h"

namespace hbold {

/// Dataset list entry (the selection screen of the presentation layer).
struct DatasetInfo {
  std::string url;
  size_t classes = 0;
  size_t total_instances = 0;
  int64_t extracted_day = -1;
};

/// Point-in-time view of the presentation collections. Capture() takes the
/// summary and cluster documents via Collection::Snapshot(), which shares
/// the stored immutable documents instead of copying them; every read on
/// the object is then lock-free and sees one consistent store state, no
/// matter how many daily-cycle writes land concurrently.
/// This is the read path the serving layer holds across a whole burst of
/// user interactions.
class PresentationSnapshot {
 public:
  PresentationSnapshot() = default;

  static PresentationSnapshot Capture(const store::Database& db);

  /// Datasets with a stored Schema Summary, sorted by URL.
  std::vector<DatasetInfo> ListDatasets() const;

  /// Decodes the stored Schema Summary. `load_ms` (optional) receives the
  /// retrieval+decode time.
  Result<schema::SchemaSummary> LoadSchemaSummary(const std::string& url,
                                                  double* load_ms = nullptr)
      const;

  /// Decodes the precomputed Cluster Schema (§3.2 fast path).
  Result<cluster::ClusterSchema> LoadClusterSchema(const std::string& url,
                                                   double* load_ms = nullptr)
      const;

  /// Raw document accessors (null when absent).
  store::DocumentPtr FindSummaryDoc(const std::string& url) const;
  store::DocumentPtr FindClusterDoc(const std::string& url) const;

  size_t dataset_count() const { return summaries_.size(); }

 private:
  // Sorted by endpoint URL; documents sharing a URL stay in `_id` order.
  std::vector<store::DocumentPtr> summaries_;
  std::vector<store::DocumentPtr> clusters_;
};

/// H-BOLD's presentation layer against the document store: dataset
/// listing, Schema Summary / Cluster Schema retrieval (measured, for the
/// §3.2 experiment), and the legacy on-the-fly Cluster Schema path.
///
/// Every method reads through a fresh PresentationSnapshot — the daily
/// extraction cycle writes the same collections concurrently, and the
/// snapshot guarantees each call observes one consistent point in time
/// instead of racing document-by-document with the writers.
class Presentation {
 public:
  /// `db` must outlive the presentation layer.
  explicit Presentation(const store::Database* db) : db_(db) {}

  /// Captures a consistent read view of the store's current state.
  PresentationSnapshot Snapshot() const {
    return PresentationSnapshot::Capture(*db_);
  }

  /// Datasets with a stored Schema Summary.
  std::vector<DatasetInfo> ListDatasets() const;

  /// Loads the stored Schema Summary. `load_ms` (optional) receives the
  /// retrieval+decode time.
  Result<schema::SchemaSummary> LoadSchemaSummary(const std::string& url,
                                                  double* load_ms = nullptr)
      const;

  /// New (§3.2) path: the Cluster Schema is read precomputed from the
  /// store.
  Result<cluster::ClusterSchema> LoadClusterSchema(const std::string& url,
                                                   double* load_ms = nullptr)
      const;

  /// Old path, kept as the experimental baseline: load the Schema Summary
  /// and run community detection on-the-fly on every request.
  Result<cluster::ClusterSchema> ComputeClusterSchemaOnTheFly(
      const std::string& url, double* compute_ms = nullptr) const;

 private:
  const store::Database* db_;
};

/// Instance-level drill-down queries issued live against the endpoint when
/// the user descends below the schema level ("the user might then further
/// explore the class, its connections ... and its attributes", §2.2).
namespace drilldown {

/// Sample instances of `class_iri` with their rdfs:label when present.
/// Columns: ?instance, ?label (label optional).
Result<sparql::ResultTable> SampleInstances(endpoint::SparqlEndpoint* ep,
                                            const std::string& class_iri,
                                            size_t limit);

/// Every property/value pair of one resource, ordered by property IRI.
/// Columns: ?p, ?o.
Result<sparql::ResultTable> DescribeResource(endpoint::SparqlEndpoint* ep,
                                             const std::string& resource_iri);

}  // namespace drilldown

/// One interactive exploration over a dataset (Fig. 2): start from the
/// Cluster Schema or the full Schema Summary, focus a class, expand its
/// connections step by step; every partial view reports the number of
/// visible nodes and the percentage of instances covered.
class ExplorationSession {
 public:
  /// Both references must outlive the session.
  ExplorationSession(const schema::SchemaSummary& summary,
                     const cluster::ClusterSchema& clusters)
      : summary_(summary), clusters_(clusters) {}

  /// Step 1 state: nothing expanded; the user is looking at the Cluster
  /// Schema. Selecting a class within a cluster focuses it.
  void FocusClass(size_t node);

  /// Expands the view with every class directly connected to `node`
  /// (Fig. 2 step 3). No-op if `node` is not visible.
  void ExpandClass(size_t node);

  /// Expands until the full Schema Summary is visible (Fig. 2 step 4).
  void ExpandAll();

  /// Clears the exploration back to the Cluster Schema view.
  void Reset();

  const std::set<size_t>& visible() const { return visible_; }
  size_t VisibleNodeCount() const { return visible_.size(); }
  size_t TotalNodeCount() const { return summary_.NodeCount(); }

  /// "the percentage of the instances represented by the graph".
  double CoveragePercent() const;

  /// Arcs with both endpoints visible, as force-layout edges (indexes are
  /// re-mapped to the order of `VisibleNodes()`).
  std::vector<size_t> VisibleNodes() const;
  std::vector<viz::ForceEdge> VisibleEdges() const;

 private:
  const schema::SchemaSummary& summary_;
  const cluster::ClusterSchema& clusters_;
  std::set<size_t> visible_;
};

}  // namespace hbold

#endif  // HBOLD_HBOLD_PRESENTATION_H_
