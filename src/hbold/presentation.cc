#include "hbold/presentation.h"

#include <algorithm>
#include <map>
#include <string_view>

#include "cluster/louvain.h"
#include "common/clock.h"
#include "hbold/server.h"
#include "sparql/query_builder.h"

namespace hbold {

namespace {

std::string_view UrlOf(const store::DocumentPtr& doc) {
  const Json* url = doc->Find("endpoint_url");
  if (url == nullptr || !url->is_string()) return {};
  return url->as_string();
}

bool UrlLess(const store::DocumentPtr& a, const store::DocumentPtr& b) {
  return UrlOf(a) < UrlOf(b);
}

std::vector<store::DocumentPtr> SnapshotByUrl(const store::Database& db,
                                              const char* collection) {
  const store::Collection* c = db.FindCollection(collection);
  if (c == nullptr) return {};
  std::vector<store::DocumentPtr> docs = c->Snapshot();
  std::stable_sort(docs.begin(), docs.end(), UrlLess);
  return docs;
}

store::DocumentPtr FindByUrl(const std::vector<store::DocumentPtr>& docs,
                             std::string_view url) {
  auto it = std::lower_bound(
      docs.begin(), docs.end(), url,
      [](const store::DocumentPtr& doc, std::string_view u) {
        return UrlOf(doc) < u;
      });
  return it != docs.end() && UrlOf(*it) == url ? *it : nullptr;
}

}  // namespace

PresentationSnapshot PresentationSnapshot::Capture(const store::Database& db) {
  PresentationSnapshot snap;
  snap.summaries_ = SnapshotByUrl(db, kSummariesCollection);
  snap.clusters_ = SnapshotByUrl(db, kClustersCollection);
  return snap;
}

store::DocumentPtr PresentationSnapshot::FindSummaryDoc(
    const std::string& url) const {
  return FindByUrl(summaries_, url);
}

store::DocumentPtr PresentationSnapshot::FindClusterDoc(
    const std::string& url) const {
  return FindByUrl(clusters_, url);
}

std::vector<DatasetInfo> PresentationSnapshot::ListDatasets() const {
  std::vector<DatasetInfo> out;
  out.reserve(summaries_.size());
  for (const store::DocumentPtr& doc : summaries_) {
    DatasetInfo info;
    info.url = UrlOf(doc);
    const Json* nodes = doc->Find("nodes");
    info.classes = nodes != nullptr && nodes->is_array()
                       ? nodes->as_array().size()
                       : 0;
    info.total_instances = static_cast<size_t>(doc->GetInt("total_instances"));
    info.extracted_day = doc->GetInt("extracted_day", -1);
    out.push_back(std::move(info));
  }
  return out;
}

Result<schema::SchemaSummary> PresentationSnapshot::LoadSchemaSummary(
    const std::string& url, double* load_ms) const {
  Stopwatch sw;
  store::DocumentPtr doc = FindSummaryDoc(url);
  if (doc == nullptr) {
    return Status::NotFound("no schema summary for " + url);
  }
  auto summary = schema::SchemaSummary::FromJson(*doc);
  if (load_ms != nullptr) *load_ms = sw.ElapsedMillis();
  return summary;
}

Result<cluster::ClusterSchema> PresentationSnapshot::LoadClusterSchema(
    const std::string& url, double* load_ms) const {
  Stopwatch sw;
  store::DocumentPtr doc = FindClusterDoc(url);
  if (doc == nullptr) {
    return Status::NotFound("no cluster schema for " + url);
  }
  auto clusters = cluster::ClusterSchema::FromJson(*doc);
  if (load_ms != nullptr) *load_ms = sw.ElapsedMillis();
  return clusters;
}

std::vector<DatasetInfo> Presentation::ListDatasets() const {
  return Snapshot().ListDatasets();
}

Result<schema::SchemaSummary> Presentation::LoadSchemaSummary(
    const std::string& url, double* load_ms) const {
  return Snapshot().LoadSchemaSummary(url, load_ms);
}

Result<cluster::ClusterSchema> Presentation::LoadClusterSchema(
    const std::string& url, double* load_ms) const {
  return Snapshot().LoadClusterSchema(url, load_ms);
}

Result<cluster::ClusterSchema> Presentation::ComputeClusterSchemaOnTheFly(
    const std::string& url, double* compute_ms) const {
  Stopwatch sw;
  HBOLD_ASSIGN_OR_RETURN(schema::SchemaSummary summary,
                         LoadSchemaSummary(url));
  cluster::UGraph graph = cluster::BuildClassGraph(summary);
  cluster::Partition partition = cluster::Louvain(graph);
  cluster::ClusterSchema clusters =
      cluster::ClusterSchema::FromPartition(summary, partition);
  if (compute_ms != nullptr) *compute_ms = sw.ElapsedMillis();
  return clusters;
}

namespace drilldown {

Result<sparql::ResultTable> SampleInstances(endpoint::SparqlEndpoint* ep,
                                            const std::string& class_iri,
                                            size_t limit) {
  std::string q =
      "SELECT ?instance ?label WHERE {\n"
      "  ?instance a <" +
      sparql::EscapeIri(class_iri) +
      "> .\n"
      "  OPTIONAL { ?instance "
      "<http://www.w3.org/2000/01/rdf-schema#label> ?label . }\n"
      "} ORDER BY ?instance LIMIT " +
      std::to_string(limit);
  HBOLD_ASSIGN_OR_RETURN(endpoint::QueryOutcome outcome, ep->Query(q));
  return outcome.table;
}

Result<sparql::ResultTable> DescribeResource(
    endpoint::SparqlEndpoint* ep, const std::string& resource_iri) {
  std::string q = "SELECT ?p ?o WHERE { <" + sparql::EscapeIri(resource_iri) +
                  "> ?p ?o . } ORDER BY ?p ?o";
  HBOLD_ASSIGN_OR_RETURN(endpoint::QueryOutcome outcome, ep->Query(q));
  return outcome.table;
}

}  // namespace drilldown

void ExplorationSession::FocusClass(size_t node) {
  if (node >= summary_.NodeCount()) return;
  visible_.insert(node);
}

void ExplorationSession::ExpandClass(size_t node) {
  if (visible_.count(node) == 0) return;
  for (size_t neighbor : summary_.Neighbors(node)) {
    visible_.insert(neighbor);
  }
}

void ExplorationSession::ExpandAll() {
  for (size_t i = 0; i < summary_.NodeCount(); ++i) visible_.insert(i);
}

void ExplorationSession::Reset() { visible_.clear(); }

double ExplorationSession::CoveragePercent() const {
  return summary_.CoveragePercent(visible_);
}

std::vector<size_t> ExplorationSession::VisibleNodes() const {
  return {visible_.begin(), visible_.end()};
}

std::vector<viz::ForceEdge> ExplorationSession::VisibleEdges() const {
  std::map<size_t, size_t> remap;
  size_t next = 0;
  for (size_t node : visible_) remap[node] = next++;
  std::vector<viz::ForceEdge> out;
  for (const schema::PropertyArc& arc : summary_.arcs()) {
    auto s = remap.find(arc.src);
    auto d = remap.find(arc.dst);
    if (s == remap.end() || d == remap.end()) continue;
    out.push_back(viz::ForceEdge{s->second, d->second,
                                 static_cast<double>(arc.count)});
  }
  return out;
}

}  // namespace hbold
