#include "cluster/cluster_schema.h"

#include <cmath>
#include <map>

namespace hbold::cluster {

UGraph BuildClassGraph(const schema::SchemaSummary& summary) {
  UGraph g(summary.NodeCount());
  for (const schema::PropertyArc& arc : summary.arcs()) {
    if (arc.src == arc.dst) continue;
    g.AddEdge(arc.src, arc.dst, static_cast<double>(arc.count));
  }
  return g;
}

namespace {

/// Primary labeling score of a node under a policy (ties broken by
/// instance count then IRI so labeling is deterministic).
size_t LabelScore(const schema::SchemaSummary& summary, size_t node,
                  LabelPolicy policy) {
  switch (policy) {
    case LabelPolicy::kHighestDegree:
      return summary.Degree(node);
    case LabelPolicy::kMostInstances:
      return summary.nodes()[node].instance_count;
    case LabelPolicy::kMostAttributes: {
      size_t total = 0;
      for (const schema::Attribute& a : summary.nodes()[node].attributes) {
        total += a.count;
      }
      return total;
    }
  }
  return 0;
}

}  // namespace

ClusterSchema ClusterSchema::FromPartition(
    const schema::SchemaSummary& summary, const Partition& partition,
    LabelPolicy label_policy) {
  ClusterSchema cs;
  cs.endpoint_url_ = summary.endpoint_url();

  Partition normalized = partition;
  size_t k = NormalizePartition(&normalized);
  cs.clusters_.resize(k);
  cs.cluster_of_ = normalized;

  for (size_t node = 0; node < normalized.size(); ++node) {
    Cluster& cluster = cs.clusters_[normalized[node]];
    cluster.class_nodes.push_back(node);
    cluster.total_instances += summary.nodes()[node].instance_count;
  }

  // Label: by default the local name of the member with the highest degree
  // in the Schema Summary pseudograph (§2.1).
  for (Cluster& cluster : cs.clusters_) {
    size_t best = cluster.class_nodes.empty() ? 0 : cluster.class_nodes[0];
    for (size_t node : cluster.class_nodes) {
      size_t s_node = LabelScore(summary, node, label_policy);
      size_t s_best = LabelScore(summary, best, label_policy);
      if (s_node > s_best) {
        best = node;
      } else if (s_node == s_best) {
        const auto& a = summary.nodes()[node];
        const auto& b = summary.nodes()[best];
        if (a.instance_count > b.instance_count ||
            (a.instance_count == b.instance_count && a.iri < b.iri)) {
          best = node;
        }
      }
    }
    if (!cluster.class_nodes.empty()) {
      cluster.label = summary.nodes()[best].label;
    }
  }

  // Aggregate arcs across cluster boundaries.
  std::map<std::pair<size_t, size_t>, ClusterArc> arcs;
  for (const schema::PropertyArc& arc : summary.arcs()) {
    size_t cs_src = normalized[arc.src];
    size_t cs_dst = normalized[arc.dst];
    if (cs_src == cs_dst) continue;
    auto key = std::make_pair(cs_src, cs_dst);
    ClusterArc& ca = arcs[key];
    ca.src = cs_src;
    ca.dst = cs_dst;
    ca.weight += arc.count;
    ca.property_count += 1;
  }
  for (auto& [key, arc] : arcs) cs.arcs_.push_back(arc);
  return cs;
}

int ClusterSchema::ClusterOf(size_t node) const {
  if (node >= cluster_of_.size()) return -1;
  return static_cast<int>(cluster_of_[node]);
}

Json ClusterSchema::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("endpoint_url", endpoint_url_);
  Json clusters = Json::MakeArray();
  for (const Cluster& c : clusters_) {
    Json cj = Json::MakeObject();
    cj.Set("label", c.label);
    cj.Set("total_instances", c.total_instances);
    Json members = Json::MakeArray();
    for (size_t node : c.class_nodes) members.Append(Json(node));
    cj.Set("classes", std::move(members));
    clusters.Append(std::move(cj));
  }
  j.Set("clusters", std::move(clusters));
  Json arcs = Json::MakeArray();
  for (const ClusterArc& a : arcs_) {
    Json aj = Json::MakeObject();
    aj.Set("src", a.src);
    aj.Set("dst", a.dst);
    aj.Set("weight", a.weight);
    aj.Set("properties", a.property_count);
    arcs.Append(std::move(aj));
  }
  j.Set("arcs", std::move(arcs));
  return j;
}

Result<ClusterSchema> ClusterSchema::FromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("ClusterSchema JSON must be an object");
  }
  ClusterSchema cs;
  cs.endpoint_url_ = j.GetString("endpoint_url");
  const Json* clusters = j.Find("clusters");
  // A Cluster Schema partitions nodes 0..n-1, so every member must be a
  // node index below the total member count n. Stored documents are
  // external input (.hbsnap files): reject anything else rather than
  // index past cluster_of_ or size it from an untrusted number.
  size_t total_members = 0;
  if (clusters != nullptr && clusters->is_array()) {
    for (const Json& cj : clusters->as_array()) {
      const Json* members = cj.Find("classes");
      if (members != nullptr && members->is_array()) {
        total_members += members->as_array().size();
      }
    }
    for (const Json& cj : clusters->as_array()) {
      Cluster c;
      c.label = cj.GetString("label");
      c.total_instances = static_cast<size_t>(cj.GetInt("total_instances"));
      const Json* members = cj.Find("classes");
      if (members != nullptr && members->is_array()) {
        for (const Json& m : members->as_array()) {
          // NaN fails every comparison, so it is rejected too.
          const double node = m.is_number() ? m.as_number() : -1;
          if (!(node >= 0 && node < static_cast<double>(total_members) &&
                std::trunc(node) == node)) {
            return Status::InvalidArgument(
                "cluster member is not a node index below " +
                std::to_string(total_members));
          }
          c.class_nodes.push_back(static_cast<size_t>(node));
        }
      }
      cs.clusters_.push_back(std::move(c));
    }
  }
  cs.cluster_of_.assign(total_members, 0);
  for (size_t ci = 0; ci < cs.clusters_.size(); ++ci) {
    for (size_t node : cs.clusters_[ci].class_nodes) {
      cs.cluster_of_[node] = ci;
    }
  }
  const Json* arcs = j.Find("arcs");
  if (arcs != nullptr && arcs->is_array()) {
    for (const Json& aj : arcs->as_array()) {
      ClusterArc a;
      a.src = static_cast<size_t>(aj.GetInt("src"));
      a.dst = static_cast<size_t>(aj.GetInt("dst"));
      a.weight = static_cast<size_t>(aj.GetInt("weight"));
      a.property_count = static_cast<size_t>(aj.GetInt("properties"));
      if (a.src >= cs.clusters_.size() || a.dst >= cs.clusters_.size()) {
        return Status::InvalidArgument("cluster arc endpoint out of range");
      }
      cs.arcs_.push_back(a);
    }
  }
  return cs;
}

}  // namespace hbold::cluster
