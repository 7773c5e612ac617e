#include "viz/edge_bundling.h"

#include <algorithm>
#include <cmath>

namespace hbold::viz {

double BundledEdge::Length() const {
  double len = 0;
  for (size_t i = 1; i < polyline.size(); ++i) {
    len += Distance(polyline[i - 1], polyline[i]);
  }
  return len;
}

double EdgeBundlingLayout::TotalInk() const {
  double ink = 0;
  for (const BundledEdge& e : edges) ink += e.Length();
  return ink;
}

double EdgeBundlingLayout::StraightInk() const {
  double ink = 0;
  for (const BundledEdge& e : edges) {
    if (e.polyline.size() >= 2) {
      ink += Distance(e.polyline.front(), e.polyline.back());
    }
  }
  return ink;
}

std::vector<Point> SampleBSpline(const std::vector<Point>& control,
                                 size_t samples_per_segment) {
  if (control.size() < 2) return control;
  // Clamp the spline to its endpoints by tripling them (standard trick for
  // endpoint interpolation with uniform cubic B-splines).
  std::vector<Point> pts;
  pts.reserve(control.size() + 4);
  pts.push_back(control.front());
  pts.push_back(control.front());
  pts.insert(pts.end(), control.begin(), control.end());
  pts.push_back(control.back());
  pts.push_back(control.back());

  const size_t segments = pts.size() - 3;
  std::vector<Point> out;
  out.reserve(segments * samples_per_segment + 1);
  for (size_t seg = 0; seg < segments; ++seg) {
    const Point& p0 = pts[seg];
    const Point& p1 = pts[seg + 1];
    const Point& p2 = pts[seg + 2];
    const Point& p3 = pts[seg + 3];
    for (size_t s = 0; s < samples_per_segment; ++s) {
      double t = static_cast<double>(s) / static_cast<double>(samples_per_segment);
      double t2 = t * t, t3 = t2 * t;
      // Uniform cubic B-spline basis.
      double b0 = (1 - 3 * t + 3 * t2 - t3) / 6;
      double b1 = (4 - 6 * t2 + 3 * t3) / 6;
      double b2 = (1 + 3 * t + 3 * t2 - 3 * t3) / 6;
      double b3 = t3 / 6;
      out.push_back(Point{b0 * p0.x + b1 * p1.x + b2 * p2.x + b3 * p3.x,
                          b0 * p0.y + b1 * p1.y + b2 * p2.y + b3 * p3.y});
    }
  }
  out.push_back(control.back());
  return out;
}

EdgeBundlingLayout BundleSchemaSummary(const schema::SchemaSummary& summary,
                                       const cluster::ClusterSchema& clusters,
                                       const EdgeBundlingOptions& options) {
  EdgeBundlingLayout layout;
  const size_t n = summary.NodeCount();
  if (n == 0) return layout;

  // Leaves around the circle, grouped by cluster so bundles are coherent.
  std::vector<size_t> order;
  order.reserve(n);
  for (const cluster::Cluster& c : clusters.clusters()) {
    for (size_t node : c.class_nodes) order.push_back(node);
  }
  // Safety: any node missing from the partition is appended.
  if (order.size() < n) {
    std::vector<bool> seen(n, false);
    for (size_t node : order) seen[node] = true;
    for (size_t i = 0; i < n; ++i) {
      if (!seen[i]) order.push_back(i);
    }
  }

  std::vector<size_t> leaf_of_node(n, 0);
  for (size_t i = 0; i < order.size(); ++i) {
    size_t node = order[i];
    BundleLeaf leaf;
    leaf.label = summary.nodes()[node].label;
    leaf.schema_node = node;
    int cl = clusters.ClusterOf(node);
    leaf.cluster = cl < 0 ? 0 : static_cast<size_t>(cl);
    leaf.angle = 2 * kPi * static_cast<double>(i) / static_cast<double>(n);
    leaf.position = Point{options.radius * std::cos(leaf.angle),
                          options.radius * std::sin(leaf.angle)};
    leaf_of_node[node] = layout.leaves.size();
    layout.leaves.push_back(std::move(leaf));
  }

  // Cluster control points: angular centroid of member leaves at a smaller
  // radius; the root control point is the origin.
  const size_t k = clusters.ClusterCount();
  std::vector<Point> cluster_point(k, Point{0, 0});
  {
    std::vector<double> sx(k, 0), sy(k, 0);
    std::vector<size_t> cnt(k, 0);
    for (const BundleLeaf& leaf : layout.leaves) {
      sx[leaf.cluster] += std::cos(leaf.angle);
      sy[leaf.cluster] += std::sin(leaf.angle);
      ++cnt[leaf.cluster];
    }
    double rc = options.radius * options.cluster_radius_fraction;
    for (size_t c = 0; c < k; ++c) {
      if (cnt[c] == 0) continue;
      double len = std::hypot(sx[c], sy[c]);
      if (len < 1e-9) continue;  // leaves spread evenly: keep origin
      cluster_point[c] = Point{rc * sx[c] / len, rc * sy[c] / len};
    }
  }

  for (const schema::PropertyArc& arc : summary.arcs()) {
    BundledEdge edge;
    edge.src_leaf = leaf_of_node[arc.src];
    edge.dst_leaf = leaf_of_node[arc.dst];
    edge.property_iri = arc.iri;
    edge.count = arc.count;

    const BundleLeaf& src = layout.leaves[edge.src_leaf];
    const BundleLeaf& dst = layout.leaves[edge.dst_leaf];

    // Control path through the hierarchy.
    std::vector<Point> control;
    control.push_back(src.position);
    if (arc.src == arc.dst) {
      // Self-loop: bow out through the cluster point.
      control.push_back(cluster_point[src.cluster]);
    } else if (src.cluster == dst.cluster) {
      control.push_back(cluster_point[src.cluster]);
    } else {
      control.push_back(cluster_point[src.cluster]);
      control.push_back(Point{0, 0});  // root
      control.push_back(cluster_point[dst.cluster]);
    }
    control.push_back(dst.position);

    // Holten's straightening: interpolate interior control points toward
    // the straight src->dst line by (1 - beta).
    const Point& p0 = control.front();
    const Point& pn = control.back();
    const size_t last = control.size() - 1;
    for (size_t i = 1; i < last; ++i) {
      double t = static_cast<double>(i) / static_cast<double>(last);
      Point straight{p0.x + (pn.x - p0.x) * t, p0.y + (pn.y - p0.y) * t};
      control[i].x = options.beta * control[i].x +
                     (1 - options.beta) * straight.x;
      control[i].y = options.beta * control[i].y +
                     (1 - options.beta) * straight.y;
    }

    edge.polyline = SampleBSpline(control, options.samples_per_segment);
    // Anchor the sampled curve exactly at the leaves.
    edge.polyline.front() = src.position;
    edge.polyline.back() = dst.position;
    layout.edges.push_back(std::move(edge));
  }
  return layout;
}

}  // namespace hbold::viz
