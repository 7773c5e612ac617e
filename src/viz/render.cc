#include "viz/render.h"

#include <algorithm>
#include <cmath>

namespace hbold::viz {

SvgDocument RenderTreemap(const std::vector<TreemapCell>& cells, double width,
                          double height) {
  SvgDocument doc(width, height);
  for (const TreemapCell& cell : cells) {
    if (cell.depth == 0) continue;  // root is the canvas
    Color base = CategoricalColor(cell.group);
    if (cell.depth == 1) {
      doc.AddRect(cell.rect, Style::Fill(Lighten(base, 0.55)), 2);
      Style border = Style::Stroke(base, 1.5);
      doc.AddRect(cell.rect, border, 2);
      if (cell.rect.w > 40 && cell.rect.h > 16) {
        doc.AddText(Point{cell.rect.x + 4, cell.rect.y + 12}, cell.name, 11,
                    "#333");
      }
    } else {
      doc.AddRect(cell.rect, Style::Fill(base, 0.9), 1);
      if (cell.rect.w > 46 && cell.rect.h > 14) {
        doc.AddText(Point{cell.rect.x + 3, cell.rect.y + 11}, cell.name, 9,
                    "#ffffff");
      }
    }
  }
  return doc;
}

SvgDocument RenderSunburst(const std::vector<SunburstSlice>& slices,
                           double radius) {
  double size = radius * 2 + 20;
  SvgDocument doc(size, size);
  Point center{size / 2, size / 2};
  for (const SunburstSlice& slice : slices) {
    Color base = CategoricalColor(slice.group);
    Color fill = slice.depth == 1 ? base : Lighten(base, 0.35);
    Style style = Style::Fill(fill);
    style.stroke = "#ffffff";
    style.stroke_width = 0.8;
    doc.AddAnnularSector(center, slice.r0, slice.r1, slice.a0, slice.a1,
                         style);
    // Radial labels on sufficiently wide slices.
    double span = slice.a1 - slice.a0;
    if (span * (slice.r0 + slice.r1) / 2 > 24) {
      double mid = (slice.a0 + slice.a1) / 2;
      double r = (slice.r0 + slice.r1) / 2;
      Point p{center.x + r * std::cos(mid), center.y + r * std::sin(mid)};
      doc.AddText(p, slice.name, 9, "#222", "middle");
    }
  }
  return doc;
}

SvgDocument RenderCirclePack(const std::vector<PackedCircle>& circles,
                             double radius) {
  double size = radius * 2 + 20;
  SvgDocument doc(size, size);
  Point center{size / 2, size / 2};
  // Draw outer circles first so leaves stay visible.
  std::vector<const PackedCircle*> ordered;
  ordered.reserve(circles.size());
  for (const PackedCircle& c : circles) ordered.push_back(&c);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const PackedCircle* a, const PackedCircle* b) {
                     return a->depth < b->depth;
                   });
  for (const PackedCircle* c : ordered) {
    Circle shifted{c->circle.x + center.x, c->circle.y + center.y,
                   c->circle.r};
    if (c->depth == 0) {
      Style outer = Style::Stroke(Color{160, 160, 160}, 1.5);
      doc.AddCircle(shifted, outer);
    } else if (!c->name.empty() && c->depth == 1) {
      Color base = CategoricalColor(c->group);
      Style s = Style::Fill(Lighten(base, 0.6), 0.9);
      s.stroke = base.ToHex();
      s.stroke_width = 1.2;
      doc.AddCircle(shifted, s);
    } else {
      Color base = CategoricalColor(c->group);
      doc.AddCircle(shifted, Style::Fill(base, 0.9));
      if (shifted.r > 18) {
        doc.AddText(Point{shifted.x, shifted.y + 3}, c->name, 9, "#ffffff",
                    "middle");
      }
    }
  }
  return doc;
}

SvgDocument RenderEdgeBundling(const EdgeBundlingLayout& layout, double radius,
                               int focus_leaf) {
  double size = radius * 2 + 140;  // label margin
  SvgDocument doc(size, size);
  Point center{size / 2, size / 2};

  // Classify leaves relative to the focus: domains point at the focus
  // (focus is their property's range); ranges are pointed at by the focus.
  std::vector<int> role(layout.leaves.size(), 0);  // 1=focus 2=domain 3=range
  if (focus_leaf >= 0) {
    role[static_cast<size_t>(focus_leaf)] = 1;
    for (const BundledEdge& e : layout.edges) {
      if (static_cast<int>(e.dst_leaf) == focus_leaf &&
          static_cast<int>(e.src_leaf) != focus_leaf) {
        role[e.src_leaf] = 2;
      }
      if (static_cast<int>(e.src_leaf) == focus_leaf &&
          static_cast<int>(e.dst_leaf) != focus_leaf) {
        role[e.dst_leaf] = 3;
      }
    }
  }

  const Style focus_edge = Style::Stroke(Color{200, 60, 40}, 1.6, 0.85);
  const Style other_edge = Style::Stroke(Color{120, 140, 190}, 0.9, 0.4);
  for (const BundledEdge& e : layout.edges) {
    bool touches_focus =
        focus_leaf >= 0 && (static_cast<int>(e.src_leaf) == focus_leaf ||
                            static_cast<int>(e.dst_leaf) == focus_leaf);
    doc.AddPolyline(e.polyline, center,
                    touches_focus ? focus_edge : other_edge);
  }

  for (size_t i = 0; i < layout.leaves.size(); ++i) {
    const BundleLeaf& leaf = layout.leaves[i];
    Point p{leaf.position.x + center.x, leaf.position.y + center.y};
    Color dot = CategoricalColor(leaf.cluster);
    std::string text_color = "#333";
    if (role[i] == 1) {
      dot = Color{20, 20, 20};
      text_color = "#000000";
    } else if (role[i] == 2) {
      dot = Color{200, 40, 40};  // rdfs:domain classes, red
      text_color = "#c02020";
    } else if (role[i] == 3) {
      dot = Color{30, 150, 60};  // rdfs:range classes, green
      text_color = "#1e9640";
    }
    doc.AddCircle(Circle{p.x, p.y, role[i] == 1 ? 5.0 : 3.5},
                  Style::Fill(dot));
    // Labels placed outward along the leaf's angle, rotated to read along
    // the radius.
    double deg = leaf.angle * 180 / kPi;
    bool flip = deg > 90 && deg < 270;
    double lr = radius + 10;
    Point lp{center.x + lr * std::cos(leaf.angle),
             center.y + lr * std::sin(leaf.angle)};
    doc.AddText(lp, leaf.label, 10, text_color, flip ? "end" : "start",
                flip ? deg + 180 : deg);
  }
  return doc;
}

SvgDocument RenderGraph(const std::vector<GraphNode>& nodes,
                        const std::vector<ForceEdge>& edges,
                        const std::vector<Point>& positions, double width,
                        double height) {
  SvgDocument doc(width, height);
  for (const ForceEdge& e : edges) {
    if (e.a >= positions.size() || e.b >= positions.size()) continue;
    doc.AddLine(positions[e.a], positions[e.b],
                Style::Stroke(Color{150, 150, 160}, 1.0, 0.6));
  }
  for (size_t i = 0; i < nodes.size() && i < positions.size(); ++i) {
    Color c = CategoricalColor(nodes[i].group);
    Style s = Style::Fill(c);
    s.stroke = "#ffffff";
    s.stroke_width = 1.2;
    doc.AddCircle(Circle{positions[i].x, positions[i].y, nodes[i].size}, s);
    doc.AddText(Point{positions[i].x, positions[i].y - nodes[i].size - 3},
                nodes[i].label, 10, "#333", "middle");
  }
  return doc;
}

}  // namespace hbold::viz
