#ifndef HBOLD_VIZ_SVG_H_
#define HBOLD_VIZ_SVG_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "viz/color.h"
#include "viz/geometry.h"

namespace hbold::viz {

/// Stroke/fill styling for one SVG element.
struct Style {
  std::string fill = "none";
  std::string stroke = "none";
  double stroke_width = 1.0;
  double opacity = 1.0;

  static Style Fill(const Color& c, double opacity = 1.0) {
    Style s;
    s.fill = c.ToHex();
    s.opacity = opacity;
    return s;
  }
  static Style Stroke(const Color& c, double width = 1.0,
                      double opacity = 1.0) {
    Style s;
    s.stroke = c.ToHex();
    s.stroke_width = width;
    s.opacity = opacity;
    return s;
  }
};

/// Minimal SVG document builder. Coordinates are in user units; the
/// document carries width/height and an equal viewBox. Every number is
/// written like printf("%.2f"). Elements are serialized as they are added,
/// into one buffer.
class SvgDocument {
 public:
  SvgDocument(double width, double height);

  double width() const { return width_; }
  double height() const { return height_; }

  void AddRect(const Rect& r, const Style& style, double corner_radius = 0);
  void AddCircle(const Circle& c, const Style& style);
  void AddLine(const Point& a, const Point& b, const Style& style);
  void AddPolyline(const std::vector<Point>& points, const Style& style);
  /// The polyline translated by `offset`; `points` is not copied.
  void AddPolyline(const std::vector<Point>& points, const Point& offset,
                   const Style& style);
  /// Annular sector between radii r0..r1 and angles a0..a1 (radians),
  /// centered at `center` — the sunburst building block.
  void AddAnnularSector(const Point& center, double r0, double r1, double a0,
                        double a1, const Style& style);
  /// Text anchored at `p`. `anchor` is "start", "middle" or "end".
  void AddText(const Point& p, const std::string& text, double font_size,
               const std::string& fill = "#222",
               const std::string& anchor = "start", double rotate_deg = 0);

  /// Number of elements added so far.
  size_t ElementCount() const { return element_count_; }

  /// Serializes the document.
  std::string ToString() const;

  /// Writes the document to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  void AppendPolyline(const std::vector<Point>& points, const Point* offset,
                      const Style& style);
  /// Appends the style attributes and closes the element's line.
  void EndElement(const Style& style);

  double width_;
  double height_;
  std::string body_;  // one line per element
  size_t element_count_ = 0;
};

}  // namespace hbold::viz

#endif  // HBOLD_VIZ_SVG_H_
