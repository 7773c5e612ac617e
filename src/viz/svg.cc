#include "viz/svg.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <string_view>

#include "common/string_util.h"

namespace hbold::viz {

namespace {

// Appends `prefix`, then `v` exactly as printf("%.2f") writes it: both
// round the exact binary value to two decimals, ties to even, and spell
// out inf and nan.
void Put(std::string* out, std::string_view prefix, double v) {
  out->append(prefix);
  char buf[320];  // "-" + 309 integer digits of DBL_MAX + ".00"
  auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 2);
  out->append(buf, res.ptr);
}

}  // namespace

SvgDocument::SvgDocument(double width, double height)
    : width_(width), height_(height) {}

void SvgDocument::EndElement(const Style& style) {
  body_ += " fill=\"";
  body_ += style.fill;
  body_ += '"';
  if (style.stroke != "none") {
    body_ += " stroke=\"";
    body_ += style.stroke;
    Put(&body_, "\" stroke-width=\"", style.stroke_width);
    body_ += '"';
  }
  if (style.opacity < 1.0) {
    Put(&body_, " opacity=\"", style.opacity);
    body_ += '"';
  }
  body_ += "/>\n";
  ++element_count_;
}

void SvgDocument::AddRect(const Rect& r, const Style& style,
                          double corner_radius) {
  Put(&body_, "<rect x=\"", r.x);
  Put(&body_, "\" y=\"", r.y);
  Put(&body_, "\" width=\"", r.w);
  Put(&body_, "\" height=\"", r.h);
  body_ += '"';
  if (corner_radius > 0) {
    Put(&body_, " rx=\"", corner_radius);
    body_ += '"';
  }
  EndElement(style);
}

void SvgDocument::AddCircle(const Circle& c, const Style& style) {
  Put(&body_, "<circle cx=\"", c.x);
  Put(&body_, "\" cy=\"", c.y);
  Put(&body_, "\" r=\"", c.r);
  body_ += '"';
  EndElement(style);
}

void SvgDocument::AddLine(const Point& a, const Point& b, const Style& style) {
  Put(&body_, "<line x1=\"", a.x);
  Put(&body_, "\" y1=\"", a.y);
  Put(&body_, "\" x2=\"", b.x);
  Put(&body_, "\" y2=\"", b.y);
  body_ += '"';
  EndElement(style);
}

void SvgDocument::AddPolyline(const std::vector<Point>& points,
                              const Style& style) {
  AppendPolyline(points, nullptr, style);
}

void SvgDocument::AddPolyline(const std::vector<Point>& points,
                              const Point& offset, const Style& style) {
  AppendPolyline(points, &offset, style);
}

void SvgDocument::AppendPolyline(const std::vector<Point>& points,
                                 const Point* offset, const Style& style) {
  if (points.size() < 2) return;
  body_ += "<polyline points=\"";
  for (size_t i = 0; i < points.size(); ++i) {
    // No offset means no addition: -0.0 + 0.0 would print as "0.00".
    const Point& p = points[i];
    Put(&body_, i > 0 ? " " : "", offset ? p.x + offset->x : p.x);
    Put(&body_, ",", offset ? p.y + offset->y : p.y);
  }
  body_ += '"';
  EndElement(style);
}

void SvgDocument::AddAnnularSector(const Point& center, double r0, double r1,
                                   double a0, double a1, const Style& style) {
  // Full-circle sectors need two arcs; detect and split.
  if (a1 - a0 >= 2 * kPi - 1e-9) {
    double mid = a0 + (a1 - a0) / 2;
    AddAnnularSector(center, r0, r1, a0, mid, style);
    AddAnnularSector(center, r0, r1, mid, a1, style);
    return;
  }
  auto to = [&](std::string_view command, double r, double a) {
    Put(&body_, command, center.x + r * std::cos(a));
    Put(&body_, " ", center.y + r * std::sin(a));
  };
  auto arc = [&](double r, std::string_view flags, double a) {
    Put(&body_, " A ", r);
    Put(&body_, " ", r);
    to(flags, r, a);
  };
  const bool large = (a1 - a0) > kPi;
  to("<path d=\"M ", r1, a0);
  arc(r1, large ? " 0 1 1 " : " 0 0 1 ", a1);
  to(" L ", r0, a1);
  arc(r0, large ? " 0 1 0 " : " 0 0 0 ", a0);
  body_ += " Z\"";
  EndElement(style);
}

void SvgDocument::AddText(const Point& p, const std::string& text,
                          double font_size, const std::string& fill,
                          const std::string& anchor, double rotate_deg) {
  Put(&body_, "<text x=\"", p.x);
  Put(&body_, "\" y=\"", p.y);
  Put(&body_, "\" font-size=\"", font_size);
  body_ += "\" font-family=\"sans-serif\" fill=\"";
  body_ += fill;
  body_ += "\" text-anchor=\"";
  body_ += anchor;
  body_ += '"';
  if (rotate_deg != 0) {
    Put(&body_, " transform=\"rotate(", rotate_deg);
    Put(&body_, " ", p.x);
    Put(&body_, " ", p.y);
    body_ += ")\"";
  }
  body_ += '>';
  AppendXmlEscaped(&body_, text);
  body_ += "</text>\n";
  ++element_count_;
}

std::string SvgDocument::ToString() const {
  std::string out;
  out.reserve(body_.size() + 256);
  out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  Put(&out, "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"", width_);
  Put(&out, "\" height=\"", height_);
  Put(&out, "\" viewBox=\"0 0 ", width_);
  Put(&out, " ", height_);
  out += "\">\n";
  out += "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  out += body_;
  out += "</svg>\n";
  return out;
}

Status SvgDocument::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << ToString();
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace hbold::viz
