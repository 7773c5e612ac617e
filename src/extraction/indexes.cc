#include "extraction/indexes.h"

#include <algorithm>
#include <set>

namespace hbold::extraction {

size_t IndexSummary::TotalClassInstances() const {
  size_t total = 0;
  for (const ClassInfo& c : classes) total += c.instance_count;
  return total;
}

const ClassInfo* IndexSummary::FindClass(const std::string& iri) const {
  for (const ClassInfo& c : classes) {
    if (c.iri == iri) return &c;
  }
  return nullptr;
}

Json IndexSummary::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("endpoint_url", endpoint_url);
  j.Set("num_triples", num_triples);
  j.Set("num_instances", num_instances);
  j.Set("num_classes", num_classes);
  j.Set("extracted_day", extracted_day);
  Json class_arr = Json::MakeArray();
  for (const ClassInfo& c : classes) {
    Json cj = Json::MakeObject();
    cj.Set("iri", c.iri);
    cj.Set("instance_count", c.instance_count);
    Json props = Json::MakeArray();
    for (const PropertyInfo& p : c.properties) {
      Json pj = Json::MakeObject();
      pj.Set("iri", p.iri);
      pj.Set("count", p.count);
      pj.Set("object_property", p.is_object_property);
      if (!p.range_classes.empty()) {
        Json ranges = Json::MakeObject();
        for (const auto& [range, n] : p.range_classes) ranges.Set(range, n);
        pj.Set("ranges", std::move(ranges));
      }
      props.Append(std::move(pj));
    }
    cj.Set("properties", std::move(props));
    class_arr.Append(std::move(cj));
  }
  j.Set("classes", std::move(class_arr));
  return j;
}

Result<IndexSummary> IndexSummary::FromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("IndexSummary JSON must be an object");
  }
  IndexSummary s;
  s.endpoint_url = j.GetString("endpoint_url");
  s.num_triples = static_cast<size_t>(j.GetInt("num_triples"));
  s.num_instances = static_cast<size_t>(j.GetInt("num_instances"));
  s.num_classes = static_cast<size_t>(j.GetInt("num_classes"));
  s.extracted_day = j.GetInt("extracted_day", -1);
  const Json* classes = j.Find("classes");
  if (classes != nullptr && classes->is_array()) {
    for (const Json& cj : classes->as_array()) {
      ClassInfo c;
      c.iri = cj.GetString("iri");
      c.instance_count = static_cast<size_t>(cj.GetInt("instance_count"));
      const Json* props = cj.Find("properties");
      if (props != nullptr && props->is_array()) {
        for (const Json& pj : props->as_array()) {
          PropertyInfo p;
          p.iri = pj.GetString("iri");
          p.count = static_cast<size_t>(pj.GetInt("count"));
          p.is_object_property = pj.GetBool("object_property");
          const Json* ranges = pj.Find("ranges");
          if (ranges != nullptr && ranges->is_object()) {
            for (const auto& [range, n] : ranges->as_object()) {
              p.range_classes[range] =
                  n.fits_int64() ? static_cast<size_t>(n.as_int()) : 0;
            }
          }
          c.properties.push_back(std::move(p));
        }
      }
      s.classes.push_back(std::move(c));
    }
  }
  return s;
}

void CanonicalizeIndexSummary(IndexSummary* s) {
  std::sort(s->classes.begin(), s->classes.end(),
            [](const ClassInfo& a, const ClassInfo& b) {
              if (a.instance_count != b.instance_count) {
                return a.instance_count > b.instance_count;
              }
              return a.iri < b.iri;
            });
  for (ClassInfo& c : s->classes) {
    std::sort(c.properties.begin(), c.properties.end(),
              [](const PropertyInfo& a, const PropertyInfo& b) {
                return a.iri < b.iri;
              });
  }
  s->num_classes = s->classes.size();
}

IndexSummary MergeDirtyClasses(const IndexSummary& prior,
                               const IndexSummary& partial,
                               const std::vector<std::string>& dirty,
                               const std::vector<std::string>& removed) {
  std::set<std::string> drop(dirty.begin(), dirty.end());
  drop.insert(removed.begin(), removed.end());

  IndexSummary merged;
  merged.endpoint_url = partial.endpoint_url.empty() ? prior.endpoint_url
                                                     : partial.endpoint_url;
  merged.num_triples = partial.num_triples;
  merged.num_instances = partial.num_instances;
  merged.extracted_day = partial.extracted_day;
  for (const ClassInfo& c : prior.classes) {
    if (drop.count(c.iri) == 0) merged.classes.push_back(c);
  }
  for (const ClassInfo& c : partial.classes) {
    merged.classes.push_back(c);
  }
  CanonicalizeIndexSummary(&merged);
  return merged;
}

}  // namespace hbold::extraction
