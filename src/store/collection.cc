#include "store/collection.h"

#include <mutex>

#include "common/string_util.h"

namespace hbold::store {

namespace {

/// Three-way comparison over JSON scalars: numbers numerically, strings
/// lexically; mixed/other types compare unequal (returns nullopt).
std::optional<int> CompareScalars(const Json& a, const Json& b) {
  if (a.is_number() && b.is_number()) {
    if (a.as_number() < b.as_number()) return -1;
    if (a.as_number() > b.as_number()) return 1;
    return 0;
  }
  if (a.is_string() && b.is_string()) {
    if (a.as_string() < b.as_string()) return -1;
    if (a.as_string() > b.as_string()) return 1;
    return 0;
  }
  if (a.is_bool() && b.is_bool()) {
    return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  }
  return std::nullopt;
}

bool MatchesOperator(const Json* field, const Json& op_obj) {
  for (const auto& [op, operand] : op_obj.as_object()) {
    if (op == "$exists") {
      bool want = operand.is_bool() ? operand.as_bool() : true;
      if ((field != nullptr) != want) return false;
      continue;
    }
    if (field == nullptr) return false;
    if (op == "$in") {
      if (!operand.is_array()) return false;
      bool found = false;
      for (const Json& cand : operand.as_array()) {
        if (cand == *field) {
          found = true;
          break;
        }
      }
      if (!found) return false;
      continue;
    }
    std::optional<int> cmp = CompareScalars(*field, operand);
    if (op == "$ne") {
      if (*field == operand) return false;
      continue;
    }
    if (!cmp.has_value()) return false;
    if (op == "$gt" && !(*cmp > 0)) return false;
    if (op == "$gte" && !(*cmp >= 0)) return false;
    if (op == "$lt" && !(*cmp < 0)) return false;
    if (op == "$lte" && !(*cmp <= 0)) return false;
    if (op != "$gt" && op != "$gte" && op != "$lt" && op != "$lte" &&
        op != "$ne") {
      return false;  // unknown operator matches nothing
    }
  }
  return true;
}

}  // namespace

const Json* Collection::Resolve(const Document& doc, std::string_view path) {
  const Json* cur = &doc;
  while (true) {
    const size_t dot = path.find('.');
    cur = cur->Find(path.substr(0, dot));
    if (cur == nullptr || dot == std::string_view::npos) return cur;
    path.remove_prefix(dot + 1);
  }
}

bool Collection::Matches(const Document& doc, const Document& filter) {
  if (!filter.is_object()) return false;
  for (const auto& [key, constraint] : filter.as_object()) {
    const Json* field = Resolve(doc, key);
    if (constraint.is_object() && !constraint.as_object().empty() &&
        constraint.as_object().begin()->first.rfind('$', 0) == 0) {
      if (!MatchesOperator(field, constraint)) return false;
    } else {
      if (field == nullptr || !(*field == constraint)) return false;
    }
  }
  return true;
}

Status Collection::CheckUnique(const Document& doc,
                               std::optional<DocId> skip_id) const {
  for (const std::string& path : unique_fields_) {
    const Json* value = Resolve(doc, path);
    if (value == nullptr) continue;
    for (const auto& [id, existing] : docs_) {
      if (skip_id.has_value() && id == *skip_id) continue;
      const Json* other = Resolve(*existing, path);
      if (other != nullptr && *other == *value) {
        return Status::AlreadyExists("unique index violation on '" + path +
                                     "' in collection '" + name_ + "'");
      }
    }
  }
  return Status::OK();
}

void Collection::IndexDoc(DocId id, const Document& doc) {
  for (auto& [path, buckets] : field_indexes_) {
    const Json* value = Resolve(doc, path);
    if (value != nullptr) buckets[value->Dump()].insert(id);
  }
}

void Collection::DeindexDoc(DocId id, const Document& doc) {
  for (auto& [path, buckets] : field_indexes_) {
    const Json* value = Resolve(doc, path);
    if (value == nullptr) continue;
    auto it = buckets.find(value->Dump());
    if (it == buckets.end()) continue;
    it->second.erase(id);
    if (it->second.empty()) buckets.erase(it);
  }
}

const std::set<DocId>* Collection::IndexCandidates(
    const Document& filter) const {
  if (!filter.is_object()) return nullptr;
  for (const auto& [key, constraint] : filter.as_object()) {
    auto index = field_indexes_.find(key);
    if (index == field_indexes_.end()) continue;
    // Only plain equality constraints are index-answerable.
    if (constraint.is_object() && !constraint.as_object().empty() &&
        constraint.as_object().begin()->first.rfind('$', 0) == 0) {
      continue;
    }
    static const std::set<DocId> kEmpty;
    auto bucket = index->second.find(constraint.Dump());
    return bucket == index->second.end() ? &kEmpty : &bucket->second;
  }
  return nullptr;
}

template <typename Fn>
void Collection::ForEachMatch(const Document& filter, Fn&& fn) const {
  const std::set<DocId>* candidates = IndexCandidates(filter);
  if (candidates == nullptr) {
    for (const auto& [id, doc] : docs_) {
      if (Matches(*doc, filter) && !fn(id, doc)) return;
    }
    return;
  }
  for (DocId id : *candidates) {
    auto it = docs_.find(id);
    if (it != docs_.end() && Matches(*it->second, filter) &&
        !fn(id, it->second)) {
      return;
    }
  }
}

std::vector<DocId> Collection::MatchingIds(const Document& filter) const {
  std::vector<DocId> ids;
  ForEachMatch(filter, [&](DocId id, const DocumentPtr&) {
    ids.push_back(id);
    return true;
  });
  return ids;
}

Result<DocId> Collection::Insert(Document doc) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!doc.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  HBOLD_RETURN_NOT_OK(CheckUnique(doc, std::nullopt));
  DocId id = next_id_++;
  doc.Set(kIdField, Json(static_cast<int64_t>(id)));
  IndexDoc(id, doc);
  docs_.emplace(id, std::make_shared<const Document>(std::move(doc)));
  return id;
}

std::vector<DocumentPtr> Collection::Find(const Document& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<DocumentPtr> out;
  ForEachMatch(filter, [&](DocId, const DocumentPtr& doc) {
    out.push_back(doc);
    return true;
  });
  return out;
}

DocumentPtr Collection::FindOne(const Document& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  DocumentPtr found;
  ForEachMatch(filter, [&](DocId, const DocumentPtr& doc) {
    found = doc;
    return false;
  });
  return found;
}

DocumentPtr Collection::FindById(DocId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : it->second;
}

std::vector<DocumentPtr> Collection::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<DocumentPtr> out;
  out.reserve(docs_.size());
  for (const auto& [id, doc] : docs_) out.push_back(doc);
  return out;
}

size_t Collection::CountMatching(const Document& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  ForEachMatch(filter, [&](DocId, const DocumentPtr&) {
    ++n;
    return true;
  });
  return n;
}

Result<size_t> Collection::Update(const Document& filter,
                                  const Document& update) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!update.is_object()) {
    return Status::InvalidArgument("update must be a JSON object");
  }
  // Build every merged document and validate uniqueness first, so a failed
  // update changes nothing.
  const std::vector<DocId> targets = MatchingIds(filter);
  std::vector<Document> merged;
  merged.reserve(targets.size());
  for (DocId id : targets) {
    Document doc = *docs_[id];
    for (const auto& [k, v] : update.as_object()) {
      if (k == kIdField) continue;
      doc.Set(k, v);
    }
    HBOLD_RETURN_NOT_OK(CheckUnique(doc, id));
    merged.push_back(std::move(doc));
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    DocumentPtr& slot = docs_[targets[i]];
    DeindexDoc(targets[i], *slot);
    IndexDoc(targets[i], merged[i]);
    slot = std::make_shared<const Document>(std::move(merged[i]));
  }
  return targets.size();
}

Result<DocId> Collection::Replace(const Document& filter, Document doc) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!doc.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  // Pull the matches out first so the uniqueness check runs against the
  // survivors only; restore them if the new document is rejected.
  std::vector<std::pair<DocId, DocumentPtr>> removed;
  for (DocId id : MatchingIds(filter)) {
    auto it = docs_.find(id);
    DeindexDoc(id, *it->second);
    removed.emplace_back(id, std::move(it->second));
    docs_.erase(it);
  }
  Status unique = CheckUnique(doc, std::nullopt);
  if (!unique.ok()) {
    for (auto& [id, old_doc] : removed) {
      IndexDoc(id, *old_doc);
      docs_.emplace(id, std::move(old_doc));
    }
    return unique;
  }
  DocId id = next_id_++;
  doc.Set(kIdField, Json(static_cast<int64_t>(id)));
  IndexDoc(id, doc);
  docs_.emplace(id, std::make_shared<const Document>(std::move(doc)));
  return id;
}

size_t Collection::Remove(const Document& filter) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const std::vector<DocId> ids = MatchingIds(filter);
  for (DocId id : ids) {
    auto it = docs_.find(id);
    DeindexDoc(id, *it->second);
    docs_.erase(it);
  }
  return ids.size();
}

Status Collection::CreateUniqueIndex(const std::string& field_path) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Validate no existing duplicates.
  std::vector<const Json*> seen;
  for (const auto& [id, doc] : docs_) {
    const Json* value = Resolve(*doc, field_path);
    if (value == nullptr) continue;
    for (const Json* other : seen) {
      if (*other == *value) {
        return Status::InvalidArgument(
            "cannot create unique index on '" + field_path +
            "': duplicate values exist");
      }
    }
    seen.push_back(value);
  }
  unique_fields_.push_back(field_path);
  return Status::OK();
}

void Collection::CreateIndex(const std::string& field_path) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (field_indexes_.count(field_path) > 0) return;
  auto& buckets = field_indexes_[field_path];
  for (const auto& [id, doc] : docs_) {
    const Json* value = Resolve(*doc, field_path);
    if (value != nullptr) buckets[value->Dump()].insert(id);
  }
}

bool Collection::HasIndex(const std::string& field_path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return field_indexes_.count(field_path) > 0;
}

std::string Collection::DumpJsonl() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string out;
  for (const auto& [id, doc] : docs_) {
    out += doc->Dump();
    out += '\n';
  }
  return out;
}

Status Collection::LoadJsonl(const std::string& text) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::map<DocId, DocumentPtr> loaded;
  DocId max_id = 0;
  for (const std::string& line : Split(text, '\n')) {
    if (Trim(line).empty()) continue;
    auto parsed = Json::Parse(line);
    if (!parsed.ok()) return parsed.status();
    DocId id = parsed->GetInt(kIdField, 0);
    if (id <= 0) {
      return Status::ParseError("document missing _id in collection '" +
                                name_ + "'");
    }
    max_id = std::max(max_id, id);
    loaded.emplace(id, std::make_shared<const Document>(std::move(*parsed)));
  }
  docs_ = std::move(loaded);
  next_id_ = max_id + 1;
  // Rebuild hash indexes over the replaced content.
  for (auto& [path, buckets] : field_indexes_) buckets.clear();
  for (const auto& [id, doc] : docs_) IndexDoc(id, *doc);
  return Status::OK();
}

}  // namespace hbold::store
