#ifndef HBOLD_STORE_DOCUMENT_H_
#define HBOLD_STORE_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/json.h"

namespace hbold::store {

/// Documents are JSON objects with a store-assigned integer `_id` field.
using Document = hbold::Json;
using DocId = int64_t;

/// A stored document: immutable and shared between the collection and
/// every reader holding it. A write builds a new document and swaps the
/// collection's pointer, so a handle keeps the content it was read with.
using DocumentPtr = std::shared_ptr<const Document>;

inline constexpr const char* kIdField = "_id";

}  // namespace hbold::store

#endif  // HBOLD_STORE_DOCUMENT_H_
