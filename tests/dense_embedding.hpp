// The dense 'descriptionEmbedding' text that registry rows carried before
// the sparse {"dims":N,"nz":[[i,w],...]} form: every dimension written as a
// JSON array element. Snapshots, WALs and older leaders' fetch batches still
// hold it, so tests write it as the reference to prove those rows decode.
#pragma once

#include <string>
#include <utility>

#include "common/value.hpp"
#include "embed/embedding.hpp"

namespace laminar {

inline std::string DenseEmbeddingJson(const embed::Vector& v) {
  Value arr = Value::MakeArray();
  for (float x : v) arr.push_back(static_cast<double>(x));
  return arr.ToJson();
}

/// Rewrites a row's (or a WAL record payload's) non-empty
/// descriptionEmbedding column into the dense form.
inline void DensifyEmbeddingColumn(Value& row) {
  const std::string& stored = row.at("descriptionEmbedding").as_string();
  if (stored.empty()) return;
  std::string dense = DenseEmbeddingJson(embed::FromJson(stored));
  row["descriptionEmbedding"] = std::move(dense);
}

}  // namespace laminar
