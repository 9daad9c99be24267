// The dense 'descriptionEmbedding' text that registry rows carried before
// the sparse {"dims":N,"nz":[[i,w],...]} form: every dimension written as a
// JSON array element. Snapshots, WALs and older leaders' fetch batches still
// hold it, so tests write it as the reference to prove those rows decode.
// Also the dense-to-sparse conversion tests use to feed literal vectors to
// the sparse API.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "common/value.hpp"
#include "embed/embedding.hpp"

namespace laminar {

/// `v` as a SparseVector: its entries whose bits are not all zero.
inline embed::SparseVector Sparse(const embed::Vector& v) {
  embed::SparseVector out;
  out.dims = v.size();
  for (size_t i = 0; i < v.size(); ++i) {
    if (std::bit_cast<uint32_t>(v[i]) != 0) {
      out.entries.push_back({static_cast<uint32_t>(i), v[i]});
    }
  }
  return out;
}

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
  std::string dense =
      DenseEmbeddingJson(embed::ToDense(embed::FromJson(stored)));
  row["descriptionEmbedding"] = std::move(dense);
}

}  // namespace laminar
