// The sparse embedding path against the dense pipeline it replaced
// (tests/embedding_reference.hpp), bit for bit over seeded inputs:
//   * UnixcoderSim and ReaccSim, densified, equal the dense encoders on
//     descriptions, queries, code snippets, dropped-code fragments, empty
//     and stopword-only text, and HashedEncoder equals the dense
//     accumulator on random terms with cancellations, zero, huge and
//     subnormal weights;
//   * ToJson writes the reference's bytes, and FromJson decodes both stored
//     column forms (with -0.0, NaN, Inf, all-zero and 3-float vectors, and
//     malformed rows) to the reference's vector and re-encodes to its bytes;
//   * PostingsIndex returns the reference's (id, score) lists, compared with
//     ==, for k in {1, 5, 50, size + 1} on text and code indexes before and
//     after churn that reuses slots.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "embed/embedding.hpp"
#include "embed/hashed_encoder.hpp"
#include "embed/reacc_sim.hpp"
#include "embed/unixcoder_sim.hpp"
#include "search/postings_index.hpp"
#include "dense_embedding.hpp"
#include "embedding_reference.hpp"

namespace laminar::embed {
namespace {

namespace ref = reference;

/// `got` and `want` hold the same floats, bit for bit.
void ExpectBitEqual(const Vector& got, const Vector& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t d = 0; d < got.size(); ++d) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[d]), std::bit_cast<uint32_t>(want[d]))
        << what << ", dimension " << d;
  }
}

/// A SparseVector keeps the invariant every producer promises: entries
/// strictly ascending, below dims, none with all-zero bits.
void ExpectWellFormed(const SparseVector& v, const std::string& what) {
  for (size_t i = 0; i < v.entries.size(); ++i) {
    EXPECT_LT(v.entries[i].index, v.dims) << what;
    EXPECT_NE(std::bit_cast<uint32_t>(v.entries[i].value), 0u) << what;
    if (i > 0) {
      EXPECT_LT(v.entries[i - 1].index, v.entries[i].index) << what;
    }
  }
}

std::vector<dataset::CodeSearchNetPeDataset> Corpora() {
  std::vector<dataset::CodeSearchNetPeDataset> out;
  for (uint64_t seed : {0x5eed0001ULL, 0xc0ffeeULL, 0x24ULL}) {
    dataset::DatasetConfig config;
    config.variants_per_family = 4;  // 30 families -> 120 PEs
    config.seed = seed;
    out.push_back(dataset::CodeSearchNetPeDataset::Generate(config));
  }
  return out;
}

std::vector<std::string> Texts() {
  std::vector<std::string> out = {
      "",
      "   ",
      "the of a to in and",
      "pe processing element class function",
      "x",
      "caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9",
      "prime prime prime numbers numbers"};
  for (const auto& ds : Corpora()) {
    for (const dataset::PeExample& ex : ds.examples()) {
      out.push_back(ex.description);
      out.push_back(ex.query);
    }
  }
  return out;
}

std::vector<std::string> Codes() {
  std::vector<std::string> out = {"", "x = 1\n", "broken 'string without end",
                                  "def f(:\n    return )", "\n\n\t\n"};
  for (const auto& ds : Corpora()) {
    for (size_t i = 0; i < ds.size(); ++i) {
      const std::string& code = ds.example(i).pe_code;
      out.push_back(code);
      out.push_back(dataset::DropCode(code, 0.1 * static_cast<double>(i % 10)));
    }
  }
  return out;
}

TEST(SparseEmbedding, EncodersEqualTheDenseAccumulation) {
  const UnixcoderSim text;
  const ReaccSim code;
  for (const std::string& t : Texts()) {
    const SparseVector v = text.Encode(t);
    ExpectWellFormed(v, t);
    const Vector want = ref::EncodeText(t);
    ExpectBitEqual(ToDense(v), want, "text \"" + t.substr(0, 40) + "\"");
    ExpectBitEqual(text.EncodeText(t), want, "EncodeText");
    EXPECT_EQ(ToJson(v), ref::ToJson(want)) << t;
  }
  for (const std::string& c : Codes()) {
    const SparseVector v = code.Encode(c);
    ExpectWellFormed(v, c);
    const Vector want = ref::EncodeCode(c);
    ExpectBitEqual(ToDense(v), want, "code \"" + c.substr(0, 40) + "\"");
    ExpectBitEqual(code.EncodeCode(c), want, "EncodeCode");
    EXPECT_EQ(ToJson(v), ref::ToJson(want)) << c;
  }
}

TEST(SparseEmbedding, HashedEncoderEqualsTheDenseAccumulator) {
  // Few dimensions, so terms collide; each weight is drawn from a range
  // that makes sums cancel to +0.0 or -0.0, overflow to Inf (an Inf norm)
  // or underflow when normalized.
  Rng rng(0x5ba75e);
  const float kWeights[] = {0.0f,
                            -0.0f,
                            1.0f,
                            -1.0f,
                            0.5f,
                            3.0e38f,
                            -3.0e38f,
                            std::numeric_limits<float>::denorm_min(),
                            1.0e-30f};
  for (int round = 0; round < 400; ++round) {
    const size_t dims = 1 + rng.NextBelow(24);
    const uint64_t seed = rng.NextU64();
    HashedEncoder sparse(dims, seed);
    ref::DenseHashedEncoder dense(dims, seed);
    const size_t terms = rng.NextBelow(40);
    for (size_t t = 0; t < terms; ++t) {
      const std::string term = "t" + std::to_string(rng.NextBelow(12));
      float weight = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
      if (rng.NextBelow(3) == 0) {
        weight = kWeights[rng.NextBelow(std::size(kWeights))];
      }
      sparse.Add(term, weight);
      dense.Add(term, weight);
    }
    const SparseVector v = sparse.Finish();
    const std::string what = "round " + std::to_string(round);
    ExpectWellFormed(v, what);
    ExpectBitEqual(ToDense(v), dense.Finish(), what);
    // Finish reset both: the next call sees nothing.
    ExpectBitEqual(ToDense(sparse.Finish()), dense.Finish(), what + " reset");
  }
}

TEST(SparseEmbedding, InterleavedEncodersDoNotShareState) {
  HashedEncoder a(64, 1), b(64, 1);
  ref::DenseHashedEncoder ra(64, 1), rb(64, 1);
  for (const char* term : {"alpha", "beta", "gamma", "alpha"}) {
    a.Add(term, 1.0f);
    ra.Add(term, 1.0f);
    b.Add(std::string(term) + "!", 0.5f);
    rb.Add(std::string(term) + "!", 0.5f);
  }
  const SparseVector va = a.Finish();
  b.Add("late", 2.0f);
  rb.Add("late", 2.0f);
  ExpectBitEqual(ToDense(va), ra.Finish(), "a");
  ExpectBitEqual(ToDense(b.Finish()), rb.Finish(), "b");
}

/// Vectors a stored row may hold: encoder output, and by hand every bit
/// pattern the column can carry.
std::vector<Vector> StoredVectors() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min();
  std::vector<Vector> out = {
      Vector(4096, 0.0f),
      {0.5f, -0.25f, 1.0f},
      {0.0f, -0.0f, 1.5f, 0.0f, 2.0f},
      {-0.0f, -0.0f, -0.0f},
      {nan, 1.0f, 0.0f},
      {inf, -1.0f, 0.0f, 0.0f},
      {sub, -sub, std::numeric_limits<float>::max(), 0.1f},
      {},
  };
  // Full-size rows whose norm is NaN, Inf or normal with -0.0 entries.
  for (float special : {nan, inf, -0.0f}) {
    Vector v(4096, 0.0f);
    v[7] = special;
    v[4095] = 0.25f;
    out.push_back(v);
  }
  const UnixcoderSim text;
  for (const char* t : {"streams tuples by key", "", "the of a"}) {
    out.push_back(text.EncodeText(t));
  }
  Rng rng(0xd0b1e5);
  // Any bit pattern (finite or not) in short rows; full-size rows mixing
  // any finite pattern below 1e18 with uniform values.
  for (int i = 0; i < 20; ++i) {
    const bool full = i % 2 == 0;
    Vector v(full ? 4096 : 1 + rng.NextBelow(300), 0.0f);
    for (size_t j = 0; j < 1 + v.size() / 40; ++j) {
      float x = std::bit_cast<float>(static_cast<uint32_t>(rng.NextU64()));
      if (full && !(std::abs(x) < 1e18f)) {
        x = static_cast<float>(rng.NextDouble() - 0.5);
      }
      v[rng.NextBelow(v.size())] = x;
    }
    out.push_back(v);
  }
  return out;
}

TEST(SparseEmbedding, StoredColumnsDecodeAndReencodeLikeTheReference) {
  std::vector<std::string> columns = {
      "", "[]", "{}", "null", "[1,\"x\"]", R"({"dims":0,"nz":[]})",
      R"({"dims":4,"nz":[[1,0.0],[2,-0.0]]})",
      R"({"dims":4,"nz":[[3,0.5],[1,0.25]]})",
      R"({"dims":4,"nz":[[1,0.5],[1,0.25]]})",
      R"({"dims":4,"nz":[[4,0.5]]})", R"({"dims":4,"nz":[[1,"0.5"]]})",
      R"({"dims":1048577,"nz":[[5,0.5]]})",
      R"({"dims":1048576,"nz":[[5,0.5]]})", "[0.5,-0.0,1e-45,0]"};
  for (const Vector& v : StoredVectors()) {
    const SparseVector sparse = Sparse(v);
    // Writing: the same bytes as the dense ToJson (NaN and Inf as null).
    EXPECT_EQ(ToJson(sparse), ref::ToJson(v));
    columns.push_back(ref::ToJson(v));
    columns.push_back(DenseEmbeddingJson(v));
  }
  for (const std::string& column : columns) {
    const std::string what = column.substr(0, 60);
    const SparseVector decoded = FromJson(column);
    ExpectWellFormed(decoded, what);
    const Vector want = ref::FromJson(column);
    // Failure and dims 0 both mean "re-encode", as the empty vector did.
    ExpectBitEqual(ToDense(decoded), want, what);
    EXPECT_EQ(ToJson(decoded), ref::ToJson(want)) << what;
    // A sparse row's text survives decode -> encode byte for byte.
    if (decoded.dims != 0 && column.front() == '{' &&
        column == ref::ToJson(want)) {
      EXPECT_EQ(ToJson(decoded), column);
    }
  }
}

using Hits = std::vector<std::pair<int64_t, double>>;

Hits Pairs(const std::vector<search::PostingsIndex::Hit>& hits) {
  Hits out;
  for (const auto& h : hits) out.emplace_back(h.id, h.score);
  return out;
}

Hits Pairs(const std::vector<ref::DensePostingsIndex::Hit>& hits) {
  Hits out;
  for (const auto& h : hits) out.emplace_back(h.id, h.score);
  return out;
}

/// One index kind fed by `encode` (the production sparse encoder) and
/// `reference` (the dense one) on the same inputs.
template <typename Encode, typename Reference>
void ExpectIndexParity(const std::vector<std::string>& docs,
                       const std::vector<std::string>& queries, Encode encode,
                       Reference reference, const std::string& what) {
  search::PostingsIndex index(4096);
  ref::DensePostingsIndex dense(4096);
  auto upsert = [&](int64_t id, const std::string& doc) {
    index.Upsert(id, encode(doc));
    dense.Upsert(id, reference(doc));
  };
  auto upsert_vector = [&](int64_t id, const Vector& v) {
    index.Upsert(id, Sparse(v));
    dense.Upsert(id, v);
  };
  auto expect_same = [&](const std::string& stage) {
    ASSERT_EQ(index.size(), dense.size());
    for (const std::string& q : queries) {
      const SparseVector sparse_q = encode(q);
      const Vector dense_q = reference(q);
      for (size_t k : {size_t{1}, size_t{5}, size_t{50}, dense.size() + 1}) {
        ASSERT_EQ(Pairs(index.TopK(sparse_q, k)), Pairs(dense.TopK(dense_q, k)))
            << what << " " << stage << " k=" << k << " \"" << q.substr(0, 40)
            << "\"";
      }
    }
  };
  for (size_t i = 0; i < docs.size(); ++i) {
    upsert(static_cast<int64_t>(i + 1), docs[i]);
  }
  // Rows that get no postings or carry the column's edge cases.
  int64_t next = static_cast<int64_t>(docs.size()) + 1;
  for (const Vector& v : StoredVectors()) upsert_vector(next++, v);
  expect_same("built");
  // Remove every 7th row, re-add some (taking the freed slots), and
  // replace every 5th in place.
  for (int64_t id = 1; id < next; id += 7) {
    ASSERT_EQ(index.Remove(id), dense.Remove(id));
  }
  for (size_t i = 0; i < docs.size(); i += 14) {
    upsert(next++, docs[(i * 13) % docs.size()]);
  }
  for (size_t i = 3; i < docs.size(); i += 5) {
    upsert(static_cast<int64_t>(i + 1), docs[(i * 11) % docs.size()]);
  }
  expect_same("churned");
}

TEST(SparseEmbedding, PostingsIndexEqualsTheDenseIndex) {
  const dataset::CodeSearchNetPeDataset ds = Corpora().front();
  std::vector<std::string> descriptions, queries, codes, code_queries;
  for (const dataset::PeExample& ex : ds.examples()) {
    descriptions.push_back(ex.description);
    codes.push_back(ex.pe_code);
  }
  queries = {"", "zzqx vbnm", "the of a to in and"};
  for (size_t i = 0; i < ds.size(); i += 9) {
    queries.push_back(ds.example(i).query);
  }
  code_queries = {"", "x = 1\n"};
  for (size_t i = 2; i < ds.size(); i += 11) {
    code_queries.push_back(dataset::DropCode(ds.example(i).pe_code, 0.5));
  }
  const UnixcoderSim text;
  const ReaccSim code;
  ExpectIndexParity(
      descriptions, queries,
      [&](const std::string& t) { return text.Encode(t); },
      [](const std::string& t) { return ref::EncodeText(t); }, "text");
  ExpectIndexParity(
      codes, code_queries,
      [&](const std::string& c) { return code.Encode(c); },
      [](const std::string& c) { return ref::EncodeCode(c); }, "code");
}

}  // namespace
}  // namespace laminar::embed
