// bench_ingest — before/after measurement of the registration (ingest) path
// rebuild (ISSUE 5): the retained pre-rebuild path (CodeT5 summary, UniXcoder
// text encode, SPT featurization, row insert and index add ALL inside one
// exclusive registry lock, exactly as the old RegisterPeLocked ran) versus
// the two-phase path (PreparePe off-lock on the request thread, a short
// exclusive CommitPe), plus a 90/10 read/write mix in the shape of the
// server's shared-lock routing and the serial-vs-ParallelFor bulk rebuild.
//
// Usage:
//   bench_ingest [--pes N] [--writers N] [--mixed-ops N] [--bulk N]
//                [--pool-threads N] [--smoke]
// --smoke shrinks everything to a sub-second corpus and asserts only
// correctness — two-phase commits must be search-for-search identical to
// the in-lock path, and both bulk rebuilds must reproduce the incremental
// index (exit 1 on divergence) — never throughput, so the tier-1 loop can
// compile- and run-check this binary without perf flakes.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "embed/codet5_sim.hpp"
#include "embed/embedding.hpp"
#include "pycode/parser.hpp"
#include "registry/repository.hpp"
#include "registry/schema.hpp"
#include "search/search_service.hpp"
#include "spt/recommend.hpp"

namespace laminar::bench {
namespace {

struct Args {
  size_t pes = 192;        ///< registrations per single-thread run
  size_t writers = 8;      ///< concurrent writer threads
  size_t per_writer = 32;  ///< registrations per writer thread
  size_t mixed_ops = 1200; ///< total ops in the 90/10 read/write mix
  size_t bulk = 512;       ///< corpus size for the bulk-rebuild comparison
  size_t pool_threads = 8; ///< ingest pool size for ParallelFor
  bool smoke = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](size_t fallback) -> size_t {
      return i + 1 < argc ? static_cast<size_t>(std::atoll(argv[++i]))
                          : fallback;
    };
    if (std::strcmp(argv[i], "--pes") == 0) args.pes = next(args.pes);
    else if (std::strcmp(argv[i], "--writers") == 0)
      args.writers = next(args.writers);
    else if (std::strcmp(argv[i], "--mixed-ops") == 0)
      args.mixed_ops = next(args.mixed_ops);
    else if (std::strcmp(argv[i], "--bulk") == 0) args.bulk = next(args.bulk);
    else if (std::strcmp(argv[i], "--pool-threads") == 0)
      args.pool_threads = next(args.pool_threads);
    else if (std::strcmp(argv[i], "--smoke") == 0) args.smoke = true;
  }
  if (args.smoke) {
    args.pes = 24;
    args.writers = 4;
    args.per_writer = 6;
    args.mixed_ops = 80;
    args.bulk = 32;
    args.pool_threads = 2;
  }
  return args;
}

// ---- synthetic PE corpus -------------------------------------------------

struct PeSpec {
  std::string name;
  std::string code;
  std::string description;  ///< empty: exercises the CodeT5 auto-summary
};

std::vector<PeSpec> MakeCorpus(size_t n, uint64_t seed,
                               const std::string& prefix) {
  static const char* kVerbs[] = {
      "filters",  "aggregates", "joins",   "deduplicates", "normalizes",
      "enriches", "scores",     "samples", "buckets",      "throttles"};
  static const char* kNouns[] = {
      "sensor readings", "click events",     "log lines",
      "market ticks",    "user sessions",    "image tiles",
      "trade orders",    "telemetry frames", "graph edges"};
  static const char* kExtras[] = {
      "per key",         "within a sliding window", "with exponential decay",
      "before fan-out",  "under backpressure",      "for the dashboard",
      "in arrival order"};
  Rng rng(seed);
  std::vector<PeSpec> corpus;
  corpus.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PeSpec spec;
    spec.name = prefix + std::to_string(i);
    int64_t k = rng.NextInt(2, 9);
    int64_t t = rng.NextInt(10, 99);
    // Three structurally different bodies so SPT features vary per PE.
    switch (rng.NextInt(0, 2)) {
      case 0:
        spec.code = "class " + spec.name +
                    "(IterativePE):\n"
                    "    def _process(self, data):\n"
                    "        return data * " + std::to_string(k) + " + " +
                    std::to_string(t) + "\n";
        break;
      case 1:
        spec.code = "class " + spec.name +
                    "(IterativePE):\n"
                    "    def _process(self, data):\n"
                    "        value = data + " + std::to_string(k) + "\n"
                    "        if value > " + std::to_string(t) + ":\n"
                    "            return value\n"
                    "        return None\n";
        break;
      default:
        spec.code = "class " + spec.name +
                    "(IterativePE):\n"
                    "    def _process(self, data):\n"
                    "        total = 0\n"
                    "        for item in data:\n"
                    "            total = total + item * " +
                    std::to_string(k) + "\n"
                    "        return total\n";
        break;
    }
    if (!rng.NextBool(0.2)) {  // 20% rely on the auto-summary
      spec.description = std::string(kVerbs[rng.NextBelow(10)]) + " " +
                         kNouns[rng.NextBelow(9)] + " " +
                         kExtras[rng.NextBelow(7)];
    }
    corpus.push_back(std::move(spec));
  }
  return corpus;
}

// ---- one registry+search instance guarded the way the server guards it --

struct Ingestor {
  registry::Database db;
  registry::Repository repo{db};
  search::SearchService search{repo};
  embed::CodeT5Sim codet5;
  std::shared_mutex mu;

  Ingestor() {
    Status s = registry::CreateLaminarSchema(db);
    if (!s.ok()) {
      std::fprintf(stderr, "schema: %s\n", s.message().c_str());
      std::exit(1);
    }
  }

  /// The summary reads `parsed` when given, else parses the code itself.
  registry::PeRecord MakeRecord(
      const PeSpec& spec,
      const Result<pycode::NodePtr>* parsed = nullptr) const {
    registry::PeRecord pe;
    pe.code = spec.code;
    pe.name = spec.name;
    if (!spec.description.empty()) {
      pe.description = spec.description;
    } else if (parsed != nullptr) {
      pe.description =
          codet5.Summarize(*parsed, embed::DescriptionContext::kFullClass);
    } else {
      pe.description =
          codet5.Summarize(spec.code, embed::DescriptionContext::kFullClass);
    }
    pe.type = "IterativePE";
    return pe;
  }

  /// The pre-rebuild path: summary, text encode, SPT featurization, row
  /// insert and index add all while holding the registry lock exclusively
  /// (the lock spans the same work the old handler did).
  Result<int64_t> RegisterBaseline(const PeSpec& spec) {
    std::unique_lock lock(mu);
    registry::PeRecord pe = MakeRecord(spec);
    pe.description_embedding =
        embed::ToJson(search.text_encoder().Encode(pe.description));
    Result<spt::FeatureBag> bag = search.aroma().Featurize(pe.code);
    if (bag.ok() && bag->total > 0) {
      pe.spt_embedding = spt::FeatureBagToJson(*bag);
    }
    Result<int64_t> id = repo.CreatePe(pe);
    if (!id.ok()) return id;
    Status added = search.AddPe(*id);
    if (!added.ok()) return added;
    return id;
  }

  /// The two-phase path: every encode runs before the lock; the exclusive
  /// section is just the row insert plus precomputed-vector upserts.
  Result<int64_t> RegisterTwoPhase(const PeSpec& spec) {
    // As the server registers: one lex and one parse feed the summary and
    // every prepare step.
    const pycode::ParsedSnippet parsed = pycode::ParseSnippet(spec.code);
    registry::PeRecord pe = MakeRecord(spec, &parsed.tree);
    search::SearchService::PreparedPe prepared = search.PreparePe(
        pe.name, pe.description, /*stored=*/"", pe.code, parsed);
    pe.description_embedding = embed::ToJson(prepared.text_embedding);
    if (prepared.has_features) {
      pe.spt_embedding = spt::FeatureBagToJson(prepared.features);
    }
    std::unique_lock lock(mu);
    Result<int64_t> id = repo.CreatePe(pe);
    if (!id.ok()) return id;
    search.CommitPe(*id, std::move(prepared));
    return id;
  }

  std::vector<search::SearchHit> Semantic(const std::string& query) {
    std::shared_lock lock(mu);
    return search.SemanticSearch(query, search::SearchTarget::kPe, 5);
  }
};

using RegisterFn = Result<int64_t> (Ingestor::*)(const PeSpec&);

double Percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

// ---- parity gate ---------------------------------------------------------

bool SameHits(const std::vector<search::SearchHit>& a,
              const std::vector<search::SearchHit>& b, const char* what) {
  if (a.size() != b.size()) {
    std::fprintf(stderr, "parity failure (%s): %zu hits != %zu hits\n", what,
                 a.size(), b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].score != b[i].score) {
      std::fprintf(stderr,
                   "parity failure (%s) at rank %zu: %s score=%.17g vs "
                   "%s score=%.17g\n",
                   what, i, a[i].name.c_str(), a[i].score, b[i].name.c_str(),
                   b[i].score);
      return false;
    }
  }
  return true;
}

/// Two-phase commits, and both bulk rebuilds, must be indistinguishable from
/// the in-lock path across all three search modalities.
bool ParityGate(const std::vector<PeSpec>& corpus, size_t pool_threads) {
  Ingestor in_lock;
  Ingestor two_phase;
  for (const PeSpec& spec : corpus) {
    Result<int64_t> a = in_lock.RegisterBaseline(spec);
    Result<int64_t> b = two_phase.RegisterTwoPhase(spec);
    if (!a.ok() || !b.ok() || *a != *b) {
      std::fprintf(stderr, "parity failure: registration of %s diverged\n",
                   spec.name.c_str());
      return false;
    }
  }
  auto compare_all = [&](const char* label) {
    for (const PeSpec& spec : corpus) {
      const std::string query =
          spec.description.empty() ? spec.name : spec.description;
      if (!SameHits(in_lock.Semantic(query), two_phase.Semantic(query),
                    label)) {
        return false;
      }
      auto lit_a = in_lock.search.LiteralSearch(spec.name,
                                                search::SearchTarget::kPe, 3);
      auto lit_b = two_phase.search.LiteralSearch(
          spec.name, search::SearchTarget::kPe, 3);
      if (!SameHits(lit_a, lit_b, label)) return false;
      auto rec_a = in_lock.search.CodeRecommendation(
          spec.code, search::SearchTarget::kPe, 3);
      auto rec_b = two_phase.search.CodeRecommendation(
          spec.code, search::SearchTarget::kPe, 3);
      if (!rec_a.ok() || !rec_b.ok() ||
          rec_a->size() != rec_b->size()) {
        std::fprintf(stderr, "parity failure (%s): recommendation sizes\n",
                     label);
        return false;
      }
      for (size_t i = 0; i < rec_a->size(); ++i) {
        if ((*rec_a)[i].id != (*rec_b)[i].id ||
            (*rec_a)[i].score != (*rec_b)[i].score) {
          std::fprintf(stderr, "parity failure (%s): recommendation rank "
                       "%zu\n", label, i);
          return false;
        }
      }
    }
    return true;
  };
  if (!compare_all("two-phase vs in-lock")) return false;
  // Serial rebuild of the two-phase instance must change nothing.
  if (!two_phase.search.ReindexAll(nullptr).ok()) return false;
  if (!compare_all("serial rebuild")) return false;
  // Parallel rebuild likewise, regardless of which pool thread prepared
  // which row.
  ThreadPool pool(pool_threads);
  if (!two_phase.search.ReindexAll(&pool).ok()) return false;
  if (!compare_all("parallel rebuild")) return false;
  return true;
}

// ---- measured sections ---------------------------------------------------

double SingleThreadRegsPerSec(const std::vector<PeSpec>& corpus,
                              RegisterFn reg) {
  Ingestor ing;
  Stopwatch watch;
  for (const PeSpec& spec : corpus) {
    if (!(ing.*reg)(spec).ok()) std::exit(1);
  }
  return static_cast<double>(corpus.size()) / watch.ElapsedSeconds();
}

double MultiWriterRegsPerSec(const std::vector<PeSpec>& corpus,
                             size_t writers, RegisterFn reg) {
  Ingestor ing;
  std::atomic<size_t> failures{0};
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(writers);
  const size_t per_writer = corpus.size() / writers;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w * per_writer; i < (w + 1) * per_writer; ++i) {
        if (!(ing.*reg)(corpus[i]).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double seconds = watch.ElapsedSeconds();
  if (failures.load() != 0) {
    std::fprintf(stderr, "multi-writer registrations failed\n");
    std::exit(1);
  }
  return static_cast<double>(per_writer * writers) / seconds;
}

struct MixedOut {
  double ops_per_sec = 0.0;
  double search_p50_ms = 0.0;
  double search_p95_ms = 0.0;
};

/// 90/10 read/write mix: every 10th op registers a PE, the rest run
/// semantic searches under the shared lock — the server's routing shape.
MixedOut MixedWorkload(const std::vector<PeSpec>& seed,
                       const std::vector<PeSpec>& fresh, size_t threads,
                       size_t total_ops, RegisterFn reg) {
  Ingestor ing;
  for (const PeSpec& spec : seed) {
    if (!(ing.*reg)(spec).ok()) std::exit(1);
  }
  std::vector<std::string> queries;
  queries.reserve(seed.size());
  for (const PeSpec& spec : seed) {
    queries.push_back(spec.description.empty() ? spec.name : spec.description);
  }
  const size_t per_thread = total_ops / threads;
  std::vector<std::vector<double>> lat(threads);
  std::atomic<size_t> next_fresh{0};
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      lat[t].reserve(per_thread);
      for (size_t i = 0; i < per_thread; ++i) {
        if (i % 10 == 9) {
          size_t idx = next_fresh.fetch_add(1);
          if (idx < fresh.size()) {
            if (!(ing.*reg)(fresh[idx]).ok()) std::exit(1);
            continue;
          }
        }
        Stopwatch one;
        ing.Semantic(queries[(t * per_thread + i) % queries.size()]);
        lat[t].push_back(one.ElapsedMillis());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  double seconds = watch.ElapsedSeconds();
  std::vector<double> all;
  for (const auto& per : lat) all.insert(all.end(), per.begin(), per.end());
  std::sort(all.begin(), all.end());
  MixedOut out;
  out.ops_per_sec = static_cast<double>(per_thread * threads) / seconds;
  out.search_p50_ms = Percentile(all, 0.50);
  out.search_p95_ms = Percentile(all, 0.95);
  return out;
}

int RunBench(const Args& args) {
  BenchReport report("ingest");
  std::printf("bench_ingest: pes=%zu writers=%zu per_writer=%zu "
              "mixed_ops=%zu bulk=%zu pool_threads=%zu hw_threads=%u%s\n\n",
              args.pes, args.writers, args.per_writer, args.mixed_ops,
              args.bulk, args.pool_threads,
              std::thread::hardware_concurrency(),
              args.smoke ? " (smoke)" : "");

  // Correctness gate first, in every mode: the fast path must be
  // indistinguishable from the old one.
  std::vector<PeSpec> parity_corpus =
      MakeCorpus(args.smoke ? 24 : 48, 0x1a71e5ULL, "ParityPe");
  if (!ParityGate(parity_corpus, args.pool_threads)) return 1;
  std::printf("parity: two-phase, serial-rebuild and parallel-rebuild "
              "indexes all match the in-lock path on %zu PEs x 3 "
              "modalities\n\n", parity_corpus.size());

  // --- single-thread registrations/sec ---
  std::vector<PeSpec> corpus_1t = MakeCorpus(args.pes, 0x0ddba11ULL, "SoloPe");
  double base_1t =
      SingleThreadRegsPerSec(corpus_1t, &Ingestor::RegisterBaseline);
  double two_1t =
      SingleThreadRegsPerSec(corpus_1t, &Ingestor::RegisterTwoPhase);
  std::printf("single-thread ingest (%zu registrations)\n", args.pes);
  std::printf("  %-38s %10.1f regs/s\n", "in-lock encode (old path)", base_1t);
  std::printf("  %-38s %10.1f regs/s\n", "two-phase commit (new path)",
              two_1t);
  std::printf("  speedup: %.2fx\n\n", two_1t / base_1t);

  // --- 8-writer registrations/sec: the headline number. With encodes
  // in-lock every writer serializes; two-phase overlaps all encode work. ---
  std::vector<PeSpec> corpus_mw =
      MakeCorpus(args.writers * args.per_writer, 0xfa57f00dULL, "FleetPe");
  double base_mw =
      MultiWriterRegsPerSec(corpus_mw, args.writers, &Ingestor::RegisterBaseline);
  double two_mw =
      MultiWriterRegsPerSec(corpus_mw, args.writers, &Ingestor::RegisterTwoPhase);
  std::printf("%zu-writer ingest (%zu registrations total)\n", args.writers,
              corpus_mw.size());
  std::printf("  %-38s %10.1f regs/s\n", "in-lock encode (old path)", base_mw);
  std::printf("  %-38s %10.1f regs/s\n", "two-phase commit (new path)",
              two_mw);
  std::printf("  speedup: %.2fx (encode overlap is bounded by the hardware "
              "limit: %u core(s))\n\n",
              two_mw / base_mw, std::thread::hardware_concurrency());

  // --- 90/10 mixed read/write: searches run under the shared lock, so the
  // question is how long writers block them out. ---
  std::vector<PeSpec> mixed_seed =
      MakeCorpus(args.smoke ? 16 : 64, 0x5eedf00dULL, "MixSeedPe");
  std::vector<PeSpec> mixed_fresh =
      MakeCorpus(args.mixed_ops / 10 + args.writers, 0xf7e5ffULL, "MixNewPe");
  MixedOut base_mix = MixedWorkload(mixed_seed, mixed_fresh, args.writers,
                                    args.mixed_ops,
                                    &Ingestor::RegisterBaseline);
  MixedOut two_mix = MixedWorkload(mixed_seed, mixed_fresh, args.writers,
                                   args.mixed_ops,
                                   &Ingestor::RegisterTwoPhase);
  std::printf("90/10 read/write mix (%zu ops, %zu threads, search latency)\n",
              args.mixed_ops, args.writers);
  std::printf("  %-38s %10.1f ops/s  p50=%.3f ms  p95=%.3f ms\n",
              "in-lock encode (old path)", base_mix.ops_per_sec,
              base_mix.search_p50_ms, base_mix.search_p95_ms);
  std::printf("  %-38s %10.1f ops/s  p50=%.3f ms  p95=%.3f ms\n",
              "two-phase commit (new path)", two_mix.ops_per_sec,
              two_mix.search_p50_ms, two_mix.search_p95_ms);
  std::printf("  search p95: %.3f ms -> %.3f ms\n\n", base_mix.search_p95_ms,
              two_mix.search_p95_ms);

  // --- bulk rebuild: the startup/load path. ---
  std::vector<PeSpec> bulk_corpus =
      MakeCorpus(args.bulk, 0xb01dULL, "BulkPe");
  Ingestor bulk_ing;
  for (const PeSpec& spec : bulk_corpus) {
    if (!bulk_ing.RegisterTwoPhase(spec).ok()) return 1;
  }
  Stopwatch serial_watch;
  if (!bulk_ing.search.ReindexAll(nullptr).ok()) return 1;
  double serial_ms = serial_watch.ElapsedMillis();
  ThreadPool pool(args.pool_threads);
  Stopwatch pooled_watch;
  if (!bulk_ing.search.ReindexAll(&pool).ok()) return 1;
  double pooled_ms = pooled_watch.ElapsedMillis();
  std::printf("bulk index rebuild (%zu PEs)\n", args.bulk);
  std::printf("  %-38s %10.1f ms\n", "serial prepare+commit", serial_ms);
  std::printf("  %-38s %10.1f ms  (%zu pool threads + caller)\n",
              "ParallelFor prepare, serial commit", pooled_ms,
              args.pool_threads);
  std::printf("  speedup: %.2fx\n", serial_ms / pooled_ms);

  report.Set("pes", static_cast<int64_t>(args.pes));
  report.Set("writers", static_cast<int64_t>(args.writers));
  report.Set("pool_threads", static_cast<int64_t>(args.pool_threads));
  report.Set("inlock_regs_per_s_1t", base_1t);
  report.Set("twophase_regs_per_s_1t", two_1t);
  report.Set("speedup_1t", two_1t / base_1t);
  report.Set("inlock_regs_per_s_mw", base_mw);
  report.Set("twophase_regs_per_s_mw", two_mw);
  report.Set("speedup_8writer", two_mw / base_mw);
  report.Set("mixed_inlock_ops_per_s", base_mix.ops_per_sec);
  report.Set("mixed_twophase_ops_per_s", two_mix.ops_per_sec);
  report.Set("mixed_inlock_search_p95_ms", base_mix.search_p95_ms);
  report.Set("mixed_twophase_search_p95_ms", two_mix.search_p95_ms);
  report.Set("bulk_docs", static_cast<int64_t>(args.bulk));
  report.Set("bulk_serial_ms", serial_ms);
  report.Set("bulk_parallel_ms", pooled_ms);
  report.Set("bulk_speedup", serial_ms / pooled_ms);
  if (!args.smoke) report.Write();  // a smoke run gates; it records nothing
  return 0;
}

}  // namespace
}  // namespace laminar::bench

int main(int argc, char** argv) {
  return laminar::bench::RunBench(laminar::bench::ParseArgs(argc, argv));
}
