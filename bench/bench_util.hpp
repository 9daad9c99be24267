// Shared helpers for the figure-reproduction benches: corpus construction
// over the synthetic CodeSearchNet-PE dataset and PR-table printing in the
// layout of the paper's Figs. 11-13.
#pragma once

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/hashing.hpp"
#include "common/value.hpp"
#include "dataset/generator.hpp"
#include "search/metrics.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::bench {

/// The corpus every search bench shares: the paper used ~450k CodeSearchNet
/// functions; we use a few hundred synthetic PEs with the same structure
/// (grouped, renamed variants), which is enough to trace the curves while
/// keeping every bench binary under a few seconds.
inline dataset::DatasetConfig DefaultCorpusConfig() {
  dataset::DatasetConfig config;
  config.families = 0;  // all 30 families
  config.variants_per_family = 12;
  config.seed = 0x5eed0001;
  // CodeSearchNet's defining property is that every function is *paired
  // with* its documentation (Husain et al. 2019), so the evaluation corpus
  // carries a docstring on every PE.
  config.docstring_probability = 1.0;
  return config;
}

/// Relevance ground truth: every member of the query's semantic group
/// (including the query itself, which stays in the index — the paper used
/// each registered PE as a query against the full registry).
inline std::vector<std::unordered_set<int64_t>> GroupRelevance(
    const dataset::CodeSearchNetPeDataset& ds) {
  std::vector<std::unordered_set<int64_t>> relevant;
  relevant.reserve(ds.size());
  for (const dataset::PeExample& ex : ds.examples()) {
    const std::vector<int64_t>& members = ds.GroupMembers(ex.group);
    relevant.emplace_back(members.begin(), members.end());
  }
  return relevant;
}

inline void PrintPrCurve(const char* title,
                         const std::vector<search::PrPoint>& curve) {
  std::printf("%s\n", title);
  std::printf("  %-4s %-10s %-10s %-10s\n", "k", "precision", "recall", "f1");
  for (const search::PrPoint& p : curve) {
    std::printf("  %-4zu %-10.4f %-10.4f %-10.4f\n", p.k, p.precision,
                p.recall, p.f1);
  }
  search::PrPoint best = search::BestF1(curve);
  std::printf("  best F1 = %.4f at k = %zu\n\n", best.f1, best.k);
}

/// Prints one summary line (count/mean/p50/p95/p99, milliseconds) for a
/// histogram in the global telemetry registry. Silent when the series was
/// never recorded or has no samples, so benches can request histograms for
/// code paths they may not have exercised.
inline void PrintHistogramLine(const char* name, const char* labels = "") {
  const telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().FindHistogram(name, labels);
  if (h == nullptr) return;
  telemetry::Histogram::Snapshot s = h->snapshot();
  if (s.count == 0) return;
  std::string series = name;
  if (labels[0] != '\0') {
    series += '{';
    series += labels;
    series += '}';
  }
  std::printf("  %-44s n=%-7llu mean=%-9.3f p50=%-9.3f p95=%-9.3f p99=%.3f\n",
              series.c_str(), static_cast<unsigned long long>(s.count),
              s.Mean(), s.Percentile(0.50), s.Percentile(0.95),
              s.Percentile(0.99));
}

/// Titled block of PrintHistogramLine calls — the standard way a bench
/// reports telemetry-sourced latency percentiles after its main table.
inline void PrintHistogramSummary(
    const char* title,
    std::initializer_list<std::pair<const char*, const char*>> series) {
  std::printf("%s (ms)\n", title);
  for (const auto& [name, labels] : series) PrintHistogramLine(name, labels);
  std::printf("\n");
}

/// The sources a report was built from: the git commit when
/// LAMINAR_SOURCE_DIR (set by bench/CMakeLists.txt) is a checkout, with
/// "-dirty" when tracked files differ from it, else an FNV-1a digest of the
/// .cpp, .hpp and .txt files under src, bench and examples — perfbench's
/// rule (perfbench/run.py), with its own hash.
inline std::string SourceId() {
  namespace fs = std::filesystem;
  const fs::path root = LAMINAR_SOURCE_DIR;
  std::error_code ec;
  if (fs::exists(root / ".git", ec)) {
    const std::string git = "git -C '" + root.string() + "' ";
    const std::string cmd = git + "rev-parse HEAD 2>/dev/null && { " + git +
                            "diff --quiet HEAD -- 2>/dev/null || echo dirty; }";
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
      char line[64] = {};
      std::string commit;
      if (std::fgets(line, sizeof line, pipe) != nullptr) commit = line;
      const bool dirty = std::fgets(line, sizeof line, pipe) != nullptr;
      const bool ok = pclose(pipe) == 0;
      while (!commit.empty() && commit.back() == '\n') commit.pop_back();
      if (ok && !commit.empty()) return dirty ? commit + "-dirty" : commit;
    }
  }
  std::vector<fs::path> files;
  for (const char* top : {"src", "bench", "examples"}) {
    for (fs::recursive_directory_iterator it(root / top, ec), end;
         !ec && it != end; it.increment(ec)) {
      const std::string ext = it->path().extension().string();
      if (it->is_regular_file() &&
          (ext == ".cpp" || ext == ".hpp" || ext == ".txt")) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    digest = hashing::Fnv1a64(fs::relative(file, root).string(), digest);
    digest = hashing::Fnv1a64(bytes, digest);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string("src-fnv1a64:") + hex;
}

/// Where a report was recorded: hardware threads, CPU model, the SIMD tier
/// the kernels dispatch to, the build type and sanitizer this bench was
/// compiled with (LAMINAR_BUILD_TYPE, set by bench/CMakeLists.txt) and the
/// sources (SourceId), as perfbench stamps its runs, so files from different
/// hosts or builds are not mistaken for one trajectory.
inline Value HostStamp() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
  Value host = Value::MakeObject();
  host["nproc"] = static_cast<int64_t>(std::thread::hardware_concurrency());
  host["cpu"] = cpu;
  host["simd"] = std::string(simd::TierName(simd::ActiveTier()));
  host["build_type"] = std::string(LAMINAR_BUILD_TYPE);
  host["sanitizer"] = std::string(sanitizer);
  host["commit"] = SourceId();
  return host;
}

/// Machine-readable companion to the human tables: every bench fills one
/// BenchReport and writes `BENCH_<name>.json` into the working directory,
/// so successive runs form a perf trajectory that scripts can diff. The
/// shape is deliberately simple:
///   { "bench": ..., "wall_ms": ...,        // whole-binary wall time
///     "host": { nproc, cpu, simd, build_type, sanitizer, commit },
///                                          // see HostStamp
///     "metrics": { flat scalars/strings }, // headline numbers
///     "rows": [ {...}, ... ],              // one object per table row
///     "histograms": { series -> {n, mean_ms, p50_ms, p95_ms, p99_ms} } }
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)),
        metrics_(Value::MakeObject()),
        rows_(Value::MakeArray()),
        histograms_(Value::MakeObject()) {}

  void Set(const std::string& key, double value) { metrics_[key] = value; }
  void Set(const std::string& key, int64_t value) { metrics_[key] = value; }
  void Set(const std::string& key, const std::string& value) {
    metrics_[key] = value;
  }

  /// Appends one row object (e.g. a printed table line) and returns it for
  /// the caller to fill: report.AddRow()["mapping"] = "dynamic"; ...
  Value& AddRow() {
    rows_.push_back(Value::MakeObject());
    return rows_.mutable_array().back();
  }

  /// Records a telemetry histogram's count/mean/p50/p95/p99 (milliseconds)
  /// under "histograms"; silently skipped when the series has no samples,
  /// mirroring PrintHistogramLine.
  void AddHistogram(const char* name, const char* labels = "") {
    const telemetry::Histogram* h =
        telemetry::MetricsRegistry::Global().FindHistogram(name, labels);
    if (h == nullptr) return;
    telemetry::Histogram::Snapshot s = h->snapshot();
    if (s.count == 0) return;
    std::string series = name;
    if (labels[0] != '\0') {
      series += '{';
      series += labels;
      series += '}';
    }
    Value entry = Value::MakeObject();
    entry["n"] = static_cast<int64_t>(s.count);
    entry["mean_ms"] = s.Mean();
    entry["p50_ms"] = s.Percentile(0.50);
    entry["p95_ms"] = s.Percentile(0.95);
    entry["p99_ms"] = s.Percentile(0.99);
    histograms_[series] = std::move(entry);
  }

  /// The report as Write() would save it now.
  Value Document() const {
    Value doc = Value::MakeObject();
    doc["bench"] = name_;
    doc["wall_ms"] = watch_.ElapsedMillis();
    doc["host"] = HostStamp();
    doc["metrics"] = metrics_;
    doc["rows"] = rows_;
    doc["histograms"] = histograms_;
    return doc;
  }

  /// Writes BENCH_<name>.json (returns false and warns on I/O failure —
  /// benches keep their exit status for correctness, not reporting).
  bool Write() const {
    const Value doc = Document();
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return false;
    }
    out << doc.ToJsonPretty() << "\n";
    std::printf("machine-readable report: %s\n", path.c_str());
    return static_cast<bool>(out);
  }

 private:
  std::string name_;
  Stopwatch watch_;
  Value metrics_;
  Value rows_;
  Value histograms_;
};

/// Records a PR curve in a report: one row per k (tagged with `slug`) plus
/// a `<slug>_best_f1` headline metric — the JSON twin of PrintPrCurve.
inline void ReportPrCurve(BenchReport& report, const std::string& slug,
                          const std::vector<search::PrPoint>& curve) {
  for (const search::PrPoint& p : curve) {
    Value& row = report.AddRow();
    row["curve"] = slug;
    row["k"] = static_cast<int64_t>(p.k);
    row["precision"] = p.precision;
    row["recall"] = p.recall;
    row["f1"] = p.f1;
  }
  report.Set(slug + "_best_f1", search::BestF1(curve).f1);
}

}  // namespace laminar::bench
