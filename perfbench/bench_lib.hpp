// Helpers of the Laminar end-to-end benchmark that carry its measurement
// rules, kept free of any server code so perfbench_selftest can pin them:
//
//  * percentiles — nearest rank; a tail is reported at the highest
//    percentile that still has at least 10 samples beyond it, together
//    with the sample count;
//  * the open-loop scheduler — request k is due at start + k / rate and its
//    latency is timed from that due time, so a stall shows up in every
//    request queued behind it; how late the generator sent is reported;
//  * seeded inputs — the Zipf query-pool sampler and the churn plan
//    (writes alternate register / remove, so each client holds at most one
//    PE beyond the corpus).
#pragma once

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hashing.hpp"
#include "common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// An independent seed for one input stream (`salt`) of a workload seed.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return laminar::hashing::Combine(laminar::hashing::SplitMix64(seed),
                                   laminar::hashing::SplitMix64(salt));
}

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---------------------------------------------------------------------------
// Percentiles

struct PercentileValue {
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;
  size_t samples = 0;       ///< samples the percentile was taken over
  size_t beyond = 0;        ///< samples strictly above its rank
};

/// Nearest-rank percentile of `samples` at `per_mille` (500 = p50, 990 =
/// p99). Integer rank arithmetic, so p95 of 200 samples is exactly rank 190.
inline PercentileValue PercentileAt(std::vector<double> samples,
                                    int per_mille) {
  PercentileValue out;
  out.percentile = per_mille / 10.0;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = (static_cast<size_t>(per_mille) * n + 999) / 1000;  // ceil
  rank = std::clamp<size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  return out;
}

/// The highest of p99.9, p99.5, p99, p98, p95, p90 and p75 that has at
/// least 10 samples beyond it; p50 when none has.
inline PercentileValue TailPercentile(const std::vector<double>& samples) {
  for (int per_mille : {999, 995, 990, 980, 950, 900, 750}) {
    PercentileValue p = PercentileAt(samples, per_mille);
    if (p.beyond >= 10) return p;
  }
  return PercentileAt(samples, 500);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// ---------------------------------------------------------------------------
// Open-loop scheduler

struct OpenLoopSample {
  size_t index = 0;
  double latency_ms = 0.0;       ///< due time -> completion
  double first_output_ms = 0.0;  ///< due time -> first output (or completion)
  double lag_ms = 0.0;           ///< due time -> actual send
  bool ok = false;
};

/// One scheduled operation. It runs request `index`, stores the time its
/// first output arrived into `*first_output` (left untouched means "at
/// completion") and returns whether it succeeded.
using OpenLoopOp =
    std::function<bool(size_t index, int worker, Clock::time_point* first_output)>;

/// Issues floor(rate * seconds) requests at fixed due times start + k/rate
/// from `max_in_flight` workers (worker w owns connection w). A request
/// whose due time passes while every worker is busy is sent late; its
/// latency still counts from the due time. Samples come back in due order.
inline std::vector<OpenLoopSample> RunOpenLoop(double rate_per_s,
                                               double seconds,
                                               int max_in_flight,
                                               const OpenLoopOp& op) {
  const size_t total = static_cast<size_t>(std::floor(rate_per_s * seconds));
  std::vector<OpenLoopSample> samples(total);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  auto due_of = [&](size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(k / rate_per_s));
  };
  auto worker = [&](int w) {
    for (size_t k = next.fetch_add(1); k < total; k = next.fetch_add(1)) {
      const Clock::time_point due = due_of(k);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      Clock::time_point first{};
      const bool ok = op(k, w, &first);
      const Clock::time_point done = Clock::now();
      if (first == Clock::time_point{}) first = done;
      OpenLoopSample& s = samples[k];
      s.index = k;
      s.ok = ok;
      s.lag_ms = MillisBetween(due, sent);
      s.latency_ms = MillisBetween(due, done);
      s.first_output_ms = MillisBetween(due, first);
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < max_in_flight; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();
  return samples;
}

// ---------------------------------------------------------------------------
// Seeded inputs

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(laminar::Rng& rng) const {
    const double u = rng.NextDouble();
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Distinct natural-language queries built from `bases` (family
/// descriptions and paraphrases) with fixed prefixes and suffixes, in a
/// seed-determined order, truncated to `target`. Rank 0 of the pool is the
/// most frequent query under ZipfSampler.
inline std::vector<std::string> BuildQueryPool(
    const std::vector<std::string>& bases, uint64_t seed, size_t target) {
  static constexpr std::string_view kPrefixes[] = {
      "",  "find a pe that ", "pe which ", "i need code that ",
      "search for something that ", "a processing element to ",
      "workflow step that ", "show me how to ", "function that ",
      "looking for a pe to ", "code which ", "stream operator that ",
      "component that ", "snippet that ", "find code to ", "python pe that "};
  static constexpr std::string_view kSuffixes[] = {
      "", " in a stream", " for each tuple", " quickly", " from the input",
      " in dispel4py", " with python", " per record", " on the fly"};
  std::vector<std::string> pool;
  std::set<std::string> seen;
  for (const std::string& base : bases) {
    std::string lower = base;
    for (char& c : lower) c = static_cast<char>(std::tolower(
                              static_cast<unsigned char>(c)));
    for (std::string_view p : kPrefixes) {
      for (std::string_view s : kSuffixes) {
        std::string q = std::string(p) + lower + std::string(s);
        if (seen.insert(q).second) pool.push_back(std::move(q));
      }
    }
  }
  laminar::Rng rng(seed);
  rng.Shuffle(pool);
  if (pool.size() > target) pool.resize(target);
  return pool;
}

/// One churn client's operation stream: a seeded share of writes, the rest
/// searches. Writes alternate register and remove of the client's own PE,
/// so at most one PE per client exists beyond the corpus at any time.
class ChurnPlan {
 public:
  enum class Op { kSearch, kRegister, kRemove };

  ChurnPlan(uint64_t seed, double write_share)
      : rng_(seed), write_share_(write_share) {}

  Op Next() {
    if (!rng_.NextBool(write_share_)) return Op::kSearch;
    outstanding_ = !outstanding_;
    return outstanding_ ? Op::kRegister : Op::kRemove;
  }
  /// True while the client's last write was a register.
  bool outstanding() const { return outstanding_; }

 private:
  laminar::Rng rng_;
  double write_share_;
  bool outstanding_ = false;
};

}  // namespace perfbench
