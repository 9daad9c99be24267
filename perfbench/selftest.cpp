// Tests of the benchmark's own measurement rules (bench_lib.hpp) and of its
// seeded input generation. Build and run:
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bench_lib.hpp"
#include "dataset/families.hpp"
#include "dataset/generator.hpp"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));  // n..1
  return v;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  PercentileValue p50 = PercentileAt(Ramp(200), 500);
  EXPECT_EQ(p50.value, 100.0);
  EXPECT_EQ(p50.samples, 200u);
  EXPECT_EQ(p50.beyond, 100u);
  PercentileValue p95 = PercentileAt(Ramp(200), 950);
  EXPECT_EQ(p95.value, 190.0);
  EXPECT_EQ(p95.beyond, 10u);
}

TEST(Percentile, TailIsHighestWithTenSamplesBeyond) {
  // 200 samples: p95 leaves exactly 10 beyond, p98 only 4.
  PercentileValue t = TailPercentile(Ramp(200));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 190.0);
  EXPECT_EQ(t.samples, 200u);
  EXPECT_EQ(t.beyond, 10u);
  // 199 samples: p95 leaves 9, so the tail falls back to p90.
  t = TailPercentile(Ramp(199));
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_GE(t.beyond, 10u);
  // 10000 samples: p99.9 leaves exactly 10.
  t = TailPercentile(Ramp(10000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 9990.0);
  // Too few samples for any tail: the median, with its count.
  t = TailPercentile(Ramp(15));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.samples, 15u);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // 100 ops/s for 0.2 s = 20 requests, each taking 25 ms on one worker:
  // the generator falls behind, request k is sent about 15*k ms late, and
  // its latency includes that wait.
  const auto op = [](size_t, int, Clock::time_point*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    return true;
  };
  std::vector<OpenLoopSample> s = RunOpenLoop(100.0, 0.2, 1, op);
  ASSERT_EQ(s.size(), 20u);
  for (size_t k = 0; k < s.size(); ++k) {
    EXPECT_EQ(s[k].index, k);
    EXPECT_TRUE(s[k].ok);
    EXPECT_GE(s[k].latency_ms, s[k].lag_ms + 25.0 - 0.5);
    EXPECT_EQ(s[k].first_output_ms, s[k].latency_ms);
  }
  EXPECT_GE(s.back().lag_ms, 19 * 15.0 - 5.0);
  EXPECT_GT(s.back().latency_ms, s.front().latency_ms + 200.0);
}

TEST(OpenLoop, KeepsScheduleWhenWorkersSuffice) {
  const auto op = [](size_t, int, Clock::time_point* first) {
    *first = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return true;
  };
  const Clock::time_point start = Clock::now();
  std::vector<OpenLoopSample> s = RunOpenLoop(50.0, 0.2, 3, op);
  const double wall_ms = MillisBetween(start, Clock::now());
  ASSERT_EQ(s.size(), 10u);
  // Ten requests due over 180 ms: the run ends near the last due time.
  EXPECT_GE(wall_ms, 180.0);
  EXPECT_LT(wall_ms, 400.0);
  for (const OpenLoopSample& x : s) {
    EXPECT_LE(x.first_output_ms, x.latency_ms);
    EXPECT_GE(x.latency_ms, 5.0);
  }
}

std::vector<std::string> Bases() {
  std::vector<std::string> bases;
  for (const auto& f : laminar::dataset::Families()) {
    bases.emplace_back(f.description);
    bases.emplace_back(f.paraphrase_a);
  }
  return bases;
}

TEST(SeededInputs, SameSeedSameInputs) {
  EXPECT_EQ(BuildQueryPool(Bases(), 7, 4096), BuildQueryPool(Bases(), 7, 4096));
  laminar::dataset::DatasetConfig cfg;
  cfg.families = 30;
  cfg.variants_per_family = 4;
  cfg.seed = DeriveSeed(7, 2);
  auto a = laminar::dataset::CodeSearchNetPeDataset::Generate(cfg);
  auto b = laminar::dataset::CodeSearchNetPeDataset::Generate(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.example(i).pe_code, b.example(i).pe_code);
  }
  const ZipfSampler zipf(4096, 1.0);
  laminar::Rng r1(DeriveSeed(7, 300));
  laminar::Rng r2(DeriveSeed(7, 300));
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf.Sample(r1), zipf.Sample(r2));
}

TEST(SeededInputs, DifferentSeedsDifferentInputs) {
  const std::vector<std::string> a = BuildQueryPool(Bases(), 7, 4096);
  const std::vector<std::string> b = BuildQueryPool(Bases(), 8, 4096);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_NE(a, b);
  laminar::dataset::DatasetConfig cfg;
  cfg.families = 30;
  cfg.variants_per_family = 4;
  cfg.seed = DeriveSeed(7, 2);
  auto x = laminar::dataset::CodeSearchNetPeDataset::Generate(cfg);
  cfg.seed = DeriveSeed(8, 2);
  auto y = laminar::dataset::CodeSearchNetPeDataset::Generate(cfg);
  size_t differing = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    differing += x.example(i).pe_code != y.example(i).pe_code;
  }
  EXPECT_GT(differing, x.size() / 2);
  EXPECT_NE(DeriveSeed(7, 1), DeriveSeed(8, 1));
  EXPECT_NE(DeriveSeed(7, 1), DeriveSeed(7, 2));
}

TEST(SeededInputs, ZipfFavoursLowRanksButReachesTheTail) {
  const ZipfSampler zipf(4096, 1.0);
  laminar::Rng rng(1);
  size_t rank0 = 0, beyond256 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const size_t r = zipf.Sample(rng);
    ASSERT_LT(r, 4096u);
    rank0 += r == 0;
    beyond256 += r >= 256;
  }
  // P(rank 0) = 1/H(4096) ~ 0.112; P(rank >= 256) ~ 0.32.
  EXPECT_NEAR(rank0 / double(n), 0.112, 0.01);
  EXPECT_NEAR(beyond256 / double(n), 0.32, 0.02);
}

TEST(Churn, RegistrySizeStaysWithinConnections) {
  // Three clients interleaved at random: each holds at most one PE beyond
  // the corpus, so the registry stays within [corpus, corpus + 3].
  constexpr int kClients = 3;
  constexpr int kCorpus = 120;
  std::vector<ChurnPlan> plans;
  for (int c = 0; c < kClients; ++c) plans.emplace_back(DeriveSeed(5, 400 + c), 0.10);
  laminar::Rng order(9);
  int size = kCorpus;
  int writes = 0;
  for (int step = 0; step < 100000; ++step) {
    ChurnPlan& plan = plans[order.NextBelow(kClients)];
    switch (plan.Next()) {
      case ChurnPlan::Op::kRegister: ++size; ++writes; break;
      case ChurnPlan::Op::kRemove: --size; ++writes; break;
      case ChurnPlan::Op::kSearch: break;
    }
    ASSERT_GE(size, kCorpus);
    ASSERT_LE(size, kCorpus + kClients);
  }
  EXPECT_NEAR(writes / 100000.0, 0.10, 0.01);
  int outstanding = 0;
  for (const ChurnPlan& p : plans) outstanding += p.outstanding();
  EXPECT_EQ(size, kCorpus + outstanding);
}

}  // namespace
}  // namespace perfbench
