// The kernel table's first use, raced: several threads make the process's
// first simd call at the same moment. The binary holds this one test, so
// no earlier call has built the table; under the tsan preset a racy lazy
// initialization is reported, and on every build each thread must get the
// scalar reference's sums.
#include "simd/simd.hpp"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace laminar {
namespace {

TEST(SimdFirstUse, ConcurrentFirstCallsAgree) {
  constexpr int kThreads = 8;
  constexpr uint8_t kQuery = 7;
  std::vector<uint8_t> counts(257);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<uint8_t>(i * 37);
  }
  std::vector<uint32_t> want(counts.size(), 0);
  simd::AddMinU8Scalar(want.data(), counts.data(), counts.size(), kQuery);

  std::vector<std::vector<uint32_t>> sums(
      kThreads, std::vector<uint32_t>(counts.size(), 0));
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      simd::AddMinU8(sums[t].data(), counts.data(), counts.size(), kQuery);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(sums[t], want) << t;
}

}  // namespace
}  // namespace laminar
