// Determinism contracts of the analysis stages.  What is claimed bitwise:
//
//   * the specialized Algorithm 2 gives the same result when several
//     analyses run it concurrently (the service runs one per worker);
//   * a block lstsq() gives every column exactly what a one-vector
//     lstsq() of that column gives.
//
// Every randomized case derives its seeds from seed_util.hpp, so a failure
// replays with CATALYST_SEED=<n>.
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/qrcp_special.hpp"
#include "linalg/linalg.hpp"
#include "seed_util.hpp"

namespace {

using namespace catalyst;
using catalyst::testing::seed_banner;
using catalyst::testing::sweep_seeds;

// Bitwise equality of two double sequences (0.0 == -0.0 would pass an ==
// comparison; the stages never produce the pair from identical inputs, so
// plain equality is the honest check and prints nicer diffs).
::testing::AssertionResult BitwiseEqual(std::span<const double> a,
                                        std::span<const double> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// --- specialized Algorithm 2 ----------------------------------------------

TEST(SpecializedQrcp, BitIdenticalAcrossThreads) {
  for (std::uint64_t seed : sweep_seeds(80, 5)) {
    const linalg::Matrix x = linalg::random_gaussian(16, 512, seed);
    const auto ref = core::specialized_qrcp(x, 5e-4);
    for (int threads : {2, 8}) {
      std::vector<core::SpecialQrcpResult> results(
          static_cast<std::size_t>(threads));
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < results.size(); ++t) {
        pool.emplace_back(
            [&, t] { results[t] = core::specialized_qrcp(x, 5e-4); });
      }
      for (std::thread& th : pool) th.join();
      for (const auto& res : results) {
        EXPECT_EQ(ref.rank, res.rank) << seed_banner(seed) << "t=" << threads;
        EXPECT_EQ(ref.selected, res.selected)
            << seed_banner(seed) << "t=" << threads;
        EXPECT_TRUE(BitwiseEqual(ref.pivot_scores, res.pivot_scores))
            << seed_banner(seed) << "t=" << threads;
      }
    }
  }
}

// --- prefactored least squares --------------------------------------------

TEST(LstsqSolver, SolveIsArithmeticallyIdenticalToLstsq) {
  for (std::uint64_t seed : sweep_seeds(100, 5)) {
    const linalg::Matrix a = linalg::random_gaussian(48, 16, seed);
    linalg::Matrix b(48, 4);
    for (linalg::index_t rhs = 0; rhs < b.cols(); ++rhs) {
      for (linalg::index_t i = 0; i < b.rows(); ++i) {
        b(i, rhs) = std::cos(static_cast<double>(i) + 7.0 * double(rhs));
      }
    }
    const auto block = linalg::lstsq(a, b);
    for (linalg::index_t rhs = 0; rhs < b.cols(); ++rhs) {
      const auto direct = linalg::lstsq(a, b.col(rhs));
      const auto j = static_cast<std::size_t>(rhs);
      EXPECT_TRUE(BitwiseEqual(direct.x, block.x.col(rhs)))
          << seed_banner(seed) << "rhs " << rhs;
      EXPECT_EQ(direct.residual_norm, block.residual_norms[j])
          << seed_banner(seed);
      EXPECT_EQ(direct.backward_error, block.backward_errors[j])
          << seed_banner(seed);
      EXPECT_EQ(direct.rank_deficient, block.rank_deficient)
          << seed_banner(seed);
    }
  }
}

}  // namespace
