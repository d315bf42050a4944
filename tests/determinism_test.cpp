// Determinism contracts of the analysis stages.  What is claimed bitwise:
//
//   * the specialized Algorithm 2 gives the same result when several
//     analyses run it concurrently (the service runs one per worker);
//   * LstsqSolver::solve() is arithmetically identical to lstsq();
//   * the threaded pipeline stages (noise filter, projection) reproduce
//     their serial results exactly.
//
// Every randomized case derives its seeds from seed_util.hpp, so a failure
// replays with CATALYST_SEED=<n>.
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/noise.hpp"
#include "core/normalize.hpp"
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
    const linalg::LstsqSolver solver(a);
    for (int rhs = 0; rhs < 4; ++rhs) {
      linalg::Vector b(48);
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = std::cos(static_cast<double>(i) + 7.0 * rhs);
      }
      const auto direct = linalg::lstsq(a, b);
      const auto via_solver = solver.solve(b);
      EXPECT_TRUE(BitwiseEqual(direct.x, via_solver.x))
          << seed_banner(seed) << "rhs " << rhs;
      EXPECT_EQ(direct.residual_norm, via_solver.residual_norm)
          << seed_banner(seed);
      EXPECT_EQ(direct.backward_error, via_solver.backward_error)
          << seed_banner(seed);
      EXPECT_EQ(direct.rank_deficient, via_solver.rank_deficient)
          << seed_banner(seed);
    }
  }
}

// --- threaded pipeline stages ---------------------------------------------

TEST(PipelineStages, NormalizeEventsBitIdenticalAcrossThreads) {
  for (std::uint64_t seed : sweep_seeds(120, 3)) {
    const linalg::Matrix expectation = linalg::random_gaussian(12, 4, seed);
    std::vector<std::string> names;
    std::vector<std::vector<double>> measurements;
    for (int e = 0; e < 30; ++e) {
      names.push_back("EV" + std::to_string(e));
      const linalg::Matrix v =
          linalg::random_gaussian(12, 1, seed * 1000 + e);
      measurements.emplace_back(v.data().begin(), v.data().end());
    }
    const auto serial =
        core::normalize_events(expectation, names, measurements, 1e-2, 1);
    const auto threaded =
        core::normalize_events(expectation, names, measurements, 1e-2, 4);
    ASSERT_EQ(serial.representations.size(), threaded.representations.size());
    for (std::size_t e = 0; e < serial.representations.size(); ++e) {
      const auto& sr = serial.representations[e];
      const auto& tr = threaded.representations[e];
      EXPECT_EQ(sr.event_name, tr.event_name);
      EXPECT_EQ(sr.representable, tr.representable) << seed_banner(seed);
      EXPECT_EQ(sr.backward_error, tr.backward_error) << seed_banner(seed);
      EXPECT_TRUE(BitwiseEqual(sr.xe, tr.xe)) << seed_banner(seed);
    }
    EXPECT_EQ(serial.x_event_names, threaded.x_event_names);
    EXPECT_TRUE(BitwiseEqual(serial.x.data(), threaded.x.data()))
        << seed_banner(seed);
  }
}

TEST(PipelineStages, FilterNoiseBitIdenticalAcrossThreads) {
  for (std::uint64_t seed : sweep_seeds(140, 3)) {
    std::vector<std::string> names;
    std::vector<std::vector<std::vector<double>>> measurements;
    for (int e = 0; e < 24; ++e) {
      names.push_back("EV" + std::to_string(e));
      std::vector<std::vector<double>> reps;
      for (int r = 0; r < 3; ++r) {
        const linalg::Matrix v =
            linalg::random_gaussian(8, 1, seed * 997 + e * 7 + r);
        std::vector<double> rep(v.data().begin(), v.data().end());
        // A noisy third of the events: inflate one repetition so the tau
        // filter discards them identically on both paths.
        if (e % 3 == 0 && r == 2) {
          for (double& x : rep) x *= 1.5;
        }
        reps.push_back(std::move(rep));
      }
      measurements.push_back(std::move(reps));
    }
    const auto serial = core::filter_noise(names, measurements, 1e-1, 1);
    const auto threaded = core::filter_noise(names, measurements, 1e-1, 4);
    EXPECT_EQ(serial.kept, threaded.kept) << seed_banner(seed);
    ASSERT_EQ(serial.averaged.size(), threaded.averaged.size());
    for (std::size_t i = 0; i < serial.averaged.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(serial.averaged[i], threaded.averaged[i]))
          << seed_banner(seed);
    }
    ASSERT_EQ(serial.variabilities.size(), threaded.variabilities.size());
    for (std::size_t i = 0; i < serial.variabilities.size(); ++i) {
      EXPECT_EQ(serial.variabilities[i].max_rnmse,
                threaded.variabilities[i].max_rnmse)
          << seed_banner(seed);
      EXPECT_EQ(serial.variabilities[i].all_zero,
                threaded.variabilities[i].all_zero);
    }
  }
}

}  // namespace
