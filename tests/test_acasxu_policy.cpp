// Tests for the ground-truth advisory policy (the lookup-table substitute)
// and the ACAS Xu controller assembly.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <numbers>
#include <stdexcept>
#include <string>

#include "acasxu/controller.hpp"
#include "acasxu/dynamics.hpp"
#include "acasxu/policy.hpp"
#include "acasxu/training_pipeline.hpp"
#include "nn/argmin_analysis.hpp"
#include "util/rng.hpp"

namespace nncs::acasxu {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Policy, TurnRatesMatchPaperCommandSet) {
  EXPECT_DOUBLE_EQ(turn_rate(kCoc), 0.0);
  EXPECT_NEAR(turn_rate(kWL), 1.5 * kPi / 180.0, 1e-12);
  EXPECT_NEAR(turn_rate(kWR), -1.5 * kPi / 180.0, 1e-12);
  EXPECT_NEAR(turn_rate(kSL), 3.0 * kPi / 180.0, 1e-12);
  EXPECT_NEAR(turn_rate(kSR), -3.0 * kPi / 180.0, 1e-12);
  EXPECT_THROW(turn_rate(5), std::out_of_range);
}

TEST(Policy, AdvisoryNames) {
  EXPECT_STREQ(advisory_name(kCoc), "COC");
  EXPECT_STREQ(advisory_name(kSR), "SR");
  EXPECT_THROW(advisory_name(9), std::out_of_range);
}

TEST(Policy, ClearEncounterPrefersCoc) {
  // Intruder far away moving away: no alert needed.
  const Vec state{0.0, 8000.0, 0.2, 700.0, 600.0};  // nearly same heading
  EXPECT_EQ(best_advisory(state, kCoc), kCoc);
}

TEST(Policy, HeadOnCollisionCourseAlerts) {
  // Dead ahead, head-on at 4000 ft: without a maneuver the predicted
  // separation collapses; some turn must beat COC.
  const Vec state{0.0, 4000.0, kPi, 700.0, 600.0};
  const Vec scores = advisory_scores(state, kCoc);
  const std::size_t best = best_advisory(state, kCoc);
  EXPECT_NE(best, kCoc);
  EXPECT_GT(scores[kCoc], scores[best]);
}

TEST(Policy, SymmetricEncountersGiveMirroredAdvisories) {
  // Mirror the geometry (x -> -x, psi -> -psi): left/right advisories swap.
  const Vec left{-1500.0, 3000.0, -kPi / 2.0, 700.0, 600.0};
  const Vec right{1500.0, 3000.0, kPi / 2.0, 700.0, 600.0};
  const Vec sl = advisory_scores(left, kCoc);
  const Vec sr = advisory_scores(right, kCoc);
  EXPECT_NEAR(sl[kCoc], sr[kCoc], 1e-9);
  EXPECT_NEAR(sl[kWL], sr[kWR], 1e-9);
  EXPECT_NEAR(sl[kSL], sr[kSR], 1e-9);
}

TEST(Policy, ReversalPenaltyDiscouragesFlipFlops) {
  // Same geometry, different previous advisory: a previous WL makes WR more
  // expensive by exactly the reversal cost (all else equal).
  const PolicyConfig config;
  const Vec state{0.0, 7000.0, kPi, 700.0, 600.0};
  const Vec after_wl = advisory_scores(state, kWL, config);
  const Vec after_wr = advisory_scores(state, kWR, config);
  EXPECT_NEAR(after_wl[kWR] - after_wr[kWR],
              config.reversal_cost + config.switch_cost, 1e-9);
}

TEST(Policy, PredictedCollisionScoresAboveCleanPass) {
  const PolicyConfig config;
  // Imminent head-on collision vs distant crossing.
  const Vec imminent{0.0, 1200.0, kPi, 700.0, 600.0};
  const Vec clear{0.0, 7500.0, 0.0, 700.0, 600.0};
  EXPECT_GT(advisory_scores(imminent, kCoc)[kCoc], config.collision_penalty);
  EXPECT_LT(advisory_scores(clear, kCoc)[kCoc], 1.0);
}

TEST(Policy, ValidatesInputs) {
  EXPECT_THROW(advisory_scores(Vec{0.0, 1.0}, kCoc), std::invalid_argument);
  EXPECT_THROW(advisory_scores(Vec{0.0, 1.0, 0.0, 700.0, 600.0}, 7), std::out_of_range);
}

TEST(AcasController, CommandSetMatchesPolicy) {
  const CommandSet u = make_command_set();
  ASSERT_EQ(u.size(), kNumAdvisories);
  for (std::size_t a = 0; a < kNumAdvisories; ++a) {
    EXPECT_DOUBLE_EQ(u[a][0], turn_rate(a));
  }
}

TEST(AcasController, PreComputesNormalizedPolarFeatures) {
  const AcasPre pre;
  const Normalization& norm = kNormalization;
  const Vec state{0.0, 8000.0, 1.0, 700.0, 600.0};
  const Vec x = pre.eval(state);
  ASSERT_EQ(x.size(), 5u);
  EXPECT_NEAR(x[0], (8000.0 - norm.rho_mean) / norm.rho_range, 1e-9);
  EXPECT_NEAR(x[1], 0.0, 1e-9);  // dead ahead
  EXPECT_NEAR(x[2], 1.0 / norm.angle_range, 1e-9);
}

TEST(AcasController, PreAbstractContainsConcrete) {
  const AcasPre pre;
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    const double x_lo = rng.uniform(-6000.0, 5500.0);
    const double y_lo = rng.uniform(-6000.0, 5500.0);
    const double p_lo = rng.uniform(-3.0, 2.8);
    const Box box{Interval{x_lo, x_lo + 500.0}, Interval{y_lo, y_lo + 500.0},
                  Interval{p_lo, p_lo + 0.2}, Interval{700.0}, Interval{600.0}};
    const Box abstract = pre.eval_abstract(box);
    for (int s = 0; s < 10; ++s) {
      const Vec state{rng.uniform(box[0].lo(), box[0].hi()),
                      rng.uniform(box[1].lo(), box[1].hi()),
                      rng.uniform(box[2].lo(), box[2].hi()), 700.0, 600.0};
      const Vec features = pre.eval(state);
      for (std::size_t j = 0; j < features.size(); ++j) {
        ASSERT_TRUE(abstract[j].contains(features[j]))
            << "feature " << j << " escaped Pre#";
      }
    }
  }
}

// v_int = 600 is the normalization mean, so Pre#'s v_int feature is
// (600 − 600) / 1200: exactly [0, 0], not ±4.9e−324, which would send the
// NN transformers' first layer down the slow subnormal path.
TEST(AcasController, PreAbstractKeepsMeanSpeedFeatureExactlyZero) {
  const AcasPre pre;
  ASSERT_EQ(kNormalization.vint_mean, 600.0);
  const Box box{Interval{-100.0, 100.0}, Interval{7900.0, 8100.0}, Interval{3.0, 3.2},
                Interval{700.0}, Interval{600.0}};
  const Box features = pre.eval_abstract(box);
  EXPECT_EQ(features[4].lo(), 0.0) << features[4];
  EXPECT_EQ(features[4].hi(), 0.0) << features[4];
}

TEST(AcasController, MakeControllerValidatesNetworks) {
  EXPECT_THROW(make_controller({}), std::invalid_argument);
  std::vector<Network> wrong_shape(kNumAdvisories, make_zero_network({4, 5}));
  EXPECT_THROW(make_controller(std::move(wrong_shape)), std::invalid_argument);
}

TEST(AcasController, ControllerTracksPolicyOnTinyTraining) {
  // Train a deliberately tiny controller and check it *nearly* matches the
  // ground-truth policy (sanity of the pipeline: dataset generation,
  // training, Pre wiring). Exact argmin agreement is too brittle a metric —
  // the policy often has near-tied advisories (e.g. WL vs SL) where a small
  // regression error flips the argmin harmlessly — so we measure the
  // *regret*: the policy-score gap between the network's choice and the
  // optimal advisory.
  TrainingConfig config;
  config.trainer.hidden = {24, 24};
  config.trainer.epochs = 40;
  config.samples_per_network = 12000;
  const auto networks = train_networks(config);
  const auto controller = make_controller(networks);

  Rng rng(29);
  int low_regret = 0;
  int total = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const double rho0 = rng.uniform(1000.0, 8000.0);
    const double theta0 = rng.uniform(-kPi, kPi);
    const double psi0 = rng.uniform(-3.0, 3.0);
    const Vec state{-rho0 * std::sin(theta0), rho0 * std::cos(theta0), psi0, 700.0, 600.0};
    const std::size_t prev = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const Vec scores = advisory_scores(state, prev, config.policy);
    const std::size_t chosen = controller->step(state, prev);
    const double regret = scores[chosen] - scores[concrete_argmin(scores)];
    if (regret <= 1.0) {
      ++low_regret;
    }
    ++total;
  }
  EXPECT_GT(static_cast<double>(low_regret) / total, 0.9)
      << "trained controller should track its teacher with low regret";
}

TEST(AcasTraining, ConfigStampDetectsChanges) {
  TrainingConfig a;
  TrainingConfig b;
  EXPECT_EQ(config_stamp(a), config_stamp(b));
  b.samples_per_network += 1;
  EXPECT_NE(config_stamp(a), config_stamp(b));
  b = a;
  b.policy.alert_cost += 0.1;
  EXPECT_NE(config_stamp(a), config_stamp(b));
  b = a;
  b.trainer.hidden.push_back(8);
  EXPECT_NE(config_stamp(a), config_stamp(b));
}

TEST(AcasTraining, EnsureNetworksUsesCache) {
  const auto dir = std::filesystem::temp_directory_path() / "nncs_acas_cache_test";
  std::filesystem::remove_all(dir);
  TrainingConfig config;
  config.trainer.hidden = {8};
  config.trainer.epochs = 2;
  config.samples_per_network = 300;
  const auto first = ensure_networks(dir, config);
  ASSERT_EQ(first.size(), kNumAdvisories);
  // The file names of the committed acasxu_nets_cache/.
  EXPECT_TRUE(std::filesystem::exists(dir / "acas_net_4.nnet"));
  // Second call must load identical weights from the cache.
  const auto second = ensure_networks(dir, config);
  for (std::size_t i = 0; i < kNumAdvisories; ++i) {
    EXPECT_EQ(first[i].layers()[0].weights, second[i].layers()[0].weights);
  }
  // A changed config invalidates the cache (different hidden size).
  TrainingConfig other = config;
  other.trainer.hidden = {6};
  const auto third = ensure_networks(dir, other);
  EXPECT_EQ(third[0].layer_sizes()[1], 6u);
  std::filesystem::remove_all(dir);
}

TEST(AcasTraining, EnsureNetworksThrowsOnUnwritableStamp) {
  // A stamp that cannot be written would make every later run retrain, so
  // the cache must fail and say why. Here stamp.txt is a directory, or a
  // link into a directory that does not exist.
  TrainingConfig config;
  config.trainer.hidden = {4};
  config.trainer.epochs = 1;
  config.samples_per_network = 50;
  const auto dir = std::filesystem::temp_directory_path() / "nncs_acas_cache_stamp_test";
  for (const bool as_directory : {true, false}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    if (as_directory) {
      std::filesystem::create_directory(dir / "stamp.txt");
    } else {
      std::filesystem::create_symlink(dir / "missing" / "stamp.txt", dir / "stamp.txt");
    }
    try {
      (void)ensure_networks(dir, config);
      ADD_FAILURE() << "no error for an unwritable stamp (directory: " << as_directory << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot write stamp"), std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nncs::acasxu
