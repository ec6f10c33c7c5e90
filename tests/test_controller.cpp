// Tests for the generic neural controller model: CommandSet, the
// pre-processor, argmin post-processing, λ selection, and the
// concrete/abstract consistency property (every concretely selected command
// appears in the abstract result).

#include <gtest/gtest.h>

#include <memory>

#include "core/controller.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

TEST(CommandSet, ValidatesShape) {
  EXPECT_THROW(CommandSet{std::vector<Vec>{}}, std::invalid_argument);
  EXPECT_THROW(CommandSet{std::vector<Vec>{Vec{}}}, std::invalid_argument);
  EXPECT_THROW(CommandSet(std::vector<Vec>{Vec{1.0}, Vec{1.0, 2.0}}), std::invalid_argument);
  const CommandSet u({Vec{1.0}, Vec{-1.0}});
  EXPECT_EQ(u.size(), 2u);
  EXPECT_EQ(u.dim(), 1u);
  EXPECT_EQ(u[1][0], -1.0);
}

TEST(IdentityPre, PassesThrough) {
  const IdentityPre pre(3);
  EXPECT_EQ(pre.input_dim(), 3u);
  EXPECT_EQ(pre.eval(Vec{1.0, 2.0, 3.0}), (Vec{1.0, 2.0, 3.0}));
  const Box b(3, Interval{0.0, 1.0});
  EXPECT_EQ(pre.eval_abstract(b), b);
}

// Post is argmin: through an identity network the controller selects the
// smallest state coordinate, and Post# keeps every coordinate that can be
// minimal on the box, in each NN domain and in the relational step on the
// box's lift.
TEST(ArgminPost, ConcreteAndAbstract) {
  for (const NnDomain domain : {NnDomain::kInterval, NnDomain::kSymbolic}) {
    Network identity = make_zero_network({3, 3});
    for (std::size_t i = 0; i < 3; ++i) {
      identity.layer(0).weights(i, i) = 1.0;
    }
    std::vector<Network> nets;
    nets.push_back(std::move(identity));
    const NeuralController ctrl(CommandSet({Vec{0.0}, Vec{1.0}, Vec{2.0}}), std::move(nets),
                                {0, 0, 0}, std::make_unique<IdentityPre>(3), domain);
    EXPECT_EQ(ctrl.step(Vec{3.0, 1.0, 2.0}, 0), 1u);
    EXPECT_EQ(ctrl.step(Vec{1.0, 1.0, 2.0}, 0), 0u);  // first-index tie-break
    const Box separated{Interval{0.0, 1.0}, Interval{2.0, 3.0}, Interval{4.0, 5.0}};
    EXPECT_EQ(ctrl.step_abstract(separated, 0).commands, (std::vector<std::size_t>{0}));
    EXPECT_EQ(ctrl.step_abstract_relational(AffineSet::from_box(separated), 0).commands,
              (std::vector<std::size_t>{0}));
    const Box overlapping{Interval{0.0, 2.0}, Interval{1.0, 3.0}, Interval{4.0, 5.0}};
    EXPECT_EQ(ctrl.step_abstract(overlapping, 0).commands, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(ctrl.step_abstract_relational(AffineSet::from_box(overlapping), 0).commands,
              (std::vector<std::size_t>{0, 1}));
  }
}

/// A controller with two networks computing y = (x, c) for constants so the
/// winning command is fully predictable: network 0 -> y = (x0, 0.5),
/// network 1 -> y = (x0, -0.5).
NeuralController make_test_controller(NnDomain domain = NnDomain::kSymbolic) {
  std::vector<Network> nets;
  for (const double c : {0.5, -0.5}) {
    Network net = make_zero_network({1, 2});
    net.layer(0).weights(0, 0) = 1.0;
    net.layer(0).biases[1] = c;
    nets.push_back(std::move(net));
  }
  return NeuralController(CommandSet({Vec{0.0}, Vec{1.0}}), std::move(nets), {0, 1},
                          std::make_unique<IdentityPre>(1), domain);
}

TEST(NeuralController, LambdaSelectsNetworkByPreviousCommand) {
  const NeuralController ctrl = make_test_controller();
  // prev command 0 -> network 0 -> y = (x, 0.5): for x = 0, argmin = 0.
  EXPECT_EQ(ctrl.step(Vec{0.0}, 0), 0u);
  // for x = 1, argmin = 1 (0.5 < 1).
  EXPECT_EQ(ctrl.step(Vec{1.0}, 0), 1u);
  // prev command 1 -> network 1 -> y = (x, -0.5): argmin 1 for x = 0.
  EXPECT_EQ(ctrl.step(Vec{0.0}, 1), 1u);
  EXPECT_EQ(ctrl.step(Vec{-1.0}, 1), 0u);
}

TEST(NeuralController, AbstractStepSeparatesCleanRegions) {
  const NeuralController ctrl = make_test_controller();
  // x in [-2, -1] with network 0: y0 in [-2,-1] < 0.5 -> only command 0.
  const auto step = ctrl.step_abstract(Box{Interval{-2.0, -1.0}}, 0);
  ASSERT_EQ(step.commands.size(), 1u);
  EXPECT_EQ(step.commands[0], 0u);
  EXPECT_TRUE(step.network_input[0].contains(-1.5));
  EXPECT_TRUE(step.network_output[0].contains(-1.5));
}

TEST(NeuralController, AbstractStepKeepsBothOnBoundary) {
  const NeuralController ctrl = make_test_controller();
  // x in [0, 1] with network 0: y0 in [0,1] straddles 0.5 -> both commands.
  const auto step = ctrl.step_abstract(Box{Interval{0.0, 1.0}}, 0);
  EXPECT_EQ(step.commands.size(), 2u);
}

TEST(NeuralController, IntervalDomainAlsoSound) {
  const NeuralController ctrl = make_test_controller(NnDomain::kInterval);
  const auto step = ctrl.step_abstract(Box{Interval{-2.0, -1.0}}, 0);
  ASSERT_EQ(step.commands.size(), 1u);
  EXPECT_EQ(step.commands[0], 0u);
}

TEST(NeuralController, ValidatesConstruction) {
  auto make = [](std::vector<std::size_t> selector, std::size_t pre_dim) {
    std::vector<Network> nets;
    nets.push_back(make_zero_network({1, 2}));
    return NeuralController(CommandSet({Vec{0.0}, Vec{1.0}}), std::move(nets),
                            std::move(selector), std::make_unique<IdentityPre>(pre_dim));
  };
  EXPECT_THROW(make({0}, 1), std::invalid_argument);        // selector size != |U|
  EXPECT_THROW(make({0, 7}, 1), std::invalid_argument);     // selector out of range
  EXPECT_THROW(make({0, 0}, 3), std::invalid_argument);     // net input != Pre output
  EXPECT_NO_THROW(make({0, 0}, 1));
}

TEST(NeuralController, StepValidatesCommandIndex) {
  const NeuralController ctrl = make_test_controller();
  EXPECT_THROW(ctrl.step(Vec{0.0}, 7), std::out_of_range);
  EXPECT_THROW(ctrl.step_abstract(Box{Interval{0.0, 1.0}}, 7), std::out_of_range);
}

// Consistency property: for random networks and random boxes, the command
// chosen concretely from any sampled state is contained in the abstract
// command set (this is the controller-level soundness the reachability
// proof relies on).
class ControllerConsistency : public ::testing::TestWithParam<NnDomain> {};

TEST_P(ControllerConsistency, ConcreteCommandAlwaysInAbstractSet) {
  Rng rng(2718);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Network> nets;
    for (int n = 0; n < 3; ++n) {
      Network net = make_zero_network({2, 6, 3});
      for (std::size_t li = 0; li < net.num_layers(); ++li) {
        for (double& w : net.layer(li).weights.data()) {
          w = rng.uniform(-1.0, 1.0);
        }
        for (double& b : net.layer(li).biases) {
          b = rng.uniform(-0.3, 0.3);
        }
      }
      nets.push_back(std::move(net));
    }
    const NeuralController ctrl(CommandSet({Vec{0.0}, Vec{1.0}, Vec{2.0}}), std::move(nets),
                                {0, 1, 2}, std::make_unique<IdentityPre>(2), GetParam());
    for (int b = 0; b < 10; ++b) {
      const double lo0 = rng.uniform(-1.0, 1.0);
      const double lo1 = rng.uniform(-1.0, 1.0);
      const Box box{Interval{lo0, lo0 + 0.3}, Interval{lo1, lo1 + 0.3}};
      for (std::size_t prev = 0; prev < 3; ++prev) {
        const auto abstract = ctrl.step_abstract(box, prev);
        for (int s = 0; s < 20; ++s) {
          const Vec x{rng.uniform(box[0].lo(), box[0].hi()),
                      rng.uniform(box[1].lo(), box[1].hi())};
          const std::size_t chosen = ctrl.step(x, prev);
          ASSERT_NE(std::find(abstract.commands.begin(), abstract.commands.end(), chosen),
                    abstract.commands.end())
              << "concrete command " << chosen << " missing from abstract set";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, ControllerConsistency,
                         ::testing::Values(NnDomain::kInterval, NnDomain::kSymbolic),
                         [](const auto& info) {
                           return info.param == NnDomain::kInterval ? "interval" : "symbolic";
                         });

}  // namespace
}  // namespace nncs
