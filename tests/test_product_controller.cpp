// Tests for the multi-agent ProductController (paper §8 extension): the
// cross-product command set, λ-style index split/join, concrete composition
// and the abstract-contains-concrete soundness property.

#include <gtest/gtest.h>

#include <memory>

#include "core/product_controller.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

/// Single-network controller: y = (x0, c) so command 1 is selected iff
/// x0 > c (argmin picks the smaller score).
std::unique_ptr<NeuralController> threshold_net_controller(double c) {
  Network net = make_zero_network({1, 2});
  net.layer(0).weights(0, 0) = 1.0;
  net.layer(0).biases[1] = c;
  std::vector<Network> nets;
  nets.push_back(std::move(net));
  return std::make_unique<NeuralController>(
      CommandSet({Vec{0.0}, Vec{1.0}}), std::move(nets), std::vector<std::size_t>{0, 0},
      std::make_unique<IdentityPre>(1));
}

/// View selecting one coordinate of a 2-dimensional global state.
StateView coordinate_view(std::size_t idx) {
  return StateView{[idx](const Vec& s) { return Vec{s[idx]}; },
                   [idx](const Box& b) { return Box{b[idx]}; }};
}

struct Fixture {
  std::unique_ptr<NeuralController> a = threshold_net_controller(0.5);
  std::unique_ptr<NeuralController> b = threshold_net_controller(-0.5);
  ProductController product{*a, *b, coordinate_view(0), coordinate_view(1), 2};
};

TEST(ProductController, CommandSetIsCrossProduct) {
  Fixture f;
  ASSERT_EQ(f.product.commands().size(), 4u);
  EXPECT_EQ(f.product.commands().dim(), 2u);
  // index = ia * |Ub| + ib; values are concatenated.
  EXPECT_EQ(f.product.commands()[0], (Vec{0.0, 0.0}));
  EXPECT_EQ(f.product.commands()[1], (Vec{0.0, 1.0}));
  EXPECT_EQ(f.product.commands()[2], (Vec{1.0, 0.0}));
  EXPECT_EQ(f.product.commands()[3], (Vec{1.0, 1.0}));
}

TEST(ProductController, SplitJoinRoundTrip) {
  Fixture f;
  for (std::size_t ia = 0; ia < 2; ++ia) {
    for (std::size_t ib = 0; ib < 2; ++ib) {
      const std::size_t joined = f.product.join_command(ia, ib);
      const auto [sa, sb] = f.product.split_command(joined);
      EXPECT_EQ(sa, ia);
      EXPECT_EQ(sb, ib);
    }
  }
  EXPECT_THROW(f.product.split_command(99), std::out_of_range);
}

TEST(ProductController, ConcreteStepComposesComponents) {
  Fixture f;
  // Global state (x0, x1): agent a sees x0 (threshold 0.5), b sees x1
  // (threshold -0.5).
  EXPECT_EQ(f.product.step(Vec{0.0, 0.0}, 0),
            f.product.join_command(f.a->step(Vec{0.0}, 0), f.b->step(Vec{0.0}, 0)));
  EXPECT_EQ(f.product.step(Vec{1.0, -1.0}, 0),
            f.product.join_command(1, 0));  // x0 > 0.5 -> 1; x1 < -0.5 -> 0
  EXPECT_EQ(f.product.step(Vec{0.0, 0.0}, 0), f.product.join_command(0, 1));
}

TEST(ProductController, AbstractStepIsProductOfCandidates) {
  Fixture f;
  // x0 in [-1, 0] -> agent a certainly picks 0; x1 in [0, 1] -> agent b
  // certainly picks 1: exactly one product command.
  const auto clean = f.product.step_abstract(Box{Interval{-1.0, 0.0}, Interval{0.0, 1.0}}, 0);
  ASSERT_EQ(clean.commands.size(), 1u);
  EXPECT_EQ(clean.commands[0], f.product.join_command(0, 1));
  // x0 straddling 0.5 and x1 straddling -0.5: 2 x 2 candidates.
  const auto mixed =
      f.product.step_abstract(Box{Interval{0.0, 1.0}, Interval{-1.0, 0.0}}, 0);
  EXPECT_EQ(mixed.commands.size(), 4u);
}

TEST(ProductController, ValidatesViews) {
  Fixture f;
  StateView broken;  // empty functions
  EXPECT_THROW(ProductController(*f.a, *f.b, broken, coordinate_view(1), 2),
               std::invalid_argument);
}

// Soundness property: the concrete product command is always inside the
// abstract candidate set, for random thresholds and boxes.
TEST(ProductControllerProperty, ConcreteInAbstract) {
  Rng rng(321);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = threshold_net_controller(rng.uniform(-1.0, 1.0));
    const auto b = threshold_net_controller(rng.uniform(-1.0, 1.0));
    const ProductController product(*a, *b, coordinate_view(0), coordinate_view(1), 2);
    for (int box_trial = 0; box_trial < 10; ++box_trial) {
      const double lo0 = rng.uniform(-2.0, 2.0);
      const double lo1 = rng.uniform(-2.0, 2.0);
      const Box box{Interval{lo0, lo0 + 0.5}, Interval{lo1, lo1 + 0.5}};
      for (std::size_t prev = 0; prev < product.commands().size(); ++prev) {
        const auto abstract = product.step_abstract(box, prev);
        for (int s = 0; s < 10; ++s) {
          const Vec state{rng.uniform(box[0].lo(), box[0].hi()),
                          rng.uniform(box[1].lo(), box[1].hi())};
          const std::size_t chosen = product.step(state, prev);
          ASSERT_NE(std::find(abstract.commands.begin(), abstract.commands.end(), chosen),
                    abstract.commands.end());
        }
      }
    }
  }
}

TEST(IdentityView, PassesThrough) {
  const StateView id = identity_view();
  EXPECT_EQ(id.concrete(Vec{1.0, 2.0}), (Vec{1.0, 2.0}));
  const Box b{Interval{0.0, 1.0}};
  EXPECT_EQ(id.abstract(b), b);
}

}  // namespace
}  // namespace nncs
