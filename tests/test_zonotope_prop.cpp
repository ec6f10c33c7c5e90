// Tests for the zonotope network transformer: containment properties,
// tightness vs plain intervals, the zonotope argmin refinement and the
// controller integration (relational steps on lifted boxes).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "nn/argmin_analysis.hpp"
#include "nn/interval_prop.hpp"
#include "nn/trainer.hpp"
#include "nn/zonotope_prop.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

Network random_network(std::uint64_t seed, std::vector<std::size_t> sizes) {
  Rng rng(seed);
  Network net = make_zero_network(sizes);
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    for (double& w : net.layer(li).weights.data()) {
      w = rng.uniform(-1.0, 1.0);
    }
    for (double& b : net.layer(li).biases) {
      b = rng.uniform(-0.3, 0.3);
    }
  }
  return net;
}

TEST(ZonotopeProp, AffineNetworkKeepsCorrelations) {
  // y = x0 - x1 then z = y - y via two outputs ... simplest: y0 = x0 + x1,
  // y1 = x0 + x1 + 1: their difference is exactly -1.
  Network net = make_zero_network({2, 2});
  net.layer(0).weights(0, 0) = 1.0;
  net.layer(0).weights(0, 1) = 1.0;
  net.layer(0).weights(1, 0) = 1.0;
  net.layer(0).weights(1, 1) = 1.0;
  net.layer(0).biases[1] = 1.0;
  const auto bounds = zonotope_propagate(net, Box(2, Interval{-1.0, 1.0}));
  const Interval diff = (bounds.outputs[0] - bounds.outputs[1]).range();
  EXPECT_TRUE(diff.contains(-1.0));
  EXPECT_LT(diff.width(), 1e-6);
}

TEST(ZonotopeProp, RejectsDimensionMismatch) {
  const Network net = random_network(1, {3, 4, 2});
  EXPECT_THROW(zonotope_propagate(net, Box{Interval{0.0, 1.0}}), std::invalid_argument);
}

TEST(ZonotopeProp, StableReluPathIsExact) {
  // relu(x + 5) with x in [0,1] stays active: output = x + 5 exactly.
  Network net = make_zero_network({1, 1, 1});
  net.layer(0).weights(0, 0) = 1.0;
  net.layer(0).biases[0] = 5.0;
  net.layer(1).weights(0, 0) = 1.0;
  const auto bounds = zonotope_propagate(net, Box{Interval{0.0, 1.0}});
  EXPECT_NEAR(bounds.output_box[0].lo(), 5.0, 1e-6);
  EXPECT_NEAR(bounds.output_box[0].hi(), 6.0, 1e-6);
}

TEST(ZonotopeProp, TighterThanIntervalOnTrainedNetwork) {
  Dataset data;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Vec{x0, x1}, Vec{std::fabs(x0) + 0.5 * x1, x0 - x1});
  }
  TrainerConfig tc;
  tc.hidden = {16, 16};
  tc.epochs = 40;
  const Network net = Trainer(tc).train(data, 2, 2);
  double zono_total = 0.0;
  double int_total = 0.0;
  Rng boxes(5);
  for (int trial = 0; trial < 30; ++trial) {
    const double lo0 = boxes.uniform(-1.0, 0.8);
    const double lo1 = boxes.uniform(-1.0, 0.8);
    const Box input{Interval{lo0, lo0 + 0.2}, Interval{lo1, lo1 + 0.2}};
    const auto zono = zonotope_propagate(net, input);
    const Box itv = interval_propagate(net, input);
    for (std::size_t j = 0; j < 2; ++j) {
      zono_total += zono.output_box[j].width();
      int_total += itv[j].width();
    }
  }
  EXPECT_LT(zono_total, int_total * 0.7);
}

TEST(ZonotopeArgmin, ExcludesDominatedViaCancellation) {
  // y0 = h, y1 = h + 1 (h = relu(x), stably active on [0.5, 2]).
  Network net = make_zero_network({1, 1, 2});
  net.layer(0).weights(0, 0) = 1.0;
  net.layer(1).weights(0, 0) = 1.0;
  net.layer(1).weights(1, 0) = 1.0;
  net.layer(1).biases[1] = 1.0;
  const auto bounds = zonotope_propagate(net, Box{Interval{0.5, 2.0}});
  const auto cmin = possible_argmin(bounds);
  ASSERT_EQ(cmin.size(), 1u);
  EXPECT_EQ(cmin[0], 0u);
}

/// An affine form over symbols drawn from `ids` (each kept with
/// probability `density`), with random center, values and error term.
Affine random_form(Rng& rng, const std::vector<std::uint32_t>& ids, double density) {
  std::vector<std::pair<std::uint32_t, double>> terms;
  for (const std::uint32_t id : ids) {
    if (rng.chance(density)) {
      terms.emplace_back(id, rng.uniform(-1.0, 1.0));
    }
  }
  return Affine::from_parts(rng.uniform(-2.0, 2.0), std::move(terms), rng.uniform(0.0, 1e-6));
}

TEST(ZonotopeArgmin, DifferenceHiMatchesBuiltDifference) {
  Rng rng(1400);
  std::vector<std::uint32_t> all;
  std::vector<std::uint32_t> even;
  std::vector<std::uint32_t> odd;
  for (std::uint32_t id = 0; id < 60; ++id) {
    all.push_back(id);
    (id % 2 == 0 ? even : odd).push_back(id);
  }
  const auto expect_match = [](const Affine& a, const Affine& b, const std::string& what) {
    const double expected = (a - b).range().hi();
    const double got = difference_hi(a, b);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(expected))
        << what << ": " << got << " != " << expected;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const Affine a = random_form(rng, all, 0.5);
    const Affine b = random_form(rng, all, 0.5);
    expect_match(a, b, "random");
    // Shared symbols: both forms on every id.
    expect_match(random_form(rng, all, 1.0), random_form(rng, all, 1.0), "shared");
    // Disjoint symbols.
    expect_match(random_form(rng, even, 0.7), random_form(rng, odd, 0.7), "disjoint");
    // Cancellation to exact zeros: b repeats some of a's terms exactly.
    std::vector<std::pair<std::uint32_t, double>> terms;
    for (const auto& term : a.terms()) {
      terms.emplace_back(term.first, rng.chance(0.6) ? term.second : rng.uniform(-1.0, 1.0));
    }
    expect_match(a, Affine::from_parts(a.center(), std::move(terms), a.error()), "cancelling");
    expect_match(a, a, "self");
    // Error-only forms, on either side.
    const Affine e = Affine::from_parts(rng.uniform(-1.0, 1.0), {}, rng.uniform(0.0, 1e-3));
    expect_match(e, Affine::from_parts(rng.uniform(-1.0, 1.0), {}, 0.0), "error-only");
    expect_match(e, b, "error-only minus form");
    expect_match(b, e, "form minus error-only");
  }
  // Past the stack buffer (more than 256 terms in the two forms), the
  // radius takes a second walk.
  std::vector<std::uint32_t> many;
  for (std::uint32_t id = 0; id < 400; ++id) {
    many.push_back(id);
  }
  for (int trial = 0; trial < 20; ++trial) {
    expect_match(random_form(rng, many, 0.6), random_form(rng, many, 0.6), "many terms");
  }
  // A NaN value makes the difference's range throw; so does the walk.
  const Affine nan_form = Affine::from_parts(
      0.0, {{3, std::numeric_limits<double>::quiet_NaN()}}, 0.0);
  const Affine plain = random_form(rng, all, 0.5);
  EXPECT_THROW((void)(nan_form - plain).range(), std::invalid_argument);
  EXPECT_THROW((void)difference_hi(nan_form, plain), std::invalid_argument);
}

// Containment property across network shapes.
class ZonotopePropContainment
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(ZonotopePropContainment, RandomBoxesContainSampledOutputs) {
  const auto sizes = GetParam();
  Rng rng(99);
  for (int net_trial = 0; net_trial < 5; ++net_trial) {
    const Network net = random_network(500 + net_trial, sizes);
    for (int box_trial = 0; box_trial < 10; ++box_trial) {
      std::vector<Interval> dims;
      for (std::size_t d = 0; d < sizes.front(); ++d) {
        const double lo = rng.uniform(-2.0, 2.0);
        dims.emplace_back(lo, lo + rng.uniform(0.0, 1.0));
      }
      const Box input{dims};
      const auto bounds = zonotope_propagate(net, input);
      for (int s = 0; s < 20; ++s) {
        Vec x(sizes.front());
        for (std::size_t d = 0; d < x.size(); ++d) {
          x[d] = rng.uniform(input[d].lo(), input[d].hi());
        }
        const Vec y = net.eval(x);
        for (std::size_t j = 0; j < y.size(); ++j) {
          ASSERT_TRUE(bounds.output_box[j].contains(y[j]))
              << "output " << j << " = " << y[j] << " not in "
              << bounds.output_box[j].str();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ZonotopePropContainment,
                         ::testing::Values(std::vector<std::size_t>{1, 4, 1},
                                           std::vector<std::size_t>{2, 8, 8, 2},
                                           std::vector<std::size_t>{3, 16, 16, 16, 5},
                                           std::vector<std::size_t>{5, 32, 32, 5}));

// Argmin soundness sweep mirroring the symbolic-domain test.
TEST(ZonotopeArgminProperty, SoundOnRandomNetworks) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const Network net = random_network(600 + trial, {2, 8, 4});
    const Box input(2, Interval{-0.5, 0.5});
    const auto bounds = zonotope_propagate(net, input);
    const auto candidates = possible_argmin(bounds);
    for (int s = 0; s < 50; ++s) {
      const Vec x{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
      const std::size_t k = concrete_argmin(net.eval(x));
      ASSERT_NE(std::find(candidates.begin(), candidates.end(), k), candidates.end());
    }
  }
}

// Controller integration: the relational step on a lifted box is sound end
// to end.
TEST(ZonotopeController, ConcreteCommandAlwaysInAbstractSet) {
  Rng rng(24);
  std::vector<Network> nets;
  for (int n = 0; n < 2; ++n) {
    nets.push_back(random_network(700 + n, {2, 6, 2}));
  }
  const NeuralController ctrl(CommandSet({Vec{0.0}, Vec{1.0}}), std::move(nets), {0, 1},
                              std::make_unique<IdentityPre>(2));
  for (int b = 0; b < 20; ++b) {
    const double lo0 = rng.uniform(-1.0, 1.0);
    const double lo1 = rng.uniform(-1.0, 1.0);
    const Box box{Interval{lo0, lo0 + 0.3}, Interval{lo1, lo1 + 0.3}};
    for (std::size_t prev = 0; prev < 2; ++prev) {
      const auto abstract = ctrl.step_abstract_relational(AffineSet::from_box(box), prev);
      for (int s = 0; s < 20; ++s) {
        const Vec x{rng.uniform(box[0].lo(), box[0].hi()),
                    rng.uniform(box[1].lo(), box[1].hi())};
        const std::size_t chosen = ctrl.step(x, prev);
        ASSERT_NE(std::find(abstract.commands.begin(), abstract.commands.end(), chosen),
                  abstract.commands.end());
      }
    }
  }
}

}  // namespace
}  // namespace nncs
