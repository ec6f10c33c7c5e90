// Tests for the sound argmin analysis (the Post# transformer).

#include <gtest/gtest.h>

#include "nn/argmin_analysis.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

TEST(Argmin, ConcreteFirstIndexTieBreak) {
  EXPECT_EQ(concrete_argmin(Vec{3.0, 1.0, 2.0}), 1u);
  EXPECT_EQ(concrete_argmin(Vec{1.0, 1.0, 2.0}), 0u);
  EXPECT_THROW(concrete_argmin(Vec{}), std::invalid_argument);
}

TEST(Argmin, DisjointIntervalsGiveUniqueWinner) {
  const Box out{Interval{0.0, 1.0}, Interval{2.0, 3.0}, Interval{4.0, 5.0}};
  const auto c = possible_argmin(out);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], 0u);
}

TEST(Argmin, OverlappingIntervalsKeepAllCandidates) {
  const Box out{Interval{0.0, 3.0}, Interval{1.0, 2.0}, Interval{2.5, 4.0}};
  const auto c = possible_argmin(out);
  // min_hi = 2.0; candidates: lo <= 2.0 -> indices 0 and 1.
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 0u);
  EXPECT_EQ(c[1], 1u);
}

TEST(Argmin, TouchingBoundsStayIncluded) {
  // lo of one equals min hi: conservative inclusion.
  const Box out{Interval{0.0, 1.0}, Interval{1.0, 2.0}};
  const auto c = possible_argmin(out);
  EXPECT_EQ(c.size(), 2u);
}

TEST(Argmin, EmptyBoxThrows) {
  EXPECT_THROW(possible_argmin(Box{}), std::invalid_argument);
}

// Soundness property: the concrete argmin of any sampled output vector must
// appear in the candidates computed from a box containing it.
TEST(ArgminProperty, ConcreteSelectionAlwaysInCandidates) {
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t p = static_cast<std::size_t>(rng.uniform_int(2, 6));
    std::vector<Interval> dims;
    for (std::size_t i = 0; i < p; ++i) {
      const double lo = rng.uniform(-5.0, 5.0);
      dims.emplace_back(lo, lo + rng.uniform(0.0, 3.0));
    }
    const Box out{dims};
    const auto cmin = possible_argmin(out);
    for (int s = 0; s < 20; ++s) {
      Vec y(p);
      for (std::size_t i = 0; i < p; ++i) {
        y[i] = rng.uniform(out[i].lo(), out[i].hi());
      }
      const std::size_t kmin = concrete_argmin(y);
      ASSERT_NE(std::find(cmin.begin(), cmin.end(), kmin), cmin.end());
    }
  }
}

// Symbolic refinement: with shared dependencies the symbolic rule must
// exclude candidates the box rule cannot, and must stay sound.
TEST(ArgminSymbolic, ExcludesDominatedCandidate) {
  // y0 = h(x), y1 = h(x) + 1 where h = relu(x): y1 can never be minimal.
  // The input box keeps the ReLU stably active so the affine forms cancel
  // exactly in the difference (an unstable ReLU's relaxation gap would
  // legitimately prevent the exclusion).
  Network net = make_zero_network({1, 1, 2});
  net.layer(0).weights(0, 0) = 1.0;
  net.layer(1).weights(0, 0) = 1.0;
  net.layer(1).weights(1, 0) = 1.0;
  net.layer(1).biases[1] = 1.0;
  const auto bounds = symbolic_propagate(net, Box{Interval{0.5, 2.0}});
  const auto box_candidates = possible_argmin(bounds.output_box);
  const auto sym_candidates = possible_argmin(bounds);
  ASSERT_EQ(sym_candidates.size(), 1u);
  EXPECT_EQ(sym_candidates[0], 0u);
  // The box rule cannot see the cancellation (ranges overlap).
  EXPECT_GE(box_candidates.size(), sym_candidates.size());
}

TEST(ArgminSymbolicProperty, SoundOnRandomNetworks) {
  Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    Network net = make_zero_network({2, 8, 4});
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
      for (double& w : net.layer(li).weights.data()) {
        w = rng.uniform(-1.0, 1.0);
      }
      for (double& b : net.layer(li).biases) {
        b = rng.uniform(-0.5, 0.5);
      }
    }
    const Box input(2, Interval{-0.5, 0.5});
    const auto bounds = symbolic_propagate(net, input);
    const auto candidates = possible_argmin(bounds);
    for (int s = 0; s < 50; ++s) {
      const Vec x{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
      const std::size_t k = concrete_argmin(net.eval(x));
      ASSERT_NE(std::find(candidates.begin(), candidates.end(), k), candidates.end())
          << "selected " << k << " missing from symbolic candidates";
    }
  }
}

}  // namespace
}  // namespace nncs
