// Tests for the batched SoA propagation kernels (nn/kernels.hpp): the
// load-bearing property is bit-identity of the batched symbolic and
// zonotope transformers against the scalar reference transformers on
// fuzzed networks, for every back end the CPU can run. The controller's
// one Pre# → F# → Post# body is checked against an oracle assembled from
// the scalar transformers, and in containment mode against a loop of
// single-state calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "interval/affine_set.hpp"
#include "interval/rounding.hpp"
#include "nn/argmin_analysis.hpp"
#include "nn/interval_prop.hpp"
#include "nn/kernels.hpp"
#include "nn/symbolic_prop.hpp"
#include "nn/trainer.hpp"
#include "nn/zonotope_prop.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

::testing::AssertionResult bits_eq(double a, double b) {
  if (bits_of(a) == bits_of(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << bits_of(a) << ") != " << std::dec << b << " (0x"
         << std::hex << bits_of(b) << ")";
}

::testing::AssertionResult boxes_bitwise_eq(const Box& a, const Box& b) {
  if (a.dim() != b.dim()) {
    return ::testing::AssertionFailure() << "dim " << a.dim() << " != " << b.dim();
  }
  for (std::size_t i = 0; i < a.dim(); ++i) {
    if (bits_of(a[i].lo()) != bits_of(b[i].lo()) || bits_of(a[i].hi()) != bits_of(b[i].hi())) {
      return ::testing::AssertionFailure()
             << "dim " << i << ": [" << a[i].lo() << ", " << a[i].hi() << "] != [" << b[i].lo()
             << ", " << b[i].hi() << "] (bitwise)";
    }
  }
  return ::testing::AssertionSuccess();
}

Network random_network(std::uint64_t seed, std::vector<std::size_t> sizes) {
  Rng rng(seed);
  Network net = make_zero_network(sizes);
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    for (double& w : net.layer(li).weights.data()) {
      // Sprinkle exact zero weights (the kernels skip them) and identity
      // weights among generic ones.
      const double pick = rng.uniform(0.0, 1.0);
      if (pick < 0.08) {
        w = 0.0;
      } else if (pick < 0.16) {
        w = 1.0;
      } else {
        w = rng.uniform(-1.5, 1.5);
      }
    }
    for (double& b : net.layer(li).biases) {
      b = rng.uniform(-0.5, 0.5);
    }
  }
  return net;
}

Box random_box(Rng& rng, std::size_t dim) {
  std::vector<Interval> iv;
  iv.reserve(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    if (rng.chance(0.1)) {
      // Degenerate dimension: [a, a] exercises the point-interval paths.
      iv.emplace_back(a);
    } else if (rng.chance(0.05)) {
      // Exact-zero bound: exercises the 0/1 special cases with ±0 ties.
      iv.emplace_back(0.0, std::fabs(a));
    } else {
      const double b = rng.uniform(-2.0, 2.0);
      iv.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  return Box{std::move(iv)};
}

std::vector<kern::Isa> compiled_isas() {
  std::vector<kern::Isa> isas{kern::Isa::kPortable};
  if (kern::cpu_supports_avx2()) {
    isas.push_back(kern::Isa::kAvx2);
  }
  return isas;
}

/// ACAS Xu's network shape (5 inputs, three hidden layers of 32, 5 scores).
const std::vector<std::size_t> kAcasShape = {5, 32, 32, 32, 5};
/// Cruise control's shape: two hidden layers of 24, so a neuron block of the
/// zonotope sweep is part padding.
const std::vector<std::size_t> kCruiseShape = {2, 24, 24, 4};

/// Shapes for both sweeps: widths below, at and across their neuron blocks,
/// ACAS Xu's (whose per-advisory networks see one query per call), cruise
/// control's and the pendulum's.
const std::vector<std::vector<std::size_t>> kShapes = {
    {3, 8, 8, 2}, {2, 5, 5, 5, 3}, {1, 4, 1},    {5, 16, 5},
    kAcasShape,   kCruiseShape,    {2, 16, 16, 3}, {3, 33, 17, 2}};

/// A box whose even dimensions span two or four subnormal steps around 0, so
/// its lift's coefficients are the smallest subnormals: weights or ReLU
/// slopes below 1/2 round their products to zero, terms the scalar code
/// drops. The odd dimensions are ordinary, so neurons can still be unstable.
Box subnormal_box(Rng& rng, std::size_t dim) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<Interval> iv;
  for (std::size_t i = 0; i < dim; ++i) {
    if (i % 2 == 0) {
      iv.emplace_back(rng.chance(0.5) ? -2 * tiny : 0.0, 2 * tiny);
    } else {
      iv.emplace_back(rng.uniform(-1.0, 0.0), rng.uniform(0.0, 1.0));
    }
  }
  return Box{std::move(iv)};
}

/// A box whose dimensions are degenerate at exactly 0, exactly 1 or another
/// value, or wide: the cases `operator*` answers by identity.
Box degenerate_box(Rng& rng, std::size_t dim) {
  std::vector<Interval> iv;
  for (std::size_t i = 0; i < dim; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        iv.emplace_back(0.0);
        break;
      case 1:
        iv.emplace_back(1.0);
        break;
      case 2:
        iv.emplace_back(a);
        break;
      default:
        iv.emplace_back(std::min(a, 0.5), std::max(a, 0.5));
    }
  }
  return Box{std::move(iv)};
}

/// ACAS Xu's Pre# shape: the first three features wide, v_own a point and
/// v_int exactly 0 (the last two of five; fewer dimensions keep the rule).
Box acas_like_box(Rng& rng, std::size_t dim) {
  std::vector<Interval> iv;
  for (std::size_t i = 0; i < dim; ++i) {
    const double a = rng.uniform(-0.5, 0.5);
    if (i + 1 == dim) {
      iv.emplace_back(0.0);
    } else if (i + 2 == dim) {
      iv.emplace_back(a);
    } else {
      iv.emplace_back(a - 0.05, a + 0.05);
    }
  }
  return Box{std::move(iv)};
}

/// `random_network` with some biases exactly +0.0 and −0.0 and one dead
/// row (all weights 0, bias −0.0) per layer: a zero weight must keep the
/// neuron's constant bit for bit, as the scalar loop skips it.
Network signed_zero_network(std::uint64_t seed, const std::vector<std::size_t>& sizes) {
  Network net = random_network(seed, sizes);
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    Layer& layer = net.layer(li);
    for (std::size_t r = 0; r < layer.biases.size(); ++r) {
      if (r % 3 == 1) {
        layer.biases[r] = r % 2 == 0 ? 0.0 : -0.0;
      }
    }
    const std::size_t dead = layer.weights.rows() - 1;
    for (std::size_t c = 0; c < layer.weights.cols(); ++c) {
      layer.weights(dead, c) = 0.0;
    }
    layer.biases[dead] = -0.0;
  }
  return net;
}

::testing::AssertionResult forms_bitwise_eq(const AffineForm& a, const AffineForm& b) {
  if (a.coeffs.size() != b.coeffs.size()) {
    return ::testing::AssertionFailure() << "coefficient count differs";
  }
  for (std::size_t i = 0; i < a.coeffs.size(); ++i) {
    const auto coeff = bits_eq(a.coeffs[i], b.coeffs[i]);
    if (!coeff) {
      return ::testing::AssertionFailure() << "coeff " << i << ": " << coeff.message();
    }
  }
  const auto constant = bits_eq(a.constant, b.constant);
  if (!constant) {
    return ::testing::AssertionFailure() << "constant: " << constant.message();
  }
  const auto err = bits_eq(a.err, b.err);
  if (!err) {
    return ::testing::AssertionFailure() << "err: " << err.message();
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult symbolic_bitwise_eq(const SymbolicBounds& a,
                                               const SymbolicBounds& b) {
  if (a.outputs.size() != b.outputs.size()) {
    return ::testing::AssertionFailure()
           << "output count " << a.outputs.size() << " != " << b.outputs.size();
  }
  for (std::size_t r = 0; r < a.outputs.size(); ++r) {
    for (const bool upper : {false, true}) {
      const auto eq = forms_bitwise_eq(upper ? a.outputs[r].upper : a.outputs[r].lower,
                                       upper ? b.outputs[r].upper : b.outputs[r].lower);
      if (!eq) {
        return ::testing::AssertionFailure()
               << "output " << r << (upper ? " upper " : " lower ") << eq.message();
      }
    }
  }
  const auto inputs = boxes_bitwise_eq(a.input, b.input);
  if (!inputs) {
    return ::testing::AssertionFailure() << "input: " << inputs.message();
  }
  return boxes_bitwise_eq(a.output_box, b.output_box);
}

TEST(Kernels, SymbolicBatchBitwiseEqualsScalar) {
  for (const kern::Isa isa : compiled_isas()) {
    for (std::size_t s = 0; s < kShapes.size(); ++s) {
      for (const bool signed_zeros : {false, true}) {
        const Network net = signed_zeros ? signed_zero_network(350 + s, kShapes[s])
                                         : random_network(300 + s, kShapes[s]);
        const kern::PackedNetwork packed = kern::pack_network(net);
        Rng rng(400 + s);
        const std::size_t dim = net.input_dim();
        std::vector<Box> inputs;
        for (int k = 0; k < 5; ++k) {
          inputs.push_back(random_box(rng, dim));
          inputs.push_back(degenerate_box(rng, dim));
          inputs.push_back(acas_like_box(rng, dim));
        }
        inputs.emplace_back(dim, Interval{0.25});
        inputs.push_back(subnormal_box(rng, dim));
        inputs.push_back(subnormal_box(rng, dim));
        std::vector<SymbolicBounds> scalar;
        for (const Box& input : inputs) {
          scalar.push_back(symbolic_propagate(net, input));
        }
        // Every batch size 1–9, and 65, past any fixed batch chunk; each
        // batch starts at another input, cycling through the list.
        for (const std::size_t size : {1, 2, 3, 4, 5, 6, 7, 8, 9, 65}) {
          std::vector<Box> batch;
          for (std::size_t k = 0; k < size; ++k) {
            batch.push_back(inputs[(size + k) % inputs.size()]);
          }
          const std::vector<SymbolicBounds> batched =
              symbolic_propagate_batch(packed, batch, isa);
          ASSERT_EQ(batched.size(), size);
          for (std::size_t k = 0; k < size; ++k) {
            EXPECT_TRUE(symbolic_bitwise_eq(batched[k], scalar[(size + k) % inputs.size()]))
                << "isa=" << to_string(isa) << " shape=" << s
                << " signed_zeros=" << signed_zeros << " batch=" << size << " query=" << k;
          }
        }
      }
    }
  }
  // An unbounded input gives hidden neuron 0 a NaN chord (λ = ∞/∞), which the
  // next layer reads only through zero weights: the scalar loop skips them,
  // and the sweep must mask their products rather than add 0·NaN.
  Network unbounded_net = make_zero_network({1, 2, 2, 1});
  unbounded_net.layer(0).weights(0, 0) = 1.0;
  unbounded_net.layer(0).biases[1] = 1.0;
  unbounded_net.layer(1).weights(0, 1) = 1.0;
  unbounded_net.layer(2).weights(0, 0) = 1.0;
  const Box unbounded{Interval::entire()};
  const SymbolicBounds scalar = symbolic_propagate(unbounded_net, unbounded);
  for (const kern::Isa isa : compiled_isas()) {
    const SymbolicBounds batched =
        symbolic_propagate_batch(kern::pack_network(unbounded_net), {unbounded}, isa)[0];
    EXPECT_TRUE(symbolic_bitwise_eq(batched, scalar))
        << "isa=" << to_string(isa) << " unbounded input";
  }
}

/// A coefficient for the bound kernel's test: mostly ordinary, else one
/// of the values `product_bound` treats apart (1, ±0, ±inf, NaN, subnormal,
/// ±DBL_MAX).
double bound_test_coefficient(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {1.0, 0.0, -0.0, kInf, -kInf, kNan, kTiny, -kTiny, kMax, -kMax};
  if (rng.chance(0.6)) {
    return rng.uniform(-2.0, 2.0);
  }
  return specials[rng.uniform_int(0, 9)];
}

/// An input box for the bound kernel's test: each dimension degenerate at
/// 0, at 1 or elsewhere, entire, half-infinite, subnormal or ordinary.
Box bound_test_input(Rng& rng, std::size_t dim) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  std::vector<Interval> iv;
  for (std::size_t i = 0; i < dim; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    switch (rng.uniform_int(0, 7)) {
      case 0:
        iv.emplace_back(0.0);
        break;
      case 1:
        iv.emplace_back(1.0);
        break;
      case 2:
        iv.emplace_back(a);
        break;
      case 3:
        iv.push_back(Interval::entire());
        break;
      case 4:
        iv.push_back(rng.chance(0.5) ? Interval{a, kInf} : Interval{-kInf, a});
        break;
      case 5:
        iv.emplace_back(-kTiny, 3 * kTiny);
        break;
      default:
        iv.emplace_back(std::min(a, 0.5), std::max(a, 0.5));
    }
  }
  return Box{std::move(iv)};
}

/// Bit equality, except that any two NaNs match: when a NaN sum (inf − inf)
/// meets a NaN product (a NaN coefficient on an input degenerate at 1) in
/// one add, which operand's sign and payload survive depends on the order
/// in which the compiler emits the commutative add (IEEE 754 leaves it
/// open), and every later comparison treats both NaNs alike.
::testing::AssertionResult same_bound(double got, double expected) {
  if (std::isnan(got) && std::isnan(expected)) {
    return ::testing::AssertionSuccess();
  }
  return bits_eq(got, expected);
}

/// Neuron r's form in `side` as an `AffineForm`.
AffineForm form_of(const kern::SymbolicSide& side, std::size_t stride, std::size_t n_in,
                   std::size_t r) {
  AffineForm form{Vec(n_in), side.constant[r], side.err[r]};
  for (std::size_t i = 0; i < n_in; ++i) {
    form.coeffs[i] = side.coeffs[i * stride + r];
  }
  return form;
}

TEST(Kernels, SymbolicReluBoundsMatchConcretize) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(1000);
  std::vector<std::size_t> widths;
  for (std::size_t w = 1; w <= 17; ++w) {
    widths.push_back(w);
  }
  widths.push_back(33);
  for (const kern::Isa isa : compiled_isas()) {
    for (const std::size_t width : widths) {
      for (const std::size_t n_in : {1, 2, 5}) {
        for (int trial = 0; trial < 6; ++trial) {
          const std::size_t stride =
              (width + kern::kNeuronBlock - 1) / kern::kNeuronBlock * kern::kNeuronBlock;
          const std::size_t padded =
              (width + kern::kSymbolicBlock - 1) / kern::kSymbolicBlock * kern::kSymbolicBlock;
          kern::SymbolicForms forms{width, stride, n_in, {}, {}};
          for (kern::SymbolicSide* side : {&forms.lower, &forms.upper}) {
            // Past the last block a column is never read: NaN there would
            // throw or show.
            side->coeffs.assign(n_in * stride, kNan);
            side->constant.assign(stride, kNan);
            side->err.assign(stride, kNan);
            for (std::size_t r = 0; r < padded; ++r) {
              const bool live = r < width;
              for (std::size_t i = 0; i < n_in; ++i) {
                side->coeffs[i * stride + r] = live ? bound_test_coefficient(rng) : 0.0;
              }
              // Constants like coefficients: ±0 and subnormals make the
              // outward steps of degenerate-input products show.
              side->constant[r] = live ? bound_test_coefficient(rng) : 0.0;
              // An error term of −1e-12 makes the inflation delta exactly 0,
              // so a subnormal step of the sum shows in the bound.
              const double pick = rng.uniform(0.0, 1.0);
              side->err[r] = !live || pick < 0.15 ? 0.0
                             : pick < 0.4         ? -1e-12
                                                  : rng.uniform(0.0, 1e-9);
            }
          }
          const Box input = bound_test_input(rng, n_in);
          std::vector<double> lower(stride, kNan);
          std::vector<double> upper(stride, kNan);
          kern::symbolic_relu_bounds(forms, input, lower.data(), upper.data(), isa);
          for (std::size_t r = 0; r < width; ++r) {
            const Interval lo = concretize(form_of(forms.lower, stride, n_in, r), input);
            const Interval hi = concretize(form_of(forms.upper, stride, n_in, r), input);
            EXPECT_TRUE(same_bound(lower[r], lo.lo()))
                << "isa=" << to_string(isa) << " width=" << width << " n_in=" << n_in
                << " neuron " << r << " lower";
            EXPECT_TRUE(same_bound(upper[r], hi.hi()))
                << "isa=" << to_string(isa) << " width=" << width << " n_in=" << n_in
                << " neuron " << r << " upper";
          }
          // A negative or NaN error term throws, as `Interval::inflated` does.
          const std::size_t bad = static_cast<std::size_t>(trial) % width;
          kern::SymbolicSide& side = trial % 2 == 0 ? forms.lower : forms.upper;
          const double saved = side.err[bad];
          side.err[bad] = trial % 3 == 0 ? kNan : -2e-12;
          EXPECT_THROW(kern::symbolic_relu_bounds(forms, input, lower.data(), upper.data(), isa),
                       std::invalid_argument)
              << "isa=" << to_string(isa) << " width=" << width;
          EXPECT_THROW((void)concretize(form_of(side, stride, n_in, bad), input),
                       std::invalid_argument);
          side.err[bad] = saved;
        }
      }
    }
  }
}

/// `output_difference` as it was before it ran on stack buffers: both
/// difference forms built on the heap as `zero_form; axpy(+1, ·); axpy(−1,
/// ·)` and each concretized in full.
Interval output_difference_reference(const SymbolicBounds& bounds, std::size_t i,
                                     std::size_t j) {
  const std::size_t n_in = bounds.input.dim();
  const auto axpy = [](AffineForm& result, double k, const AffineForm& form) {
    double abs_sum = 0.0;
    for (std::size_t d = 0; d < result.coeffs.size(); ++d) {
      result.coeffs[d] += k * form.coeffs[d];
      abs_sum += std::fabs(result.coeffs[d]);
    }
    result.constant += k * form.constant;
    abs_sum += std::fabs(result.constant);
    result.err += std::fabs(k) * form.err + rnd::kCoeffSlack * abs_sum;
  };
  AffineForm diff_lower{Vec(n_in, 0.0), 0.0, 0.0};
  axpy(diff_lower, 1.0, bounds.outputs[i].lower);
  axpy(diff_lower, -1.0, bounds.outputs[j].upper);
  AffineForm diff_upper{Vec(n_in, 0.0), 0.0, 0.0};
  axpy(diff_upper, 1.0, bounds.outputs[i].upper);
  axpy(diff_upper, -1.0, bounds.outputs[j].lower);
  const double lo = concretize(diff_lower, bounds.input).lo();
  const double hi = concretize(diff_upper, bounds.input).hi();
  return Interval{std::min(lo, hi), std::max(lo, hi)};
}

/// Every pair's `output_difference` equals the reference's bit for bit,
/// or both throw. The one-sided Post# test `output_difference_negative`
/// decides every pair as `reference.hi() < 0.0` does; where the reference
/// throws, it throws too or keeps the command (it may decide on the upper
/// side without computing a NaN lower side). When no pair throws, the
/// symbolic `possible_argmin` equals the candidates the reference's
/// decisions leave.
void expect_differences_match(const SymbolicBounds& bounds, const std::string& what) {
  const std::size_t p = bounds.outputs.size();
  bool any_threw = false;
  std::vector<bool> excluded(p, false);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      bool reference_threw = false;
      Interval expected;
      try {
        expected = output_difference_reference(bounds, i, j);
      } catch (const std::invalid_argument&) {
        reference_threw = true;
      }
      if (reference_threw) {
        any_threw = true;
        EXPECT_THROW((void)output_difference(bounds, i, j), std::invalid_argument)
            << what << " pair " << i << ", " << j;
        try {
          EXPECT_FALSE(output_difference_negative(bounds, i, j))
              << what << " pair " << i << ", " << j;
        } catch (const std::invalid_argument&) {
        }
        continue;
      }
      const Interval got = output_difference(bounds, i, j);
      EXPECT_TRUE(bits_eq(got.lo(), expected.lo())) << what << " pair " << i << ", " << j;
      EXPECT_TRUE(bits_eq(got.hi(), expected.hi())) << what << " pair " << i << ", " << j;
      EXPECT_EQ(output_difference_negative(bounds, i, j), expected.hi() < 0.0)
          << what << " pair " << i << ", " << j;
      if (i != j && expected.hi() < 0.0) {
        excluded[j] = true;
      }
    }
  }
  if (!any_threw) {
    std::vector<std::size_t> candidates;
    for (std::size_t k = 0; k < p; ++k) {
      if (!excluded[k]) {
        candidates.push_back(k);
      }
    }
    EXPECT_EQ(possible_argmin(bounds), candidates) << what;
  }
}

TEST(Kernels, OutputDifferenceMatchesHeapReference) {
  for (std::size_t s = 0; s < kShapes.size(); ++s) {
    for (const bool signed_zeros : {false, true}) {
      const Network net = signed_zeros ? signed_zero_network(1150 + s, kShapes[s])
                                       : random_network(1100 + s, kShapes[s]);
      Rng rng(1200 + s);
      const std::size_t dim = net.input_dim();
      for (const Box& input : {random_box(rng, dim), degenerate_box(rng, dim),
                               acas_like_box(rng, dim), subnormal_box(rng, dim)}) {
        expect_differences_match(symbolic_propagate(net, input),
                                 "shape=" + std::to_string(s) +
                                     " signed_zeros=" + std::to_string(signed_zeros));
      }
    }
  }
  // The unbounded-input network of the batch test (a NaN chord on neuron 0).
  Network unbounded_net = make_zero_network({1, 2, 2, 1});
  unbounded_net.layer(0).weights(0, 0) = 1.0;
  unbounded_net.layer(0).biases[1] = 1.0;
  unbounded_net.layer(1).weights(0, 1) = 1.0;
  unbounded_net.layer(2).weights(0, 0) = 1.0;
  expect_differences_match(symbolic_propagate(unbounded_net, Box{Interval::entire()}),
                           "unbounded");
  // Crossed bounds (each output's lower form above its upper form), and 20
  // inputs, past the stack buffer.
  Rng rng(1300);
  for (const std::size_t n_in : {2, 20}) {
    SymbolicBounds crossed;
    crossed.input = random_box(rng, n_in);
    for (std::size_t k = 0; k < 3; ++k) {
      AffineForm lower{Vec(n_in), 5.0 + static_cast<double>(k), 1e-10};
      AffineForm upper{Vec(n_in), -5.0 - static_cast<double>(k), 0.0};
      for (std::size_t d = 0; d < n_in; ++d) {
        lower.coeffs[d] = rng.uniform(-1.0, 1.0);
        upper.coeffs[d] = rng.chance(0.2) ? 0.0 : rng.uniform(-1.0, 1.0);
      }
      crossed.outputs.push_back(NeuronBounds{lower, upper});
    }
    expect_differences_match(crossed, "crossed n_in=" + std::to_string(n_in));
  }
}

TEST(Kernels, BatchedTransformersContainConcreteSamples) {
  for (const kern::Isa isa : compiled_isas()) {
    const Network net = random_network(55, {3, 10, 10, 3});
    Rng rng(56);
    std::vector<Box> inputs;
    for (int k = 0; k < 9; ++k) {
      inputs.push_back(random_box(rng, net.input_dim()));
    }
    const std::vector<SymbolicBounds> sym =
        symbolic_propagate_batch(kern::pack_network(net), inputs, isa);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Box iv = interval_propagate(net, inputs[i]);
      for (int sample = 0; sample < 40; ++sample) {
        Vec x(net.input_dim());
        for (std::size_t d = 0; d < x.size(); ++d) {
          x[d] = rng.uniform(inputs[i][d].lo(), inputs[i][d].hi());
        }
        const Vec y = net.eval(x);
        for (std::size_t d = 0; d < y.size(); ++d) {
          EXPECT_GE(y[d], iv[d].lo()) << "interval lo, input " << i << " dim " << d;
          EXPECT_LE(y[d], iv[d].hi()) << "interval hi, input " << i << " dim " << d;
          EXPECT_GE(y[d], sym[i].output_box[d].lo()) << "symbolic lo, input " << i;
          EXPECT_LE(y[d], sym[i].output_box[d].hi()) << "symbolic hi, input " << i;
        }
      }
    }
  }
}

::testing::AssertionResult affines_bitwise_eq(const Affine& a, const Affine& b) {
  if (bits_of(a.center()) != bits_of(b.center())) {
    return ::testing::AssertionFailure()
           << "center " << a.center() << " != " << b.center() << " (bitwise)";
  }
  if (bits_of(a.error()) != bits_of(b.error())) {
    return ::testing::AssertionFailure()
           << "err " << a.error() << " != " << b.error() << " (bitwise)";
  }
  if (a.terms().size() != b.terms().size()) {
    return ::testing::AssertionFailure()
           << "term count " << a.terms().size() << " != " << b.terms().size();
  }
  for (std::size_t t = 0; t < a.terms().size(); ++t) {
    if (a.terms()[t].first != b.terms()[t].first ||
        bits_of(a.terms()[t].second) != bits_of(b.terms()[t].second)) {
      return ::testing::AssertionFailure()
             << "term " << t << ": (" << a.terms()[t].first << ", " << a.terms()[t].second
             << ") != (" << b.terms()[t].first << ", " << b.terms()[t].second << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult zonotopes_bitwise_eq(const ZonotopeBounds& a,
                                                const ZonotopeBounds& b) {
  if (a.outputs.size() != b.outputs.size()) {
    return ::testing::AssertionFailure()
           << "output count " << a.outputs.size() << " != " << b.outputs.size();
  }
  for (std::size_t r = 0; r < a.outputs.size(); ++r) {
    const auto eq = affines_bitwise_eq(a.outputs[r], b.outputs[r]);
    if (!eq) {
      return ::testing::AssertionFailure() << "output " << r << ": " << eq.message();
    }
  }
  return boxes_bitwise_eq(a.output_box, b.output_box);
}

/// Every hidden neuron is unstable on an input box around [-1, 1]: layer 1
/// copies ±x and layer 2 recentres each copy's ReLU image on a negative
/// bias, so each hidden neuron takes a fresh noise symbol and a query's
/// slot capacity (input slots + hidden neurons) is reached.
Network all_unstable_network(std::size_t hidden) {
  Network net = make_zero_network({1, hidden, hidden, 1});
  for (std::size_t r = 0; r < hidden; ++r) {
    net.layer(0).weights(r, 0) = r % 2 == 0 ? 1.0 : -1.5;
    net.layer(1).weights(r, r) = 1.0;
    net.layer(1).biases[r] = -0.5;
    net.layer(2).weights(0, r) = 1.0;
  }
  return net;
}

/// Random boxes for `net`, plus the edge cases: a point box (no noise
/// symbols at all), subnormal boxes, and a within-batch duplicate.
std::vector<Box> zonotope_inputs(Rng& rng, const Network& net, std::size_t count) {
  std::vector<Box> inputs;
  for (std::size_t k = 0; k < count; ++k) {
    inputs.push_back(random_box(rng, net.input_dim()));
  }
  inputs.emplace_back(net.input_dim(), Interval{0.25});
  inputs.push_back(subnormal_box(rng, net.input_dim()));
  inputs.push_back(subnormal_box(rng, net.input_dim()));
  inputs.push_back(inputs.front());
  return inputs;
}

/// `sets` through the batched transformer at once and one at a time must
/// reproduce `scalar` bit for bit, argmin included.
void expect_batch_matches(const Network& net, const std::vector<AffineSet>& sets,
                          const std::vector<ZonotopeBounds>& scalar, kern::Isa isa,
                          const std::string& what) {
  std::vector<const AffineSet*> ptrs;
  for (const AffineSet& set : sets) {
    ptrs.push_back(&set);
  }
  const kern::PackedNetwork packed = kern::pack_network(net);
  const std::vector<ZonotopeBounds> batched = zonotope_propagate_batch(packed, ptrs, isa);
  ASSERT_EQ(batched.size(), sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_TRUE(zonotopes_bitwise_eq(batched[i], scalar[i]))
        << "isa=" << to_string(isa) << " " << what << " input=" << i;
    const std::vector<ZonotopeBounds> single = zonotope_propagate_batch(packed, {ptrs[i]}, isa);
    ASSERT_EQ(single.size(), 1U);
    EXPECT_TRUE(zonotopes_bitwise_eq(single.front(), scalar[i]))
        << "isa=" << to_string(isa) << " " << what << " input=" << i << " alone";
    // The command-pruning consumer must agree too (it is a pure function of
    // the forms, but this pins the end-to-end contract).
    EXPECT_EQ(possible_argmin(batched[i]), possible_argmin(scalar[i]));
  }
}

/// Boxes enter the batch as `AffineSet::from_box` lifts, which must
/// reproduce the boxed scalar transformer's own lift exactly.
void expect_box_batch_matches(const Network& net, const std::vector<Box>& inputs, kern::Isa isa,
                              const std::string& what) {
  std::vector<AffineSet> lifts;
  std::vector<ZonotopeBounds> scalar;
  for (const Box& input : inputs) {
    lifts.push_back(AffineSet::from_box(input));
    scalar.push_back(zonotope_propagate(net, input));
  }
  expect_batch_matches(net, lifts, scalar, isa, what);
}

/// Correlated sets: each box's lift mixed through a random interval linear
/// image, so the forms share noise symbols (the shape the integrator hands
/// the controller), against the relational scalar transformer.
void expect_relational_batch_matches(Rng& rng, const Network& net,
                                     const std::vector<Box>& boxes, kern::Isa isa,
                                     const std::string& what) {
  const std::size_t dim = net.input_dim();
  std::vector<AffineSet> sets;
  std::vector<ZonotopeBounds> scalar;
  for (const Box& box : boxes) {
    IntervalMatrix m(dim, dim);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        const double mid = (r == c) ? 1.0 : rng.uniform(-0.4, 0.4);
        const double rad = rng.chance(0.5) ? 0.0 : 1e-6;
        m.at(r, c) = Interval{mid - rad, mid + rad};
      }
    }
    sets.push_back(AffineSet::from_box(box).linear_image(m));
    NoiseSource scratch = sets.back().noise();
    scalar.push_back(zonotope_propagate(net, sets.back().components(), scratch));
  }
  expect_batch_matches(net, sets, scalar, isa, what);
}

/// Its second hidden layer (40 neurons) is dead wherever the first is: its
/// biases are negative, and neurons 0–19 stay dead on any input in
/// [-1, 1]², so the third layer sweeps a run of at least 20 dead columns
/// from its first column on, and all 40 where the input is negative.
Network dead_block_network(std::uint64_t seed) {
  Rng rng(seed);
  Network net = make_zero_network({2, 8, 40, 21, 3});
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      net.layer(0).weights(r, c) = rng.uniform(0.5, 1.5);
    }
    net.layer(0).biases[r] = rng.uniform(-0.1, 0.1);
  }
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      net.layer(1).weights(r, c) = r < 20 ? rng.uniform(-0.1, 0.1) : rng.uniform(-1.0, 1.0);
    }
    net.layer(1).biases[r] = r < 20 ? -3.0 : rng.uniform(-0.6, -0.1);
  }
  for (const std::size_t li : {2, 3}) {
    for (double& w : net.layer(li).weights.data()) {
      w = rng.uniform(-1.0, 1.0);
    }
    for (double& b : net.layer(li).biases) {
      b = rng.uniform(-0.5, 0.5);
    }
  }
  return net;
}

/// On inputs in [-1, 1]², hidden neuron r of both hidden layers (24 each) is
/// dead when r % 3 == 0, stable-active when r % 3 == 1 and unstable when
/// r % 3 == 2: the layer after each ReLU sweeps columns that cycle through
/// all three kinds, with an own slot every third column.
Network cycling_network(std::uint64_t seed) {
  Rng rng(seed);
  Network net = make_zero_network({2, 24, 24, 4});
  const double kind_bias[] = {-10.0, 10.0, -0.3};
  for (std::size_t r = 0; r < 24; ++r) {
    net.layer(0).weights(r, 0) = r % 3 == 2 ? 1.0 : 0.5;
    net.layer(0).weights(r, 1) = rng.uniform(-0.01, 0.01);
    net.layer(0).biases[r] = r % 3 == 2 ? 0.0 : kind_bias[r % 3] / 5.0;
    for (std::size_t c = 0; c < 24; ++c) {
      net.layer(1).weights(r, c) = rng.uniform(-0.01, 0.01);
    }
    // An unstable neuron follows one unstable neuron of the first layer.
    if (r % 3 == 2) {
      net.layer(1).weights(r, (r + 3) % 24) = 1.0;
    }
    net.layer(1).biases[r] = kind_bias[r % 3];
  }
  for (double& w : net.layer(2).weights.data()) {
    w = rng.uniform(-1.0, 1.0);
  }
  return net;
}

/// Networks for the zonotope sweep: every shape random and with signed-zero
/// biases and a dead row per layer, a dead run across a block, the cycling
/// dead / stable-active / unstable columns, and output widths 1–5, so a
/// layer's last block runs one to four quads.
std::vector<std::pair<std::string, Network>> zonotope_networks(std::uint64_t seed) {
  std::vector<std::pair<std::string, Network>> nets;
  for (std::size_t s = 0; s < kShapes.size(); ++s) {
    nets.emplace_back("shape=" + std::to_string(s), random_network(seed + s, kShapes[s]));
    nets.emplace_back("signed zeros shape=" + std::to_string(s),
                      signed_zero_network(seed + 50 + s, kShapes[s]));
  }
  nets.emplace_back("dead block", dead_block_network(seed + 100));
  nets.emplace_back("cycling", cycling_network(seed + 101));
  for (std::size_t outputs = 1; outputs <= 5; ++outputs) {
    nets.emplace_back("outputs=" + std::to_string(outputs),
                      random_network(seed + 110 + outputs, {3, 20, 20, outputs}));
  }
  return nets;
}

/// `zonotope_inputs` plus boxes inside [-1, 1]² that are negative, straddle
/// 0 or are positive, for the two-input networks built to go dead there.
std::vector<Box> zonotope_test_inputs(Rng& rng, const Network& net, std::size_t count) {
  std::vector<Box> inputs = zonotope_inputs(rng, net, count);
  if (net.input_dim() == 2) {
    for (const double lo : {-1.0, -0.6, -0.2, 0.3}) {
      const double hi = lo + rng.uniform(0.05, 0.7);
      inputs.push_back(Box{{Interval{lo, hi}, Interval{lo, lo + rng.uniform(0.0, 0.7)}}});
    }
  }
  return inputs;
}

TEST(Kernels, ZonotopeBoxBatchBitwiseEqualsScalar) {
  for (const kern::Isa isa : compiled_isas()) {
    std::uint64_t seed = 600;
    for (const auto& [what, net] : zonotope_networks(500)) {
      Rng rng(seed++);
      expect_box_batch_matches(net, zonotope_test_inputs(rng, net, 19), isa, what);
    }
    const Network net = all_unstable_network(33);
    expect_box_batch_matches(net, {Box{Interval{-1.0, 1.0}}, Box{Interval{-0.75, 0.5}}}, isa,
                             "all unstable");
    // The output sums every layer-2 neuron, so it carries the input symbol
    // and one fresh symbol per hidden neuron: all 67 slots.
    const AffineSet lift = AffineSet::from_box(Box{Interval{-1.0, 1.0}});
    EXPECT_EQ(zonotope_propagate_batch(kern::pack_network(net), {&lift}, isa)
                  .front()
                  .outputs[0]
                  .terms()
                  .size(),
              1U + 2U * 33U);
  }
}

TEST(Kernels, ZonotopeRelationalBatchBitwiseEqualsScalar) {
  for (const kern::Isa isa : compiled_isas()) {
    std::uint64_t seed = 800;
    for (const auto& [what, net] : zonotope_networks(700)) {
      Rng rng(seed++);
      expect_relational_batch_matches(rng, net, zonotope_test_inputs(rng, net, 23), isa, what);
    }
    Rng rng(900);
    expect_relational_batch_matches(rng, all_unstable_network(33),
                                    {Box{Interval{-1.0, 1.0}}, Box{Interval{-0.75, 0.5}}}, isa,
                                    "all unstable");
  }
}

/// The test networks really sweep the column kinds they are built for:
/// counted on the scalar transformer's hidden layers over the test inputs.
TEST(Kernels, ZonotopeTestNetworksHaveTheirColumnKinds) {
  // Per hidden layer, the kind of each neuron on one input: 0 dead,
  // 1 stable-active, 2 unstable, as `Affine::relu` decides.
  const auto kinds = [](const Network& net, const Box& input) {
    std::vector<std::vector<int>> out;
    NoiseSource source;
    std::vector<Affine> current;
    for (std::size_t i = 0; i < input.dim(); ++i) {
      current.push_back(Affine::variable(input[i].lo(), input[i].hi(), source));
    }
    for (std::size_t li = 0; li + 1 < net.num_layers(); ++li) {
      const Layer& layer = net.layers()[li];
      std::vector<Affine> next;
      std::vector<int>& k = out.emplace_back();
      for (std::size_t r = 0; r < layer.weights.rows(); ++r) {
        Affine acc{layer.biases[r]};
        for (std::size_t c = 0; c < layer.weights.cols(); ++c) {
          if (layer.weights(r, c) != 0.0) {
            acc += layer.weights(r, c) * current[c];
          }
        }
        const Interval range = acc.range();
        k.push_back(range.lo() >= 0.0 ? 1 : range.hi() <= 0.0 ? 0 : 2);
        next.push_back(acc.relu(source));
      }
      current = std::move(next);
    }
    return out;
  };
  const Network dead = dead_block_network(600);
  const Box negative{{Interval{-1.0, -0.5}, Interval{-0.9, -0.2}}};
  const Box positive{{Interval{0.3, 0.9}, Interval{0.2, 0.6}}};
  EXPECT_EQ(kinds(dead, negative)[1], std::vector<int>(40, 0));
  const std::vector<int> mixed = kinds(dead, positive)[1];
  EXPECT_EQ(std::vector<int>(mixed.begin(), mixed.begin() + 20), std::vector<int>(20, 0));
  EXPECT_NE(std::count(mixed.begin(), mixed.end(), 0), 40);

  const Network cycling = cycling_network(601);
  for (const Box& input : {Box{{Interval{-1.0, 1.0}, Interval{-1.0, 1.0}}},
                           Box{{Interval{-0.4, 0.5}, Interval{0.0, 0.3}}}}) {
    for (const std::vector<int>& layer : kinds(cycling, input)) {
      for (std::size_t r = 0; r < layer.size(); ++r) {
        EXPECT_EQ(layer[r], static_cast<int>(r % 3)) << "neuron " << r;
      }
    }
  }
}

TEST(Kernels, ZonotopeMalformedSlotRecordThrows) {
  const kern::PackedNetwork packed = kern::pack_network(random_network(950, {3, 5, 2}));
  const kern::PackedLayer& layer = packed.layers.front();
  for (const kern::Isa isa : compiled_isas()) {
    // Three columns over four slots: one shared, then own slots.
    const auto forms = [&](std::size_t shared, std::vector<std::size_t> own) {
      kern::ZonotopeForms f;
      f.width = 3;
      f.stride = packed.stride;
      f.n_slots = 4;
      f.shared = shared;
      f.coeffs.assign(4 * f.stride, 0.0);
      f.center.assign(f.stride, 0.0);
      f.err.assign(f.stride, 0.0);
      f.own = std::move(own);
      return f;
    };
    const std::size_t kShared = kern::ZonotopeForms::kSharedOnly;
    const std::size_t kDead = kern::ZonotopeForms::kDead;
    kern::ZonotopeForms out = forms(0, {});
    kern::ZonotopeForms ok = forms(1, {1, kDead, 3});
    EXPECT_EQ(kern::zonotope_affine_layer(layer, ok, out, isa), 5U * (2U + 2U));
    EXPECT_EQ(out.shared, 4U);
    EXPECT_EQ(out.own, std::vector<std::size_t>(5, kShared));
    ok = forms(4, {kShared, kShared, kShared});
    EXPECT_EQ(kern::zonotope_affine_layer(layer, ok, out, isa), 5U * 3U * 4U);
    std::vector<kern::ZonotopeForms> bad;
    bad.push_back(forms(5, {kShared, kShared, kShared}));  // shared past n_slots
    bad.push_back(forms(1, {0, kShared, kShared}));        // own slot below the shared ones
    bad.push_back(forms(1, {kShared, 4, kShared}));        // own slot past n_slots
    bad.push_back(forms(1, {2, 2, kShared}));              // two columns own one slot
    bad.push_back(forms(1, {3, kDead, 2}));                // own slots out of order
    bad.push_back(forms(1, {kShared, kShared}));           // shorter than the width
    for (std::size_t i = 0; i < bad.size(); ++i) {
      EXPECT_THROW((void)kern::zonotope_affine_layer(layer, bad[i], out, isa),
                   std::invalid_argument)
          << "isa=" << to_string(isa) << " record " << i;
    }
  }
}

TEST(Kernels, PackNetworkRefusesNonFiniteWeights) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Network weight = random_network(960, {3, 4, 2});
    weight.layer(1).weights(1, 2) = bad;
    try {
      (void)kern::pack_network(weight);
      ADD_FAILURE() << "weight " << bad << " packed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("layer 1"), std::string::npos) << e.what();
    }
    Network bias = random_network(961, {3, 4, 2});
    bias.layer(0).biases[3] = bad;
    EXPECT_THROW((void)kern::pack_network(bias), std::invalid_argument) << "bias " << bad;
  }
}

// ---------------------------------------------------------------------------
// Controller level: step_abstract_batch against an oracle built from the
// scalar reference transformers, independent of the controller's own body.

constexpr std::size_t kStateDim = 3;
constexpr std::size_t kNumCommands = 4;
// Two networks so the selector actually routes different batch members to
// different nets (commands 0/1 -> net 0, commands 2/3 -> net 1).
const std::vector<std::size_t> kSelector = {0, 0, 1, 1};

NeuralController make_controller(NnDomain domain, NnCacheMode cache_mode, std::uint64_t seed) {
  std::vector<Vec> command_vectors;
  for (std::size_t c = 0; c < kNumCommands; ++c) {
    command_vectors.push_back(Vec{static_cast<double>(c)});
  }
  std::vector<Network> nets;
  nets.push_back(random_network(seed, {kStateDim, 8, kNumCommands}));
  nets.push_back(random_network(seed + 1, {kStateDim, 8, kNumCommands}));
  NnCacheConfig cache;
  cache.mode = cache_mode;
  return NeuralController(CommandSet{command_vectors}, std::move(nets), kSelector,
                          std::make_unique<IdentityPre>(kStateDim), domain, cache);
}

/// Pre# → F# → Post# for one state from the scalar transformers: the
/// zonotope transformer on the relational pre-image (with a copied noise
/// source), else `domain`'s symbolic or interval one.
AbstractControlStep oracle_step(const NeuralController& ctrl, NnDomain domain,
                                const AbstractState& state, std::size_t previous_command) {
  const IdentityPre pre(kStateDim);
  const Network& net = ctrl.networks()[kSelector[previous_command]];
  AbstractControlStep step;
  if (state.has_relational()) {
    const AffineSet image = pre.eval_abstract(*state.relational());
    step.network_input = image.concretize();
    NoiseSource scratch = image.noise();
    const ZonotopeBounds bounds = zonotope_propagate(net, image.components(), scratch);
    step.commands = possible_argmin(bounds);
    step.network_output = bounds.output_box;
    return step;
  }
  step.network_input = pre.eval_abstract(state.box());
  switch (domain) {
    case NnDomain::kSymbolic: {
      const SymbolicBounds bounds = symbolic_propagate(net, step.network_input);
      step.commands = possible_argmin(bounds);
      step.network_output = bounds.output_box;
      break;
    }
    case NnDomain::kInterval:
      step.network_output = interval_propagate(net, step.network_input);
      step.commands = possible_argmin(step.network_output);
      break;
  }
  return step;
}

::testing::AssertionResult steps_bitwise_eq(const AbstractControlStep& a,
                                            const AbstractControlStep& b) {
  if (a.commands != b.commands) {
    return ::testing::AssertionFailure() << "command sets differ";
  }
  if (auto eq = boxes_bitwise_eq(a.network_input, b.network_input); !eq) {
    return ::testing::AssertionFailure() << "network input: " << eq.message();
  }
  if (auto eq = boxes_bitwise_eq(a.network_output, b.network_output); !eq) {
    return ::testing::AssertionFailure() << "network output: " << eq.message();
  }
  return ::testing::AssertionSuccess();
}

/// A correlated relational state: a lifted box mixed through a random
/// linear image, so the forms share noise symbols (the shape the
/// integrator hands the controller).
AbstractState correlated_state(Rng& rng, const Box& box) {
  IntervalMatrix m(kStateDim, kStateDim);
  for (std::size_t r = 0; r < kStateDim; ++r) {
    for (std::size_t c = 0; c < kStateDim; ++c) {
      m.at(r, c) = Interval{r == c ? 1.0 : rng.uniform(-0.3, 0.3)};
    }
  }
  auto set = std::make_shared<const AffineSet>(AffineSet::from_box(box).linear_image(m));
  return AbstractState{set->concretize(), set};
}

/// A relational state that is the plain lift of `box`.
AbstractState lifted_state(const Box& box) {
  return AbstractState{box, std::make_shared<const AffineSet>(AffineSet::from_box(box))};
}

/// With `lift`, the plain boxes enter as their `from_box` lifts: the
/// relational view the zonotope loop gives a box after a split or a join.
void expect_batch_matches_oracle(NnDomain domain, bool lift = false) {
  const NeuralController ctrl = make_controller(domain, NnCacheMode::kOff, 900);
  Rng rng(901);
  std::vector<AbstractState> states;
  std::vector<std::size_t> commands;
  for (int k = 0; k < 13; ++k) {
    const Box box = random_box(rng, kStateDim);
    if (k % 3 == 2) {
      states.push_back(correlated_state(rng, box));
    } else {
      states.push_back(lift ? lifted_state(box) : AbstractState{box});
    }
    commands.push_back(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  }
  // Duplicates: a state under the same command (a box is propagated once),
  // the same state under the other network (never shared across networks),
  // and a repeated relational state (never deduplicated).
  states.push_back(states[0]);
  commands.push_back(commands[0]);
  states.push_back(states[0]);
  commands.push_back((commands[0] + 2) % kNumCommands);
  states.push_back(states[2]);
  commands.push_back(commands[2]);

  const std::vector<AbstractControlStep> batched = ctrl.step_abstract_batch(states, commands);
  ASSERT_EQ(batched.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const AbstractControlStep expected = oracle_step(ctrl, domain, states[i], commands[i]);
    EXPECT_TRUE(steps_bitwise_eq(batched[i], expected)) << "state " << i;
    // The scalar entry points are batches of one through the same body.
    const AbstractControlStep single =
        states[i].has_relational()
            ? ctrl.step_abstract_relational(*states[i].relational(), commands[i])
            : ctrl.step_abstract(states[i].box(), commands[i]);
    EXPECT_TRUE(steps_bitwise_eq(single, expected)) << "single state " << i;
  }
}

TEST(ControllerBatch, SymbolicNoCache) {
  // Box states batch through the symbolic SoA kernel.
  expect_batch_matches_oracle(NnDomain::kSymbolic);
}

TEST(ControllerBatch, IntervalNoCache) {
  // Box states run lane by lane through the scalar interval transformer.
  expect_batch_matches_oracle(NnDomain::kInterval);
}

TEST(ControllerBatch, AffineDomainNoCache) {
  // A box reaches the zonotope transformer as its `from_box` lift: such
  // states batch through the zonotope SoA kernel, next to correlated ones.
  expect_batch_matches_oracle(NnDomain::kSymbolic, /*lift=*/true);
}

TEST(ControllerBatch, RelationalStatesMatchScalarRelationalStep) {
  // Relational states route through the zonotope transformer whatever the
  // NN domain, next to box states of the domain's own transformer.
  for (const NnDomain domain : {NnDomain::kSymbolic, NnDomain::kInterval}) {
    const NeuralController ctrl = make_controller(domain, NnCacheMode::kOff, 920);
    Rng rng(921);
    std::vector<AbstractState> states;
    std::vector<std::size_t> commands;
    for (int k = 0; k < 9; ++k) {
      const Box box = random_box(rng, kStateDim);
      // Half the states carry genuine correlations, half are plain lifts.
      states.push_back(k % 2 == 0 ? correlated_state(rng, box) : lifted_state(box));
      commands.push_back(static_cast<std::size_t>(rng.uniform_int(0, 3)));
    }
    states.emplace_back(random_box(rng, kStateDim));
    commands.push_back(static_cast<std::size_t>(rng.uniform_int(0, 3)));
    const std::vector<AbstractControlStep> batched = ctrl.step_abstract_batch(states, commands);
    ASSERT_EQ(batched.size(), states.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
      const AbstractControlStep expected = oracle_step(ctrl, domain, states[i], commands[i]);
      EXPECT_TRUE(steps_bitwise_eq(batched[i], expected))
          << "domain " << static_cast<int>(domain) << " state " << i;
    }
  }
}

/// A random box inside `outer`.
Box random_sub_box(Rng& rng, const Box& outer) {
  std::vector<Interval> dims;
  for (std::size_t d = 0; d < outer.dim(); ++d) {
    const double a = rng.uniform(outer[d].lo(), outer[d].hi());
    const double b = rng.uniform(outer[d].lo(), outer[d].hi());
    dims.emplace_back(std::min(a, b), std::max(a, b));
  }
  return Box{std::move(dims)};
}

/// Containment mode runs the body one state at a time, so a batch must
/// replay a loop of single-state calls on a fresh controller exactly:
/// results and cache statistics alike. Only the box states consult the
/// cache; the relational ones mixed in bypass it.
void expect_containment_batch_matches_loop(NnDomain domain) {
  const NeuralController batch_ctrl = make_controller(domain, NnCacheMode::kContainment, 930);
  const NeuralController loop_ctrl = make_controller(domain, NnCacheMode::kContainment, 930);
  Rng rng(931);
  std::vector<AbstractState> states;
  std::vector<std::size_t> commands;
  std::size_t box_states = 0;
  const auto add = [&](AbstractState state, std::size_t command) {
    box_states += state.has_relational() ? 0 : 1;
    states.push_back(std::move(state));
    commands.push_back(command);
  };
  for (int k = 0; k < 4; ++k) {
    // A parent as a box and as its lift, children of both kinds, a
    // correlated set and an exact repeat of the box: box children reuse the
    // parent's entry (or fall back), relational states bypass the cache.
    const Box parent = random_box(rng, kStateDim);
    const auto command = static_cast<std::size_t>(rng.uniform_int(0, 3));
    add(AbstractState{parent}, command);
    add(lifted_state(parent), command);
    for (int c = 0; c < 3; ++c) {
      const Box child = random_sub_box(rng, parent);
      add(AbstractState{child}, command);
      add(lifted_state(child), command);
    }
    add(correlated_state(rng, random_sub_box(rng, parent)), command);
    add(AbstractState{parent}, command);
  }
  const std::vector<AbstractControlStep> batched =
      batch_ctrl.step_abstract_batch(states, commands);
  ASSERT_EQ(batched.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const AbstractControlStep single =
        states[i].has_relational()
            ? loop_ctrl.step_abstract_relational(*states[i].relational(), commands[i])
            : loop_ctrl.step_abstract(states[i].box(), commands[i]);
    EXPECT_TRUE(steps_bitwise_eq(batched[i], single)) << "state " << i;
  }
  ASSERT_NE(batch_ctrl.query_cache(), nullptr);
  ASSERT_NE(loop_ctrl.query_cache(), nullptr);
  const NnQueryCache::Stats batch = batch_ctrl.query_cache()->stats();
  const NnQueryCache::Stats loop = loop_ctrl.query_cache()->stats();
  EXPECT_EQ(batch.hits, loop.hits);
  EXPECT_EQ(batch.misses, loop.misses);
  EXPECT_EQ(batch.containment_hits, loop.containment_hits);
  EXPECT_EQ(batch.reuse_fallbacks, loop.reuse_fallbacks);
  EXPECT_EQ(batch.lookups(), box_states);
  EXPECT_GT(batch.hits - batch.containment_hits, 0U) << "exact repeats must replay";
  if (domain == NnDomain::kSymbolic) {
    EXPECT_GT(batch.containment_hits + batch.reuse_fallbacks, 0U)
        << "box children must attempt reuse of their parents' bounds";
  } else {
    EXPECT_EQ(batch.containment_hits + batch.reuse_fallbacks, 0U)
        << "interval entries carry no bounds to reuse";
  }
}

TEST(ControllerBatch, SymbolicContainmentCacheFallsBackToScalarLoop) {
  expect_containment_batch_matches_loop(NnDomain::kSymbolic);
}

TEST(ControllerBatch, IntervalContainmentCacheMatchesSingleStateLoop) {
  expect_containment_batch_matches_loop(NnDomain::kInterval);
}

TEST(ControllerBatch, RelationalQueriesBypassTheCache) {
  // Lifted parents, their lifted children and correlated sets: a
  // containment controller never looks them up or inserts them, so it
  // answers them bit for bit as an uncached controller does.
  const NeuralController cached =
      make_controller(NnDomain::kSymbolic, NnCacheMode::kContainment, 940);
  const NeuralController bare = make_controller(NnDomain::kSymbolic, NnCacheMode::kOff, 940);
  Rng rng(941);
  std::vector<AbstractState> states;
  std::vector<std::size_t> commands;
  for (int k = 0; k < 4; ++k) {
    const Box parent = random_box(rng, kStateDim);
    const auto command = static_cast<std::size_t>(rng.uniform_int(0, 3));
    states.push_back(lifted_state(parent));
    for (int c = 0; c < 3; ++c) {
      states.push_back(lifted_state(random_sub_box(rng, parent)));
    }
    states.push_back(correlated_state(rng, random_sub_box(rng, parent)));
    commands.resize(states.size(), command);
  }
  const std::vector<AbstractControlStep> with_cache =
      cached.step_abstract_batch(states, commands);
  const std::vector<AbstractControlStep> without = bare.step_abstract_batch(states, commands);
  ASSERT_EQ(with_cache.size(), states.size());
  ASSERT_EQ(without.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_TRUE(steps_bitwise_eq(with_cache[i], without[i])) << "state " << i;
  }
  ASSERT_NE(cached.query_cache(), nullptr);
  EXPECT_EQ(cached.query_cache()->stats().lookups(), 0U);
  EXPECT_EQ(cached.query_cache()->stats().entries, 0U);
}

TEST(NeuralController, ConcurrentBatchesMatchSequential) {
  // Four networks, one per previous command, packed once at construction
  // and swept by every thread at once; each thread also keeps its own
  // symbolic scratch buffers.
  std::vector<Vec> command_vectors;
  std::vector<Network> nets;
  for (std::size_t c = 0; c < kNumCommands; ++c) {
    command_vectors.push_back(Vec{static_cast<double>(c)});
    nets.push_back(random_network(960 + c, {kStateDim, 8 + 8 * c, 8, kNumCommands}));
  }
  const NeuralController ctrl(CommandSet{command_vectors}, std::move(nets), {0, 1, 2, 3},
                              std::make_unique<IdentityPre>(kStateDim), NnDomain::kSymbolic);
  Rng rng(961);
  constexpr std::size_t kCalls = 16;
  std::vector<std::vector<AbstractState>> states(kCalls);
  std::vector<std::vector<std::size_t>> commands(kCalls);
  for (std::size_t call = 0; call < kCalls; ++call) {
    for (int k = 0; k < 6; ++k) {
      const Box box = random_box(rng, kStateDim);
      switch (k % 3) {
        case 0:
          states[call].emplace_back(box);
          break;
        case 1:
          states[call].push_back(correlated_state(rng, box));
          break;
        default:
          states[call].push_back(lifted_state(box));
      }
      commands[call].push_back(static_cast<std::size_t>(rng.uniform_int(0, 3)));
    }
  }
  std::vector<std::vector<AbstractControlStep>> expected;
  for (std::size_t call = 0; call < kCalls; ++call) {
    expected.push_back(ctrl.step_abstract_batch(states[call], commands[call]));
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<AbstractControlStep>>> got(
      kThreads, std::vector<std::vector<AbstractControlStep>>(kCalls));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread runs the list three times, starting at another call.
      for (std::size_t k = 0; k < 3 * kCalls; ++k) {
        const std::size_t call = (k + 5 * t) % kCalls;
        got[t][call] = ctrl.step_abstract_batch(states[call], commands[call]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t call = 0; call < kCalls; ++call) {
      ASSERT_EQ(got[t][call].size(), expected[call].size());
      for (std::size_t i = 0; i < expected[call].size(); ++i) {
        EXPECT_TRUE(steps_bitwise_eq(got[t][call][i], expected[call][i]))
            << "thread " << t << " call " << call << " state " << i;
      }
    }
  }
}

TEST(ControllerBatch, BaseDefaultLoopsScalarStep) {
  const NeuralController ctrl = make_controller(NnDomain::kSymbolic, NnCacheMode::kOff, 950);
  Rng rng(951);
  std::vector<Box> states;
  std::vector<std::size_t> commands;
  for (int k = 0; k < 5; ++k) {
    states.push_back(random_box(rng, kStateDim));
    commands.push_back(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  }
  // Call the base-class default explicitly through a Controller reference
  // bound to a wrapper that does not override the batch entry point.
  class Wrapper final : public Controller {
   public:
    explicit Wrapper(const NeuralController& inner) : inner_(inner) {}
    [[nodiscard]] const CommandSet& commands() const override { return inner_.commands(); }
    [[nodiscard]] std::size_t state_dim() const override { return inner_.state_dim(); }
    [[nodiscard]] std::size_t step(const Vec& state, std::size_t prev) const override {
      return inner_.step(state, prev);
    }
    [[nodiscard]] AbstractControlStep step_abstract(const Box& state,
                                                    std::size_t prev) const override {
      return inner_.step_abstract(state, prev);
    }

   private:
    const NeuralController& inner_;
  };
  const Wrapper wrapper(ctrl);
  const std::vector<AbstractState> abstract_states(states.begin(), states.end());
  const std::vector<AbstractControlStep> batched =
      wrapper.step_abstract_batch(abstract_states, commands);
  ASSERT_EQ(batched.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const AbstractControlStep scalar = ctrl.step_abstract(states[i], commands[i]);
    EXPECT_EQ(batched[i].commands, scalar.commands);
    EXPECT_TRUE(boxes_bitwise_eq(batched[i].network_output, scalar.network_output));
  }
  EXPECT_THROW((void)wrapper.step_abstract_batch(abstract_states, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace nncs
