#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

/// Directed-rounding primitives.
///
/// We do not rely on `fesetround` (fragile under optimizing compilers without
/// `-frounding-math` and not thread-friendly). Instead every arithmetic
/// result is widened by one ulp in the required direction by `next_up` /
/// `next_down`, which step the bit pattern and equal
/// `std::nextafter(x, ±inf)` for every input. With IEEE-754
/// correctly-rounded `+ - * /` (error <= 0.5 ulp), one such step is a sound
/// outward bound; the price is at most one extra ulp of conservatism per
/// operation.
///
/// Standard-library transcendentals (`sin`, `exp`, ...) are not guaranteed
/// correctly rounded; glibc documents errors of a few ulps, so we widen those
/// results by `kLibmUlps` steps.
namespace nncs::rnd {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Number of one-ulp steps used to bound libm transcendental error.
inline constexpr int kLibmUlps = 4;

/// Rounding slack of one round-to-nearest update of a floating-point affine
/// form: each coefficient operation errs by at most a few ulps of the
/// running magnitudes, and this factor times their sum is folded into the
/// form's error term. `Affine`, the symbolic NN propagator and the batched
/// kernels that replay both bit for bit share this one constant.
inline constexpr double kCoeffSlack = 4.0 * std::numeric_limits<double>::epsilon();

// next_up/next_down are always inlined: the AVX2 kernel translation unit is
// compiled with -mavx2, and an out-of-line copy emitted there could be the
// one the linker binds every other caller to.

/// Smallest double strictly above `x`: a sign-magnitude integer step, with
/// ±0 landing on the smallest positive subnormal, +inf staying put and NaN
/// passing through.
[[gnu::always_inline]] inline double next_up(double x) {
  if (std::isnan(x)) {
    return x;
  }
  if (x == 0.0) {
    return std::bit_cast<double>(std::uint64_t{1});
  }
  const auto bits = std::bit_cast<std::uint64_t>(x);
  if (bits == 0x7ff0000000000000ULL) {  // +inf
    return x;
  }
  return std::bit_cast<double>((bits >> 63) == 0 ? bits + 1 : bits - 1);
}

/// Largest double strictly below `x` (identity on -inf and NaN).
[[gnu::always_inline]] inline double next_down(double x) {
  if (std::isnan(x)) {
    return x;
  }
  if (x == 0.0) {
    return std::bit_cast<double>(std::uint64_t{0x8000000000000001ULL});
  }
  const auto bits = std::bit_cast<std::uint64_t>(x);
  if (bits == 0xfff0000000000000ULL) {  // -inf
    return x;
  }
  return std::bit_cast<double>((bits >> 63) == 0 ? bits - 1 : bits + 1);
}

/// Move `x` down by `n` ulps.
inline double step_down(double x, int n) {
  for (int i = 0; i < n; ++i) {
    x = next_down(x);
  }
  return x;
}

/// Move `x` up by `n` ulps.
inline double step_up(double x, int n) {
  for (int i = 0; i < n; ++i) {
    x = next_up(x);
  }
  return x;
}

inline double add_down(double a, double b) { return next_down(a + b); }
inline double add_up(double a, double b) { return next_up(a + b); }
inline double sub_down(double a, double b) { return next_down(a - b); }
inline double sub_up(double a, double b) { return next_up(a - b); }
inline double mul_down(double a, double b) { return next_down(a * b); }
inline double mul_up(double a, double b) { return next_up(a * b); }

}  // namespace nncs::rnd
