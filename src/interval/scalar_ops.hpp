#pragma once

#include <cmath>
#include <utility>

#include "interval/interval.hpp"

namespace nncs {

/// `double` overloads matching the `Interval` math vocabulary so plant
/// dynamics can be written once, generically over the scalar type:
///
///   template <class S> void f(std::span<const S> s, ..., std::span<S> out);
///
/// Inside such a functor, unqualified calls to `sin`, `cos`, `sincos`, `sqr`,
/// ... pick the right overload via ADL for `double`, `Interval` and
/// the Taylor sweep's recording scalar `TapeVar`.
inline double sin(double x) { return std::sin(x); }
inline double cos(double x) { return std::cos(x); }
inline std::pair<double, double> sincos(double x) { return {std::sin(x), std::cos(x)}; }
inline double sqrt(double x) { return std::sqrt(x); }
inline double exp(double x) { return std::exp(x); }
inline double log(double x) { return std::log(x); }
inline double abs(double x) { return std::fabs(x); }
inline double sqr(double x) { return x * x; }
inline double atan(double x) { return std::atan(x); }
inline double atan2(double y, double x) { return std::atan2(y, x); }

}  // namespace nncs
