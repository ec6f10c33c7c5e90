#pragma once

#include <vector>

#include "interval/box.hpp"
#include "nn/network.hpp"

namespace nncs {

/// Rigorous interval abstract transformer for a ReLU network: propagates the
/// input box layer by layer through outward-rounded interval arithmetic.
/// This is the baseline F# of §6.6 (ReluVal's interval mode); the symbolic
/// transformer in `symbolic_prop.hpp` is usually much tighter.
Box interval_propagate(const Network& net, const Box& input);

/// Same propagation, also recording each layer's pre-activation bounds
/// (used for ReLU-stability diagnostics and in tests).
struct IntervalTrace {
  std::vector<Box> preactivations;
  Box output;
};
IntervalTrace interval_propagate_trace(const Network& net, const Box& input);

}  // namespace nncs
