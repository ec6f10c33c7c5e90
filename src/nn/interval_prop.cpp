#include "nn/interval_prop.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace nncs {

namespace {

Box affine_image(const Layer& layer, const Box& input) {
  std::vector<Interval> out;
  out.reserve(layer.weights.rows());
  for (std::size_t r = 0; r < layer.weights.rows(); ++r) {
    Interval acc{layer.biases[r]};
    for (std::size_t c = 0; c < layer.weights.cols(); ++c) {
      acc += Interval{layer.weights(r, c)} * input[c];
    }
    out.push_back(acc);
  }
  return Box{std::move(out)};
}

Box relu_image(const Box& pre) {
  std::vector<Interval> out;
  out.reserve(pre.dim());
  for (std::size_t i = 0; i < pre.dim(); ++i) {
    out.push_back(max(pre[i], Interval{0.0}));
  }
  return Box{std::move(out)};
}

}  // namespace

Box interval_propagate(const Network& net, const Box& input) {
  return interval_propagate_trace(net, input).output;
}

IntervalTrace interval_propagate_trace(const Network& net, const Box& input) {
  if (input.dim() != net.input_dim()) {
    throw std::invalid_argument("interval_propagate: input dimension mismatch");
  }
  IntervalTrace trace;
  trace.preactivations.reserve(net.num_layers());
  Box current = input;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const bool is_output = li + 1 == net.num_layers();
    Box pre = affine_image(net.layers()[li], current);
    trace.preactivations.push_back(pre);
    current = is_output ? std::move(pre) : relu_image(pre);
  }
  trace.output = std::move(current);
  return trace;
}

}  // namespace nncs
