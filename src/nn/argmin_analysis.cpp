#include "nn/argmin_analysis.hpp"

#include <limits>
#include <stdexcept>

namespace nncs {

std::vector<std::size_t> possible_argmin(const Box& outputs) {
  if (outputs.dim() == 0) {
    throw std::invalid_argument("possible_argmin: empty output box");
  }
  double min_hi = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < outputs.dim(); ++j) {
    min_hi = std::min(min_hi, outputs[j].hi());
  }
  std::vector<std::size_t> result;
  for (std::size_t k = 0; k < outputs.dim(); ++k) {
    if (outputs[k].lo() <= min_hi) {
      result.push_back(k);
    }
  }
  return result;
}

std::vector<std::size_t> possible_argmin(const SymbolicBounds& bounds) {
  const std::size_t p = bounds.outputs.size();
  if (p == 0) {
    throw std::invalid_argument("possible_argmin: empty symbolic bounds");
  }
  std::vector<std::size_t> result;
  for (std::size_t k = 0; k < p; ++k) {
    bool excluded = false;
    for (std::size_t j = 0; j < p && !excluded; ++j) {
      if (j == k) {
        continue;
      }
      // If y_j − y_k < 0 everywhere, k can never be the minimum.
      if (output_difference_negative(bounds, j, k)) {
        excluded = true;
      }
    }
    if (!excluded) {
      result.push_back(k);
    }
  }
  return result;
}

std::size_t concrete_argmin(const Vec& outputs) {
  if (outputs.empty()) {
    throw std::invalid_argument("concrete_argmin: empty vector");
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    if (outputs[i] < outputs[best]) {
      best = i;
    }
  }
  return best;
}

}  // namespace nncs
