#include "acasxu/controller.hpp"

#include <numeric>
#include <stdexcept>

#include "acasxu/dynamics.hpp"
#include "acasxu/policy.hpp"

namespace nncs::acasxu {

CommandSet make_command_set() {
  std::vector<Vec> commands;
  commands.reserve(kNumAdvisories);
  for (std::size_t a = 0; a < kNumAdvisories; ++a) {
    commands.push_back(Vec{turn_rate(a)});
  }
  return CommandSet{std::move(commands)};
}

std::size_t AcasPre::input_dim() const { return kStateDim; }

std::size_t AcasPre::output_dim() const { return kStateDim; }

Vec AcasPre::eval(const Vec& state) const {
  const Vec polar{rho(state[kIdxX], state[kIdxY]), theta(state[kIdxX], state[kIdxY]),
                  state[kIdxPsi], state[kIdxVown], state[kIdxVint]};
  return normalize_features(polar);
}

Box AcasPre::eval_abstract(const Box& state) const {
  const Box polar{rho(state[kIdxX], state[kIdxY]), theta(state[kIdxX], state[kIdxY]),
                  state[kIdxPsi], state[kIdxVown], state[kIdxVint]};
  return normalize_features(polar);
}

std::unique_ptr<NeuralController> make_controller(std::vector<Network> networks,
                                                  NnDomain domain) {
  if (networks.size() != kNumAdvisories) {
    throw std::invalid_argument("make_controller: expected exactly 5 networks");
  }
  for (const auto& net : networks) {
    if (net.input_dim() != kStateDim || net.output_dim() != kNumAdvisories) {
      throw std::invalid_argument("make_controller: networks must map R^5 -> R^5");
    }
  }
  std::vector<std::size_t> selector(kNumAdvisories);
  std::iota(selector.begin(), selector.end(), 0);  // λ: advisory i → network i
  return std::make_unique<NeuralController>(make_command_set(), std::move(networks),
                                            std::move(selector), std::make_unique<AcasPre>(),
                                            domain);
}

}  // namespace nncs::acasxu
