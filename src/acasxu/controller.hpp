#pragma once

#include <memory>
#include <vector>

#include "acasxu/geometry.hpp"
#include "core/controller.hpp"

namespace nncs::acasxu {

/// The command set U = {COC, WL, WR, SL, SR} as turn rates in rad/s
/// (paper Example 1).
CommandSet make_command_set();

/// The ACAS Xu pre-processing (paper Example 3, Fig 5): cartesian state
/// (x, y, ψ, v_own, v_int) → cylindrical features (ρ, θ, ψ, v_own, v_int),
/// normalized. The abstract transformer Pre# goes through outward-rounded
/// interval arithmetic (including the sound interval atan2).
class AcasPre final : public Preprocessor {
 public:
  [[nodiscard]] std::size_t input_dim() const override;
  [[nodiscard]] std::size_t output_dim() const override;
  [[nodiscard]] Vec eval(const Vec& state) const override;
  [[nodiscard]] Box eval_abstract(const Box& state) const override;
};

/// Assemble the full ACAS Xu controller N (Fig 5): λ maps advisory i to
/// network i (one network per previous advisory, the t_sep = 0 slice of the
/// 45-network collection), AcasPre in front, argmin Post behind.
/// `networks` must contain exactly 5 networks with 5 inputs and 5 outputs.
std::unique_ptr<NeuralController> make_controller(std::vector<Network> networks,
                                                  NnDomain domain = NnDomain::kSymbolic);

}  // namespace nncs::acasxu
