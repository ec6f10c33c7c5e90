#include "scenario/acasxu_scenario.hpp"

#include <algorithm>
#include <numbers>
#include <sstream>

#include "acasxu/controller.hpp"
#include "acasxu/dynamics.hpp"
#include "acasxu/policy.hpp"
#include "acasxu/scenario.hpp"
#include "acasxu/training_pipeline.hpp"

namespace nncs::scenario {

namespace {

constexpr double kPi = std::numbers::pi;

class AcasxuScenario final : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "acasxu"; }

  [[nodiscard]] std::string description() const override {
    return "ACAS Xu mid-air collision avoidance (paper §7.1): sensor-circle "
           "encounters vs the 500 ft collision cylinder";
  }

  [[nodiscard]] std::string version() const override { return "1"; }

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> parameters() const override {
    std::vector<std::pair<std::string, std::string>> params;
    params.emplace_back("sensor_range", num(acasxu::kSensorRange));
    params.emplace_back("collision_radius", num(acasxu::kCollisionRadius));
    params.emplace_back("vown", num(acasxu::kVown));
    params.emplace_back("vint", num(acasxu::kVint));
    // config_stamp uses commas; parameter values must be comma-free so they
    // embed in fingerprints and checkpoint/CSV headers.
    std::string stamp = acasxu::config_stamp(acasxu::TrainingConfig{});
    std::replace(stamp.begin(), stamp.end(), ',', '|');
    params.emplace_back("training", std::move(stamp));
    return params;
  }

  [[nodiscard]] std::pair<std::string, std::string> axis_names() const override {
    return {"arcs", "headings"};
  }

  [[nodiscard]] Partition default_partition() const override { return {32, 8}; }

  [[nodiscard]] std::pair<std::string, std::string> bin_axis() const override {
    return {"bearing", "bearing_mid_rad"};
  }

  [[nodiscard]] std::unique_ptr<Dynamics> make_plant() const override {
    return acasxu::make_dynamics();
  }

  [[nodiscard]] System make_system(const SystemConfig& config) const override {
    const acasxu::TrainingConfig training;
    const auto nets_dir =
        config.nets_dir.empty() ? std::filesystem::path{"acasxu_nets_cache"} : config.nets_dir;
    auto networks = acasxu::ensure_networks(nets_dir, training);
    System system;
    system.plant = make_plant();
    system.controller = acasxu::make_controller(std::move(networks), config.domain);
    system.controller->configure_cache(config.nn_cache);
    system.loop = ClosedLoop{system.plant.get(), system.controller.get(), 1.0};
    return system;
  }

  /// E: the collision cylinder ρ < kCollisionRadius.
  [[nodiscard]] std::unique_ptr<StateRegion> make_error_region() const override {
    return std::make_unique<RadialRegion>(acasxu::kIdxX, acasxu::kIdxY,
                                          acasxu::kCollisionRadius,
                                          RadialRegion::Mode::kInner);
  }

  /// T: sensor escape ρ > kSensorRange.
  [[nodiscard]] std::unique_ptr<StateRegion> make_target_region() const override {
    return std::make_unique<RadialRegion>(acasxu::kIdxX, acasxu::kIdxY, acasxu::kSensorRange,
                                          RadialRegion::Mode::kOuter);
  }

  /// The ribbon partition of the initial set (Fig 8): `axis0` bearing arcs
  /// of the sensor circle × `axis1` heading segments within each arc's
  /// penetration cone (the half-circle of headings pointing into R). The
  /// arc count is rounded up to even so the grid has a boundary at bearing
  /// 0, where the ψ-representative branch switches (`acasxu::cone_center`).
  /// Every cell carries the COC command; its bin is the arc's bearing range.
  [[nodiscard]] std::vector<Cell> make_cells(const Partition& partition) const override {
    const Partition p = resolve(*this, partition);
    const std::size_t num_arcs = p.axis0 + (p.axis0 % 2);
    std::vector<Cell> cells;
    cells.reserve(num_arcs * p.axis1);
    const double arc_width = 2.0 * kPi / static_cast<double>(num_arcs);
    for (std::size_t a = 0; a < num_arcs; ++a) {
      const double b_lo = -kPi + static_cast<double>(a) * arc_width;
      const double b_hi = b_lo + arc_width;
      const Interval bearing{b_lo, b_hi};
      // Sound enclosure of the arc segment {(−r sin b, r cos b) | b ∈ [b]}.
      const Interval x = Interval{-acasxu::kSensorRange} * sin(bearing);
      const Interval y = Interval{acasxu::kSensorRange} * cos(bearing);
      // Penetration cone over the whole bearing segment: headings within
      // ±π/2 of pointing at the ownship. The center is continuous in b
      // across the segment (no wrap inside one small arc).
      const double c_lo = acasxu::cone_center(b_lo);
      const double c_hi = c_lo + arc_width;  // cone_center is b + π (mod 2π)
      const double psi_min = c_lo - kPi / 2.0;
      const double psi_max = c_hi + kPi / 2.0;
      const double psi_width = (psi_max - psi_min) / static_cast<double>(p.axis1);
      for (std::size_t h = 0; h < p.axis1; ++h) {
        const double p_lo = psi_min + static_cast<double>(h) * psi_width;
        Cell cell;
        cell.state.abstract = Box{x, y, Interval{p_lo, p_lo + psi_width},
                                  Interval{acasxu::kVown}, Interval{acasxu::kVint}};
        cell.state.command = acasxu::kCoc;
        cell.bin_lo = b_lo;
        cell.bin_hi = b_hi;
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  }

  [[nodiscard]] VerifyConfig default_config() const override {
    VerifyConfig config;
    config.reach.control_steps = 20;      // τ = 20 s (paper)
    config.reach.integration_steps = 10;  // M = 10 (paper)
    config.reach.gamma = 5;               // Γ = P = 5 (paper)
    config.max_refinement_depth = 1;
    // Split refinement bisects x0, y0 and ψ0 (§7.1).
    config.split_dims = {acasxu::kIdxX, acasxu::kIdxY, acasxu::kIdxPsi};
    return config;
  }

  [[nodiscard]] int default_taylor_order() const override { return 4; }

  [[nodiscard]] SmokeSpec smoke() const override {
    SmokeSpec spec;
    spec.partition = {16, 4};
    spec.control_steps = 10;
    spec.max_refinement_depth = 0;
    // Coarse arcs legitimately over-approximate into the collision
    // cylinder, so all-safe is unattainable at smoke scale; what must hold
    // is that verification proves *some* cells and never loses enclosures.
    spec.expected = SmokeExpectation::kSomeProved;
    return spec;
  }

 private:
  [[nodiscard]] static std::string num(double value) {
    std::ostringstream oss;
    oss << value;
    return oss.str();
  }
};

}  // namespace

std::unique_ptr<Scenario> make_acasxu_scenario() { return std::make_unique<AcasxuScenario>(); }

}  // namespace nncs::scenario
