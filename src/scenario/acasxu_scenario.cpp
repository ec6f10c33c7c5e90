#include "scenario/acasxu_scenario.hpp"

#include <algorithm>
#include <sstream>

#include "acasxu/controller.hpp"
#include "acasxu/dynamics.hpp"
#include "acasxu/scenario.hpp"
#include "acasxu/training_pipeline.hpp"

namespace nncs::scenario {

namespace {

class AcasxuScenario final : public Scenario {
 public:
  [[nodiscard]] std::string name() const override { return "acasxu"; }

  [[nodiscard]] std::string description() const override {
    return "ACAS Xu mid-air collision avoidance (paper §7.1): sensor-circle "
           "encounters vs the 500 ft collision cylinder";
  }

  [[nodiscard]] std::string version() const override { return "1"; }

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> parameters() const override {
    const acasxu::ScenarioConfig config = scenario_config();
    std::vector<std::pair<std::string, std::string>> params;
    params.emplace_back("sensor_range", num(config.sensor_range));
    params.emplace_back("collision_radius", num(config.collision_radius));
    params.emplace_back("vown", num(config.vown));
    params.emplace_back("vint", num(config.vint));
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

  [[nodiscard]] std::unique_ptr<StateRegion> make_error_region() const override {
    return std::make_unique<RadialRegion>(acasxu::make_error_region(scenario_config()));
  }

  [[nodiscard]] std::unique_ptr<StateRegion> make_target_region() const override {
    return std::make_unique<RadialRegion>(acasxu::make_target_region(scenario_config()));
  }

  [[nodiscard]] std::vector<Cell> make_cells(const Partition& partition) const override {
    const Partition p = resolve(*this, partition);
    acasxu::ScenarioConfig config = scenario_config();
    config.num_arcs = p.axis0;
    config.num_headings = p.axis1;
    std::vector<Cell> cells;
    for (auto& legacy : acasxu::make_initial_cells(config)) {
      Cell cell;
      cell.state = std::move(legacy.state);
      cell.bin_lo = legacy.bearing_lo;
      cell.bin_hi = legacy.bearing_hi;
      cells.push_back(std::move(cell));
    }
    return cells;
  }

  [[nodiscard]] VerifyConfig default_config() const override {
    VerifyConfig config;
    config.reach.control_steps = 20;      // τ = 20 s (paper)
    config.reach.integration_steps = 10;  // M = 10 (paper)
    config.reach.gamma = 5;               // Γ = P = 5 (paper)
    config.max_refinement_depth = 1;
    config.split_dims = acasxu::split_dimensions();
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
  [[nodiscard]] static acasxu::ScenarioConfig scenario_config() {
    return acasxu::ScenarioConfig{};  // partition resolution filled per call
  }

  [[nodiscard]] static std::string num(double value) {
    std::ostringstream oss;
    oss << value;
    return oss.str();
  }
};

}  // namespace

std::unique_ptr<Scenario> make_acasxu_scenario() { return std::make_unique<AcasxuScenario>(); }

}  // namespace nncs::scenario
