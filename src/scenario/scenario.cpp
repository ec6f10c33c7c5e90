#include "scenario/scenario.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "nn/net_cache.hpp"

namespace nncs::scenario {

namespace {

/// Commas would split the checkpoint CSV header; newlines would truncate
/// it. Scenario names/values should never contain them, but the
/// fingerprint is a durable on-disk identity, so sanitize defensively.
std::string sanitized(std::string text) {
  for (char& c : text) {
    if (c == ',' || c == '\n' || c == '\r') {
      c = '|';
    }
  }
  return text;
}

}  // namespace

Partition resolve(const Scenario& scenario, Partition partition) {
  const Partition defaults = scenario.default_partition();
  if (partition.axis0 == 0) {
    partition.axis0 = defaults.axis0;
  }
  if (partition.axis1 == 0) {
    partition.axis1 = defaults.axis1;
  }
  return partition;
}

SymbolicSet to_symbolic_set(const std::vector<Cell>& cells) {
  SymbolicSet set;
  set.reserve(cells.size());
  for (const auto& cell : cells) {
    set.push_back(cell.state);
  }
  return set;
}

std::string fingerprint(const Scenario& scenario, Partition partition) {
  partition = resolve(scenario, partition);
  const auto [axis0, axis1] = scenario.axis_names();
  std::ostringstream oss;
  oss << scenario.name() << ';' << scenario.version() << ';' << axis0 << '=' << partition.axis0
      << ';' << axis1 << '=' << partition.axis1;
  for (const auto& [key, value] : scenario.parameters()) {
    oss << ';' << key << '=' << value;
  }
  return sanitized(oss.str());
}

std::vector<Cell> grid_cells(const Partition& partition, GridAxis axis0, GridAxis axis1,
                             const Vec& fixed, std::size_t command) {
  const double width0 = (axis0.hi - axis0.lo) / static_cast<double>(partition.axis0);
  const double width1 = (axis1.hi - axis1.lo) / static_cast<double>(partition.axis1);
  std::vector<Interval> dims(fixed.begin(), fixed.end());
  std::vector<Cell> cells;
  cells.reserve(partition.axis0 * partition.axis1);
  for (std::size_t i = 0; i < partition.axis0; ++i) {
    const double lo0 = axis0.lo + static_cast<double>(i) * width0;
    dims[axis0.dim] = Interval{lo0, lo0 + width0};
    for (std::size_t j = 0; j < partition.axis1; ++j) {
      const double lo1 = axis1.lo + static_cast<double>(j) * width1;
      dims[axis1.dim] = Interval{lo1, lo1 + width1};
      Cell cell;
      cell.state.abstract = Box(dims);
      cell.state.command = command;
      cell.bin_lo = lo0;
      cell.bin_hi = lo0 + width0;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

System make_single_network_system(const SystemConfig& config, const std::string& name,
                                  const std::string& training_stamp, Network (*train)(),
                                  const Vec& commands, std::unique_ptr<Preprocessor> pre,
                                  std::unique_ptr<Dynamics> plant, double period) {
  const auto nets_dir =
      config.nets_dir.empty() ? std::filesystem::path{name + "_nets_cache"} : config.nets_dir;
  auto networks = ensure_networks(nets_dir, "net_", training_stamp, 1, [train] {
    std::vector<Network> nets;
    nets.push_back(train());
    return nets;
  });
  std::vector<Vec> command_set;
  for (const double value : commands) {
    command_set.push_back(Vec{value});
  }
  std::vector<std::size_t> selector(command_set.size(), 0);
  System system;
  system.plant = std::move(plant);
  system.controller = std::make_unique<NeuralController>(
      CommandSet{std::move(command_set)}, std::move(networks), std::move(selector),
      std::move(pre), config.domain);
  system.controller->configure_cache(config.nn_cache);
  system.loop = ClosedLoop{system.plant.get(), system.controller.get(), period};
  return system;
}

void Registry::add(std::unique_ptr<Scenario> scenario) {
  if (!scenario) {
    throw std::invalid_argument("scenario registry: cannot register null scenario");
  }
  const std::string name = scenario->name();
  if (name.empty()) {
    throw std::invalid_argument("scenario registry: scenario name must be non-empty");
  }
  if (name.find(',') != std::string::npos || name.find(' ') != std::string::npos) {
    throw std::invalid_argument("scenario registry: invalid name '" + name + "'");
  }
  const auto [it, inserted] = scenarios_.emplace(name, std::move(scenario));
  if (!inserted) {
    throw std::invalid_argument("scenario registry: duplicate scenario '" + name + "'");
  }
}

const Scenario* Registry::find(std::string_view name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : it->second.get();
}

const Scenario& Registry::at(std::string_view name) const {
  const Scenario* scenario = find(name);
  if (!scenario) {
    throw std::out_of_range("unknown scenario '" + std::string(name) + "' (registered: " +
                            names() + ")");
  }
  return *scenario;
}

std::vector<const Scenario*> Registry::all() const {
  std::vector<const Scenario*> result;
  result.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) {
    result.push_back(scenario.get());
  }
  return result;  // std::map iterates name-sorted
}

std::string Registry::names() const {
  std::string result;
  for (const auto& [name, scenario] : scenarios_) {
    if (!result.empty()) {
      result += ", ";
    }
    result += name;
  }
  return result;
}

Registry& Registry::global() {
  static Registry* instance = [] {
    auto* registry = new Registry;
    register_builtins(*registry);
    return registry;
  }();
  return *instance;
}

}  // namespace nncs::scenario
