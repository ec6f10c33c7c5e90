#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "core/reachability.hpp"
#include "core/specs.hpp"
#include "core/symbolic_state.hpp"
#include "core/verifier.hpp"
#include "nn/query_cache.hpp"
#include "ode/dynamics.hpp"

namespace nncs::scenario {

/// One cell of a scenario's initial partition. Besides the symbolic state
/// fed to the verifier, every cell carries the interval of the scenario's
/// *bin axis* — the one generating parameter figure benches and the CLI
/// per-bin summary group results by (ACAS Xu: intruder bearing; cruise
/// control: initial gap; unicycle: initial cross-track offset).
struct Cell {
  SymbolicState state;
  double bin_lo = 0.0;
  double bin_hi = 0.0;
};

/// Partition resolution along the scenario's two partition axes (ACAS Xu:
/// bearing arcs x headings; grid scenarios: axis-0 cells x axis-1 cells).
/// 0 on either axis means "use the scenario default".
struct Partition {
  std::size_t axis0 = 0;
  std::size_t axis1 = 0;
};

/// Knobs for assembling a scenario's closed loop.
struct SystemConfig {
  /// Abstract domain of the network transformer F#.
  NnDomain domain = NnDomain::kSymbolic;
  /// NN query cache policy, applied to the controller before analysis.
  NnCacheConfig nn_cache;
  /// On-disk cache directory for the trained controller networks; empty
  /// selects the scenario's default (relative to the working directory).
  std::filesystem::path nets_dir;
};

/// The assembled closed loop of one scenario (owning all parts; `loop`
/// holds non-owning views into `plant` / `controller`).
struct System {
  std::unique_ptr<Dynamics> plant;
  std::unique_ptr<NeuralController> controller;
  ClosedLoop loop;
};

/// What the per-scenario end-to-end smoke test asserts about the leaves of
/// a (cheap) verification run.
enum class SmokeExpectation {
  /// Every terminal leaf is kProvedSafe (termination established).
  kAllProved,
  /// No leaf is kErrorReachable or kEnclosureFailure; bounded-horizon
  /// scenarios prove safety as kHorizonExhausted leaves with no error.
  kAllSafe,
  /// At least one leaf is kProvedSafe and none is kEnclosureFailure —
  /// for scenarios (ACAS Xu) whose coarse smoke partitions legitimately
  /// over-approximate into the error set.
  kSomeProved,
};

/// A cheap end-to-end verification the scenario is expected to pass —
/// `tests/test_scenario.cpp` runs one per registered scenario, and adding a
/// scenario means declaring what "working" looks like at smoke scale.
struct SmokeSpec {
  Partition partition;
  /// Overrides of the scenario defaults; <= 0 / < 0 keep the default.
  int control_steps = 0;
  int max_refinement_depth = -1;
  SmokeExpectation expected = SmokeExpectation::kAllSafe;
};

/// A verification workload: everything `reach_analyze`/`VerificationEngine`
/// need to run it — plant dynamics, trained (or cached) controller,
/// error/target regions, deterministic initial partition with binning
/// metadata, default analysis knobs, and report metadata. Implementations
/// must be stateless: every accessor may be called repeatedly and
/// `make_cells` must be deterministic (equal partitions give equal cells).
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Registry key, e.g. "acasxu". Lowercase, no commas or whitespace.
  [[nodiscard]] virtual std::string name() const = 0;
  /// One-line human description for --list-scenarios.
  [[nodiscard]] virtual std::string description() const = 0;
  /// Bumped whenever dynamics, specs, training or partition layout change
  /// in a way that invalidates old checkpoints/reports.
  [[nodiscard]] virtual std::string version() const = 0;
  /// Ordered parameter map folded into the fingerprint (checkpoints and
  /// artifact provenance). Values must not contain commas or newlines.
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::string>> parameters() const = 0;

  /// Names of the two partition axes, e.g. {"arcs", "headings"}.
  [[nodiscard]] virtual std::pair<std::string, std::string> axis_names() const = 0;
  [[nodiscard]] virtual Partition default_partition() const = 0;
  /// Bin-axis name and value-column label for the per-bin summary, e.g.
  /// {"bearing", "bearing_mid_rad"}.
  [[nodiscard]] virtual std::pair<std::string, std::string> bin_axis() const = 0;

  /// The plant dynamics alone, as `make_system` installs them; loads no
  /// networks.
  [[nodiscard]] virtual std::unique_ptr<Dynamics> make_plant() const = 0;
  /// Assemble the closed loop (training or loading cached networks).
  [[nodiscard]] virtual System make_system(const SystemConfig& config) const = 0;
  /// The erroneous set E.
  [[nodiscard]] virtual std::unique_ptr<StateRegion> make_error_region() const = 0;
  /// The target (termination) set T; EmptyRegion for bounded-horizon
  /// properties.
  [[nodiscard]] virtual std::unique_ptr<StateRegion> make_target_region() const = 0;
  /// Deterministic initial partition (0 axis values = default resolution).
  [[nodiscard]] virtual std::vector<Cell> make_cells(const Partition& partition) const = 0;

  /// Default analysis knobs (horizon, M, gamma, depth, split dims). The
  /// integrator pointer is left null — drivers own the integrator and
  /// construct it with `default_taylor_order()`.
  [[nodiscard]] virtual VerifyConfig default_config() const = 0;
  [[nodiscard]] virtual int default_taylor_order() const { return 4; }

  [[nodiscard]] virtual SmokeSpec smoke() const = 0;
};

/// `partition` with zero axes replaced by the scenario defaults.
[[nodiscard]] Partition resolve(const Scenario& scenario, Partition partition);

/// Strip the bin metadata (for feeding the engine).
[[nodiscard]] SymbolicSet to_symbolic_set(const std::vector<Cell>& cells);

/// Deterministic identity stamp of (scenario, partition): name, version,
/// resolved axis sizes and the parameter map, joined with ';' and free of
/// commas/newlines so it embeds in CSV headers. Recorded in checkpoints and
/// artifact provenance; a resume under a different fingerprint is refused.
[[nodiscard]] std::string fingerprint(const Scenario& scenario, Partition partition);

/// One tiled dimension of a grid partition: state dimension `dim` over
/// [lo, hi].
struct GridAxis {
  std::size_t dim;
  double lo;
  double hi;
};

/// A grid partition: `axis0` and `axis1` tiled into `partition.axis0` x
/// `partition.axis1` equal cells (axis 0 varies slowest and is the bin
/// axis), every other dimension held at its value in `fixed`, which also
/// sets the state dimension. Every cell carries `command`. `partition` must
/// already be resolved.
[[nodiscard]] std::vector<Cell> grid_cells(const Partition& partition, GridAxis axis0,
                                           GridAxis axis1, const Vec& fixed,
                                           std::size_t command);

/// A closed loop whose controller runs one network for every command:
/// `commands` holds the scalar command values, the network comes from the
/// on-disk cache `config.nets_dir` (default `./<name>_nets_cache`), trained
/// by `train` when the cache is missing or its stamp differs from
/// `training_stamp`.
[[nodiscard]] System make_single_network_system(const SystemConfig& config,
                                                const std::string& name,
                                                const std::string& training_stamp,
                                                Network (*train)(), const Vec& commands,
                                                std::unique_ptr<Preprocessor> pre,
                                                std::unique_ptr<Dynamics> plant, double period);

/// Name-keyed scenario registry. `global()` is the process-wide instance,
/// pre-populated with the built-in scenarios; tests may build their own.
class Registry {
 public:
  /// Takes ownership; throws std::invalid_argument on a duplicate or empty
  /// name.
  void add(std::unique_ptr<Scenario> scenario);

  /// nullptr when unknown.
  [[nodiscard]] const Scenario* find(std::string_view name) const;
  /// Throws std::out_of_range listing the registered names when unknown.
  [[nodiscard]] const Scenario& at(std::string_view name) const;

  /// All scenarios, sorted by name.
  [[nodiscard]] std::vector<const Scenario*> all() const;
  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }
  /// Comma-separated sorted names (for error messages and --list help).
  [[nodiscard]] std::string names() const;

  static Registry& global();

 private:
  std::map<std::string, std::unique_ptr<Scenario>, std::less<>> scenarios_;
};

/// Register the built-in scenarios (acasxu, cruise_control, pendulum,
/// unicycle) into
/// `registry`. `Registry::global()` calls this once on first use.
void register_builtins(Registry& registry);

}  // namespace nncs::scenario
