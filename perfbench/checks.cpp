#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "core/simulate.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((value >> (8 * byte)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Corners over the first 4 non-degenerate dimensions (the rest at their
/// lower bound — no built-in scenario has more), then interior samples.
std::vector<nncs::Vec> sample_points(const nncs::Box& box, std::size_t interior,
                                     nncs::Rng& rng) {
  std::vector<std::size_t> free_dims;
  for (std::size_t d = 0; d < box.dim() && free_dims.size() < 4; ++d) {
    if (box[d].width() > 0.0) {
      free_dims.push_back(d);
    }
  }
  std::vector<nncs::Vec> points;
  for (std::size_t mask = 0; mask < (std::size_t{1} << free_dims.size()); ++mask) {
    nncs::Vec p(box.dim());
    for (std::size_t d = 0; d < box.dim(); ++d) {
      p[d] = box[d].lo();
    }
    for (std::size_t k = 0; k < free_dims.size(); ++k) {
      if ((mask >> k) & 1U) {
        p[free_dims[k]] = box[free_dims[k]].hi();
      }
    }
    points.push_back(std::move(p));
  }
  for (std::size_t k = 0; k < interior; ++k) {
    nncs::Vec p(box.dim());
    for (std::size_t d = 0; d < box.dim(); ++d) {
      p[d] = box[d].width() > 0.0 ? rng.uniform(box[d].lo(), box[d].hi()) : box[d].lo();
    }
    points.push_back(std::move(p));
  }
  return points;
}

}  // namespace

std::string verdict_digest(const nncs::VerifyReport& report) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(report.root_cells));
  for (const nncs::CellOutcome& leaf : report.leaves) {
    h.add(static_cast<std::uint64_t>(leaf.root_index));
    h.add(static_cast<std::uint64_t>(leaf.depth));
    h.add(static_cast<std::uint64_t>(leaf.outcome));
    h.add(static_cast<std::uint64_t>(leaf.initial.command));
    for (const nncs::Interval& iv : leaf.initial.box().intervals()) {
      h.add(iv.lo());
      h.add(iv.hi());
    }
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(h.value()));
  return text;
}

bool leaf_is_safe(const nncs::CellOutcome& leaf) {
  return leaf.outcome == nncs::ReachOutcome::kProvedSafe ||
         leaf.outcome == nncs::ReachOutcome::kHorizonExhausted;
}

SoundnessResult check_soundness(const Setup& setup, const nncs::VerifyReport& report,
                                std::uint64_t seed) {
  constexpr std::size_t kInteriorPoints = 2;
  const nncs::ReachConfig& reach = setup.engine.verify.reach;
  const int substeps = std::max(10, 2 * reach.integration_steps);
  nncs::Rng rng(seed);
  SoundnessResult result;
  for (const nncs::CellOutcome& leaf : report.leaves) {
    if (!leaf_is_safe(leaf)) {
      continue;
    }
    ++result.leaves;
    for (const nncs::Vec& point : sample_points(leaf.initial.box(), kInteriorPoints, rng)) {
      ++result.trajectories;
      const nncs::SimOutcome sim = nncs::simulate_closed_loop(
          setup.system.loop, point, leaf.initial.command, *setup.error, *setup.target,
          reach.control_steps, substeps);
      if (sim.reached_error) {
        result.violating_roots.push_back(leaf.root_index);
        break;
      }
    }
  }
  std::sort(result.violating_roots.begin(), result.violating_roots.end());
  result.violating_roots.erase(
      std::unique(result.violating_roots.begin(), result.violating_roots.end()),
      result.violating_roots.end());
  return result;
}

}  // namespace perfbench
