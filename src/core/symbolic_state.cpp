#include "core/symbolic_state.hpp"

#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/span.hpp"

namespace nncs {

double distance(const SymbolicState& a, const SymbolicState& b) {
  if (a.command != b.command) {
    throw std::invalid_argument("distance: symbolic states carry different commands");
  }
  return distance(a.abstract, b.abstract);
}

SymbolicState join(const SymbolicState& a, const SymbolicState& b) {
  if (a.command != b.command) {
    throw std::invalid_argument("join: symbolic states carry different commands");
  }
  return SymbolicState{join(a.abstract, b.abstract), a.command};
}

namespace {

constexpr std::size_t kNoNeighbour = std::numeric_limits<std::size_t>::max();

/// A state's nearest later same-command neighbour: the lowest index at the
/// smallest distance. A row at infinite distance is never selected, as the
/// full scan's strict `<` never accepts an infinite distance.
struct Neighbour {
  double distance = std::numeric_limits<double>::infinity();
  std::size_t index = kNoNeighbour;
};

/// Algorithm 2's greedy loop on a set larger than `gamma`. Returns the
/// number of pair distances computed.
///
/// States keep their slots until one compaction at the end; `alive` marks
/// the survivors, so slot order is set order and the (distance, i, j)
/// tie-break of a full pair scan carries over. Each centre is computed once
/// (and again only for a merged state), and each row keeps its nearest
/// neighbour, so a join touches only the rows of its own command.
std::size_t join_closest_pairs(SymbolicSet& set, std::size_t gamma, ResizeStats& stats) {
  const std::size_t n = set.size();
  std::size_t size = n;
  std::size_t evals = 0;
  // Midpoints of state i at centers[offset[i] ..), one slot per state.
  std::vector<std::size_t> offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    offset[i + 1] = offset[i] + set[i].box().dim();
  }
  std::vector<double> centers(offset[n]);
  const auto store_center = [&](std::size_t i) {
    const Box& box = set[i].box();
    for (std::size_t d = 0; d < box.dim(); ++d) {
      centers[offset[i] + d] = box[d].mid();
    }
  };
  const auto center = [&](std::size_t i) {
    return std::span<const double>(centers).subspan(offset[i], offset[i + 1] - offset[i]);
  };
  for (std::size_t i = 0; i < n; ++i) {
    store_center(i);
  }
  std::vector<Neighbour> nearest(n);
  std::vector<char> alive(n, 1);

  const auto dist = [&](std::size_t i, std::size_t j) {
    ++evals;
    return euclidean_distance(center(i), center(j));
  };
  // The full scan's strict `<`: an infinite distance never qualifies, and
  // ties keep the lowest j.
  const auto rescan = [&](std::size_t i) {
    nearest[i] = Neighbour{};
    for (std::size_t j = i + 1; j < n; ++j) {
      if (alive[j] != 0 && set[j].command == set[i].command) {
        const double d = dist(i, j);
        if (d < nearest[i].distance) {
          nearest[i] = Neighbour{d, j};
        }
      }
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    rescan(i);
  }

  while (size > gamma) {
    // The closest pair: the smallest row distance, ties to the lowest row.
    std::size_t a = kNoNeighbour;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (alive[i] != 0 && nearest[i].distance < best) {
        best = nearest[i].distance;
        a = i;
      }
    }
    if (a == kNoNeighbour) {
      // Every remaining pair has distinct commands (Remark 3: the size
      // cannot go below the number of distinct commands present).
      break;
    }
    const std::size_t b = nearest[a].index;
    set[a] = join(set[a], set[b]);
    store_center(a);
    alive[b] = 0;
    --size;
    ++stats.joins;

    // Rows that pointed at a or b are rescanned; every other earlier row
    // of this command only compares its neighbour with the merged state.
    for (std::size_t k = 0; k < n; ++k) {
      if (alive[k] == 0 || set[k].command != set[a].command) {
        continue;
      }
      if (k == a || nearest[k].index == a || nearest[k].index == b) {
        rescan(k);
      } else if (k < a) {
        const double d = dist(k, a);
        if (d < nearest[k].distance || (d == nearest[k].distance && a < nearest[k].index)) {
          nearest[k] = Neighbour{d, a};
        }
      }
    }
  }

  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i] != 0) {
      if (out != i) {
        set[out] = std::move(set[i]);
      }
      ++out;
    }
  }
  set.erase(set.begin() + static_cast<std::ptrdiff_t>(out), set.end());
  return evals;
}

}  // namespace

ResizeStats resize(SymbolicSet& set, std::size_t gamma) {
  ResizeStats stats;
  if (gamma == 0) {
    throw std::invalid_argument("resize: gamma must be >= 1");
  }
  NNCS_SPAN("join.resize");
  const std::size_t distance_evals =
      set.size() > gamma ? join_closest_pairs(set, gamma, stats) : 0;
  NNCS_COUNT("join.joins", stats.joins);
  NNCS_COUNT("join.distance_evals", distance_evals);
  return stats;
}

}  // namespace nncs
