// Tests for symbolic states/sets and the Algorithm 2 resize heuristic
// (Def 9 distance, Def 10 join, Remark 3 command-group floor).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/symbolic_state.hpp"
#include "interval/affine_set.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

SymbolicState state(double lo0, double hi0, double lo1, double hi1, std::size_t cmd) {
  return SymbolicState{Box{Interval{lo0, hi0}, Interval{lo1, hi1}}, cmd};
}

TEST(SymbolicState, DistanceIsBetweenCenters) {
  const auto a = state(0.0, 2.0, 0.0, 2.0, 1);   // center (1,1)
  const auto b = state(3.0, 5.0, 4.0, 6.0, 1);   // center (4,5)
  EXPECT_NEAR(distance(a, b), 5.0, 1e-12);
}

TEST(SymbolicState, DistanceRequiresSameCommand) {
  const auto a = state(0.0, 1.0, 0.0, 1.0, 0);
  const auto b = state(0.0, 1.0, 0.0, 1.0, 1);
  EXPECT_THROW(distance(a, b), std::invalid_argument);
}

TEST(SymbolicState, JoinIsSmallestCoveringState) {
  const auto a = state(0.0, 1.0, 0.0, 1.0, 2);
  const auto b = state(2.0, 3.0, -1.0, 0.5, 2);
  const auto j = join(a, b);
  EXPECT_EQ(j.command, 2u);
  EXPECT_TRUE(j.box().contains(a.box()));
  EXPECT_TRUE(j.box().contains(b.box()));
  EXPECT_EQ(j.box()[0].lo(), 0.0);
  EXPECT_EQ(j.box()[0].hi(), 3.0);
  EXPECT_EQ(j.box()[1].lo(), -1.0);
}

TEST(SymbolicState, JoinRequiresSameCommand) {
  EXPECT_THROW(join(state(0, 1, 0, 1, 0), state(0, 1, 0, 1, 1)), std::invalid_argument);
}

TEST(SymbolicState, JoinDemotesRelationalPartAndCountsTheDrop) {
  // A join can only produce the hull box — reusing either input's affine set
  // for the union would be unsound. The demotion is observable via the
  // core.join_relational_drops counter.
  SymbolicState a = state(0.0, 1.0, 0.0, 1.0, 2);
  const SymbolicState b = state(2.0, 3.0, -1.0, 0.5, 2);
  a.abstract = AbstractState{a.box(), std::make_shared<const AffineSet>(AffineSet::from_box(a.box()))};
  ASSERT_TRUE(a.abstract.has_relational());

  obs::set_enabled(true);
  const auto drops_before =
      obs::Registry::instance().snapshot().counter("core.join_relational_drops");
  const SymbolicState joined = join(a, b);
  const auto drops_after =
      obs::Registry::instance().snapshot().counter("core.join_relational_drops");

  EXPECT_FALSE(joined.abstract.has_relational());
  EXPECT_TRUE(joined.box().contains(a.box()));
  EXPECT_TRUE(joined.box().contains(b.box()));
  EXPECT_EQ(drops_after, drops_before + 1);

  // A box-only join must not touch the counter.
  const SymbolicState joined_boxes = join(b, state(4.0, 5.0, 0.0, 1.0, 2));
  obs::set_enabled(false);
  EXPECT_FALSE(joined_boxes.abstract.has_relational());
  EXPECT_EQ(obs::Registry::instance().snapshot().counter("core.join_relational_drops"),
            drops_after);
}

TEST(Resize, NoOpWhenUnderThreshold) {
  SymbolicSet set{state(0, 1, 0, 1, 0), state(5, 6, 5, 6, 1)};
  const auto stats = resize(set, 5);
  EXPECT_EQ(stats.joins, 0u);
  EXPECT_EQ(set.size(), 2u);
}

TEST(Resize, JoinsClosestPairFirst) {
  // Three states with command 0: two near each other, one far away.
  SymbolicSet set{state(0.0, 1.0, 0.0, 1.0, 0), state(1.0, 2.0, 1.0, 2.0, 0),
                  state(100.0, 101.0, 100.0, 101.0, 0)};
  const auto stats = resize(set, 2);
  EXPECT_EQ(stats.joins, 1u);
  ASSERT_EQ(set.size(), 2u);
  // The far state must be untouched.
  bool far_untouched = false;
  for (const auto& s : set) {
    if (s.box()[0].lo() == 100.0 && s.box()[0].hi() == 101.0) {
      far_untouched = true;
    }
  }
  EXPECT_TRUE(far_untouched);
}

TEST(Resize, NeverJoinsAcrossCommands) {
  SymbolicSet set{state(0, 1, 0, 1, 0), state(0, 1, 0, 1, 1), state(0, 1, 0, 1, 2)};
  const auto stats = resize(set, 1);  // impossible: 3 distinct commands
  EXPECT_EQ(stats.joins, 0u);
  EXPECT_EQ(set.size(), 3u);  // Remark 3: floor is the distinct-command count
}

TEST(Resize, ReachesExactThreshold) {
  SymbolicSet set;
  for (int i = 0; i < 10; ++i) {
    set.push_back(state(i, i + 0.5, 0.0, 1.0, 0));
  }
  const auto stats = resize(set, 4);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_EQ(stats.joins, 6u);
}

TEST(Resize, RejectsZeroGamma) {
  SymbolicSet set{state(0, 1, 0, 1, 0)};
  EXPECT_THROW(resize(set, 0), std::invalid_argument);
}

// The greedy scan `resize` replaced, kept as the bit-identity reference:
// after every join it rescans every same-command pair of the shrunken set,
// O(n³) per call.
std::size_t greedy_scan_resize(SymbolicSet& set, std::size_t gamma) {
  std::size_t joins = 0;
  while (set.size() > gamma) {
    std::size_t best_i = set.size();
    std::size_t best_j = set.size();
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        if (set[i].command != set[j].command) {
          continue;
        }
        const double d = distance(set[i], set[j]);
        if (d < best_d) {
          best_d = d;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_i == set.size()) {
      break;
    }
    set[best_i] = join(set[best_i], set[best_j]);
    set.erase(set.begin() + static_cast<std::ptrdiff_t>(best_j));
    ++joins;
  }
  return joins;
}

// A seeded symbolic set that exercises every tie and special case of the
// greedy choice: centres on a small integer lattice (equal distances) with
// duplicate boxes, pairs whose squared distances differ by an ulp but round
// to the same sqrt (2 + 2^-51 against a lattice diagonal's 2), point boxes,
// random real boxes, half-infinite, entire and overflowing intervals
// (`Interval::mid`'s ±max, 0 and halved-sum branches), and relational parts.
SymbolicSet tie_heavy_set(Rng& rng, std::size_t n, std::size_t dims, std::size_t commands) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto lattice = [&](double max_half_width) {
    std::vector<Interval> box(dims);
    for (auto& iv : box) {
      const auto c = static_cast<double>(rng.uniform_int(0, 3));
      const double r = max_half_width * static_cast<double>(rng.uniform_int(0, 2)) / 2.0;
      iv = Interval{c - r, c + r};
    }
    return box;
  };
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  SymbolicSet set;
  while (set.size() < n) {
    const std::size_t command = pick(commands);
    std::vector<Interval> box;
    bool bounded = true;
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:
        box = lattice(1.0);
        break;
      case 3:  // a duplicate of an earlier state, relational part included
        if (!set.empty()) {
          set.push_back(set[pick(set.size())]);
          continue;
        }
        box = lattice(1.0);
        break;
      case 4:
      case 5:
        box.resize(dims);
        for (auto& iv : box) {
          const double lo = rng.uniform(-1.0, 4.0);
          iv = Interval{lo, lo + rng.uniform(0.0, 2.0)};
        }
        break;
      case 6:  // point box on or off the lattice
        box.resize(dims);
        for (auto& iv : box) {
          iv = Interval{rng.chance(0.5) ? static_cast<double>(rng.uniform_int(0, 3))
                                        : rng.uniform(-1.0, 4.0)};
        }
        break;
      case 7: {  // one unbounded or overflowing dimension
        box = lattice(1.0);
        bounded = false;
        Interval& iv = box[pick(dims)];
        switch (rng.uniform_int(0, 3)) {
          case 0:
            iv = Interval{-kInf, iv.hi()};
            break;
          case 1:
            iv = Interval{iv.lo(), kInf};
            break;
          case 2:
            iv = Interval::entire();
            break;
          default:
            iv = Interval{1e308, 1.5e308};
            break;
        }
        break;
      }
      default: {  // a rounded tie: |(1, 1 + 2^-52)|² = 2 + 2^-51, sqrt equal to sqrt(2)
        box = lattice(0.5);
        box[1] = Interval{0.0};
        std::vector<Interval> partner = box;
        partner[0] = Interval{box[0].mid() + 1.0};
        partner[1] = Interval{1.0 + 0x1p-52};
        if (set.size() + 1 < n) {
          set.push_back(SymbolicState{Box{std::move(partner)}, command});
        }
        break;
      }
    }
    Box b{std::move(box)};
    SymbolicState s{b, command};
    if (bounded && rng.chance(0.25)) {
      s.abstract = AbstractState{b, std::make_shared<const AffineSet>(AffineSet::from_box(b))};
    }
    set.push_back(std::move(s));
  }
  return set;
}

// First difference between two symbolic sets: order, commands, relational
// flags and the bits of every bound.
::testing::AssertionResult same_bits(const SymbolicSet& got, const SymbolicSet& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const SymbolicState& g = got[i];
    const SymbolicState& w = want[i];
    if (g.command != w.command || g.abstract.has_relational() != w.abstract.has_relational() ||
        g.box().dim() != w.box().dim()) {
      return ::testing::AssertionFailure() << "state " << i << " differs in command, "
                                           << "relational part or dimension";
    }
    for (std::size_t d = 0; d < g.box().dim(); ++d) {
      if (std::bit_cast<std::uint64_t>(g.box()[d].lo()) !=
              std::bit_cast<std::uint64_t>(w.box()[d].lo()) ||
          std::bit_cast<std::uint64_t>(g.box()[d].hi()) !=
              std::bit_cast<std::uint64_t>(w.box()[d].hi())) {
        return ::testing::AssertionFailure() << "state " << i << " dim " << d << ": "
                                             << g.box()[d] << " != " << w.box()[d];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Resize, MatchesGreedyScanBitForBit) {
  // The construction behind the rounded ties: distinct squared sums, one sqrt.
  ASSERT_LT(2.0, 1.0 + (1.0 + 0x1p-52) * (1.0 + 0x1p-52));
  ASSERT_EQ(std::sqrt(2.0), std::sqrt(1.0 + (1.0 + 0x1p-52) * (1.0 + 0x1p-52)));

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto drops = [] {
    return obs::Registry::instance().snapshot().counter("core.join_relational_drops");
  };
  Rng rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 120));
    const auto gamma =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(n) + 1));
    const auto commands = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto dims = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const SymbolicSet input = tie_heavy_set(rng, n, dims, commands);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" + std::to_string(n) +
                 " gamma=" + std::to_string(gamma) + " commands=" + std::to_string(commands) +
                 " dims=" + std::to_string(dims));

    SymbolicSet want = input;
    const auto want_drops_before = drops();
    const std::size_t want_joins = greedy_scan_resize(want, gamma);
    const auto want_drops = drops() - want_drops_before;

    SymbolicSet got = input;
    const auto got_drops_before = drops();
    const ResizeStats stats = resize(got, gamma);
    const auto got_drops = drops() - got_drops_before;

    EXPECT_EQ(stats.joins, want_joins);
    EXPECT_EQ(got_drops, want_drops);
    EXPECT_TRUE(same_bits(got, want));
  }
  obs::set_enabled(was_enabled);
}

// Soundness property: the union of boxes after resize covers the union
// before (Ensure clause of Algorithm 2: R̃_j ⊃ old(R̃_j)).
TEST(ResizeProperty, UnionCoverageIsPreserved) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    SymbolicSet set;
    const int n = static_cast<int>(rng.uniform_int(5, 25));
    for (int i = 0; i < n; ++i) {
      const double lo0 = rng.uniform(-10.0, 10.0);
      const double lo1 = rng.uniform(-10.0, 10.0);
      set.push_back(state(lo0, lo0 + rng.uniform(0.1, 2.0), lo1,
                          lo1 + rng.uniform(0.1, 2.0),
                          static_cast<std::size_t>(rng.uniform_int(0, 2))));
    }
    const SymbolicSet before = set;
    resize(set, static_cast<std::size_t>(rng.uniform_int(3, 8)));
    // Sample points from the original states; each must be covered by some
    // state with the same command in the resized set.
    for (const auto& old_state : before) {
      for (int s = 0; s < 10; ++s) {
        const Vec p{rng.uniform(old_state.box()[0].lo(), old_state.box()[0].hi()),
                    rng.uniform(old_state.box()[1].lo(), old_state.box()[1].hi())};
        bool covered = false;
        for (const auto& new_state : set) {
          if (new_state.command == old_state.command && new_state.box().contains(p)) {
            covered = true;
            break;
          }
        }
        ASSERT_TRUE(covered);
      }
    }
  }
}

// Property: resize is idempotent at the reached size.
TEST(ResizeProperty, IdempotentAtFixpoint) {
  Rng rng(43);
  for (int trial = 0; trial < 30; ++trial) {
    SymbolicSet set;
    for (int i = 0; i < 12; ++i) {
      const double lo = rng.uniform(-5.0, 5.0);
      set.push_back(state(lo, lo + 1.0, 0.0, 1.0,
                          static_cast<std::size_t>(rng.uniform_int(0, 1))));
    }
    resize(set, 5);
    const SymbolicSet once = set;
    const auto again = resize(set, 5);
    EXPECT_EQ(again.joins, 0u);
    EXPECT_EQ(set.size(), once.size());
  }
}

}  // namespace
}  // namespace nncs
