// Tests for the utility substrate: deterministic RNG, tables, stopwatch,
// env knobs, atomic file writes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace nncs {
namespace {

TEST(Rng, DeterministicStreams) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LE(v, 3.0);
    const auto n = rng.uniform_int(-5, 5);
    EXPECT_GE(n, -5);
    EXPECT_LE(n, 5);
  }
}

TEST(Rng, ForkGivesIndependentStream) {
  Rng parent(9);
  Rng child = parent.fork();
  // Streams differ (overwhelmingly likely) but are each deterministic.
  Rng parent2(9);
  Rng child2 = parent2.fork();
  EXPECT_EQ(child.uniform(0.0, 1.0), child2.uniform(0.0, 1.0));
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
  watch.reset();
  EXPECT_LT(watch.seconds(), 1.0);
  EXPECT_NEAR(watch.millis(), watch.seconds() * 1e3, 1e3);
}

TEST(Stopwatch, LapReturnsElapsedAndRestarts) {
  Stopwatch watch;
  const double lap1 = watch.lap();
  EXPECT_GE(lap1, 0.0);
  // lap() restarts the watch, so the reading right after is near zero.
  EXPECT_LT(watch.seconds(), lap1 + 0.5);
  const double lap2 = watch.lap();
  EXPECT_GE(lap2, 0.0);
  EXPECT_LT(lap2, 1.0);
}

TEST(Stopwatch, LapsTileTotalElapsedTime) {
  Stopwatch total;
  Stopwatch watch;
  double sum = 0.0;
  for (int i = 0; i < 5; ++i) {
    volatile double sink = 0.0;
    for (int k = 0; k < 10000; ++k) {
      sink = sink + static_cast<double>(k);
    }
    sum += watch.lap();
  }
  // Consecutive laps tile wall time with no gap: their sum matches a
  // parallel watch over the whole run (loose bound, CI machines jitter).
  EXPECT_LE(sum, total.seconds() + 1e-6);
  EXPECT_GE(sum, 0.0);
}

TEST(Table, RendersAlignedAndCsv) {
  Table table("demo", {"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "2.5"});
  EXPECT_EQ(table.rows(), 2u);

  std::ostringstream human;
  table.print(human);
  EXPECT_NE(human.str().find("== demo =="), std::string::npos);
  EXPECT_NE(human.str().find("alpha"), std::string::npos);

  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_NE(csv.str().find("# CSV demo"), std::string::npos);
  EXPECT_NE(csv.str().find("alpha,1"), std::string::npos);

  std::ostringstream both;
  table.print_all(both);
  EXPECT_NE(both.str().find("# CSV demo"), std::string::npos);
}

TEST(Table, ValidatesShape) {
  EXPECT_THROW(Table("x", {}), std::invalid_argument);
  Table table("x", {"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsDoubles) {
  EXPECT_EQ(Table::num(1.5), "1.5");
  EXPECT_EQ(Table::num(0.123456789, 3), "0.123");
}

TEST(Env, ScaleDefaultsAndParsing) {
  unsetenv("NNCS_SCALE");
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  setenv("NNCS_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 2.5);
  setenv("NNCS_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  setenv("NNCS_SCALE", "-1", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  unsetenv("NNCS_SCALE");
}

TEST(Env, FlagParsesCommonSpellings) {
  unsetenv("NNCS_TRACE");
  EXPECT_FALSE(env_flag("NNCS_TRACE"));
  EXPECT_TRUE(env_flag("NNCS_TRACE", true));
  for (const char* truthy : {"1", "true", "TRUE", "yes", "on", "On"}) {
    setenv("NNCS_TRACE", truthy, 1);
    EXPECT_TRUE(env_flag("NNCS_TRACE")) << truthy;
  }
  for (const char* falsy : {"0", "false", "no", "off", "OFF"}) {
    setenv("NNCS_TRACE", falsy, 1);
    EXPECT_FALSE(env_flag("NNCS_TRACE", true)) << falsy;
  }
  setenv("NNCS_TRACE", "garbage", 1);
  EXPECT_FALSE(env_flag("NNCS_TRACE"));
  EXPECT_TRUE(env_flag("NNCS_TRACE", true));
  unsetenv("NNCS_TRACE");
}

TEST(Env, ThreadsDefaultsAndParsing) {
  unsetenv("NNCS_THREADS");
  EXPECT_GE(env_threads(), 1u);
  setenv("NNCS_THREADS", "3", 1);
  EXPECT_EQ(env_threads(), 3u);
  setenv("NNCS_THREADS", "0", 1);
  EXPECT_GE(env_threads(), 1u);
  unsetenv("NNCS_THREADS");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(AtomicFile, FailedWriteLeavesTheOldFile) {
  const auto dir = std::filesystem::temp_directory_path() / "nncs_atomic_file_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = dir / "out.txt";
  write_file_atomically(path, "test", [](std::ostream& os) { os << "old"; });
  EXPECT_EQ(read_file(path), "old");
  // A writer that throws, and one that leaves the stream bad.
  EXPECT_THROW(write_file_atomically(path, "test",
                                     [](std::ostream& os) {
                                       os << "partial";
                                       throw std::invalid_argument("writer gave up");
                                     }),
               std::invalid_argument);
  EXPECT_THROW(write_file_atomically(path, "test",
                                     [](std::ostream& os) {
                                       os << "partial";
                                       os.setstate(std::ios::badbit);
                                     }),
               std::runtime_error);
  EXPECT_EQ(read_file(path), "old");
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator{}),
            1);  // no temporary left behind
  write_file_atomically(path, "test", [](std::ostream& os) { os << "new"; });
  EXPECT_EQ(read_file(path), "new");
  std::filesystem::remove_all(dir);
}

TEST(AtomicFile, WritesThroughASymlink) {
  const auto dir = std::filesystem::temp_directory_path() / "nncs_atomic_link_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink(dir / "real.txt", dir / "link.txt");
  // Dangling: the file the link names does not exist yet.
  EXPECT_THROW(
      write_file_atomically(dir / "link.txt", "test", [](std::ostream& os) { os << "new"; }),
      std::runtime_error);
  write_file_atomically(dir / "real.txt", "test", [](std::ostream& os) { os << "old"; });
  write_file_atomically(dir / "link.txt", "test", [](std::ostream& os) { os << "new"; });
  EXPECT_TRUE(std::filesystem::is_symlink(dir / "link.txt"));
  EXPECT_EQ(read_file(dir / "real.txt"), "new");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nncs
