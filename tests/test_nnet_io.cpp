// Round-trip and error-handling tests for the network text serialization,
// and the on-disk network cache built on it.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "nn/net_cache.hpp"
#include "nn/nnet_io.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

Network random_network(std::uint64_t seed) {
  Rng rng(seed);
  Network net = make_zero_network({3, 7, 5, 2});
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    for (double& w : net.layer(li).weights.data()) {
      w = rng.uniform(-2.0, 2.0);
    }
    for (double& b : net.layer(li).biases) {
      b = rng.uniform(-1.0, 1.0);
    }
  }
  return net;
}

TEST(NnetIo, RoundTripIsBitExact) {
  const Network original = random_network(5);
  std::stringstream buffer;
  save_network(original, buffer);
  const Network loaded = load_network(buffer);
  ASSERT_EQ(loaded.num_layers(), original.num_layers());
  for (std::size_t li = 0; li < original.num_layers(); ++li) {
    EXPECT_EQ(loaded.layers()[li].weights, original.layers()[li].weights);
    EXPECT_EQ(loaded.layers()[li].biases, original.layers()[li].biases);
  }
}

TEST(NnetIo, RoundTripPreservesEvaluation) {
  const Network original = random_network(6);
  std::stringstream buffer;
  save_network(original, buffer);
  const Network loaded = load_network(buffer);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Vec x{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    EXPECT_EQ(original.eval(x), loaded.eval(x));
  }
}

TEST(NnetIo, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "nncs_test_net.nnet";
  const Network original = random_network(8);
  save_network(original, path);
  const Network loaded = load_network(path);
  EXPECT_EQ(loaded.layer_sizes(), original.layer_sizes());
  std::filesystem::remove(path);
}

TEST(NnetIo, MissingFileThrows) {
  EXPECT_THROW(load_network(std::filesystem::path{"/nonexistent/net.nnet"}), std::runtime_error);
}

TEST(NnetIo, BadMagicThrows) {
  std::stringstream buffer("WRONG 1\nlayers 2\n");
  EXPECT_THROW(load_network(buffer), NnetFormatError);
}

TEST(NnetIo, BadVersionThrows) {
  std::stringstream buffer("NNCS-NET 99\n");
  EXPECT_THROW(load_network(buffer), NnetFormatError);
}

TEST(NnetIo, TruncatedInputThrows) {
  const Network original = random_network(9);
  std::stringstream buffer;
  save_network(original, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_network(truncated), NnetFormatError);
}

TEST(NnetIo, GarbageWhereNumberExpectedThrows) {
  std::stringstream buffer("NNCS-NET 1\nlayers 2\nsizes 1 1\nbias xyz\n");
  EXPECT_THROW(load_network(buffer), NnetFormatError);
}

TEST(NnetIo, NonFiniteValueThrows) {
  // The kernels need finite weights; the stream refuses these spellings.
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    std::stringstream bias(std::string("NNCS-NET 1\nlayers 2\nsizes 2 1\nbias ") + bad +
                           "\nrow 1 2\n");
    EXPECT_THROW(load_network(bias), NnetFormatError) << "bias " << bad;
    std::stringstream weight(std::string("NNCS-NET 1\nlayers 2\nsizes 2 1\nbias 0.5\nrow 1 ") +
                             bad + "\n");
    EXPECT_THROW(load_network(weight), NnetFormatError) << "weight " << bad;
  }
  // The same file with finite values loads.
  std::stringstream good("NNCS-NET 1\nlayers 2\nsizes 2 1\nbias 0.5\nrow 1 2\n");
  EXPECT_EQ(load_network(good).layers()[0].weights(0, 1), 2.0);
}

TEST(NnetIo, SingleLayerNetwork) {
  Network net = make_zero_network({4, 3});
  net.layer(0).weights(2, 1) = -0.125;  // exactly representable
  std::stringstream buffer;
  save_network(net, buffer);
  const Network loaded = load_network(buffer);
  EXPECT_EQ(loaded.layers()[0].weights(2, 1), -0.125);
}

TEST(NetCache, TrainsOnceThenLoadsUnderTheStem) {
  const auto dir = std::filesystem::temp_directory_path() / "nncs_net_cache_stem_test";
  std::filesystem::remove_all(dir);
  int trained = 0;
  const auto train = [&] {
    ++trained;
    return std::vector<Network>{random_network(11), random_network(12)};
  };
  const auto first = ensure_networks(dir, "demo_", "v1", 2, train);
  EXPECT_EQ(trained, 1);
  EXPECT_TRUE(std::filesystem::exists(dir / "demo_0.nnet"));
  EXPECT_TRUE(std::filesystem::exists(dir / "demo_1.nnet"));
  const auto second = ensure_networks(dir, "demo_", "v1", 2, train);
  EXPECT_EQ(trained, 1);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[1].layers()[0].weights, first[1].layers()[0].weights);
  // Another stem or another stamp misses the cache and retrains.
  (void)ensure_networks(dir, "other_", "v1", 2, train);
  EXPECT_EQ(trained, 2);
  (void)ensure_networks(dir, "demo_", "v2", 2, train);
  EXPECT_EQ(trained, 3);
  std::filesystem::remove_all(dir);
}

TEST(NetCache, UnwritableStampThrows) {
  // A stamp that cannot be written would make every later run retrain, so
  // the cache must fail and say why. Here stamp.txt is a directory, or a
  // link into a directory that does not exist.
  const auto dir = std::filesystem::temp_directory_path() / "nncs_net_cache_stamp_test";
  const auto train = [] { return std::vector<Network>{random_network(13)}; };
  for (const bool as_directory : {true, false}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    if (as_directory) {
      std::filesystem::create_directory(dir / "stamp.txt");
    } else {
      std::filesystem::create_symlink(dir / "missing" / "stamp.txt", dir / "stamp.txt");
    }
    try {
      (void)ensure_networks(dir, "net_", "v1", 1, train);
      ADD_FAILURE() << "no error for an unwritable stamp (directory: " << as_directory << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot write stamp"), std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(NetCache, WrongNetworkCountThrows) {
  const auto dir = std::filesystem::temp_directory_path() / "nncs_net_cache_count_test";
  std::filesystem::remove_all(dir);
  const auto train = [] { return std::vector<Network>{random_network(14)}; };
  EXPECT_THROW((void)ensure_networks(dir, "net_", "v1", 2, train), std::logic_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nncs
