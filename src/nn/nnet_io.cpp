#include "nn/nnet_io.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "util/atomic_file.hpp"

namespace nncs {

namespace {

constexpr const char* kMagic = "NNCS-NET";
constexpr int kVersion = 1;

[[noreturn]] void fail(const std::string& what) { throw NnetFormatError("nnet_io: " + what); }

std::string expect_token(std::istream& is, const char* context) {
  std::string token;
  if (!(is >> token)) {
    fail(std::string("unexpected end of input while reading ") + context);
  }
  return token;
}

double expect_double(std::istream& is, const char* context) {
  double v = 0.0;
  if (!(is >> v)) {
    fail(std::string("expected a number while reading ") + context);
  }
  return v;
}

std::size_t expect_size(std::istream& is, const char* context) {
  long long v = 0;
  if (!(is >> v) || v <= 0) {
    fail(std::string("expected a positive integer while reading ") + context);
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

void save_network(const Network& net, std::ostream& os) {
  os << kMagic << ' ' << kVersion << '\n';
  const auto sizes = net.layer_sizes();
  os << "layers " << sizes.size() << '\n';
  os << "sizes";
  for (const auto s : sizes) {
    os << ' ' << s;
  }
  os << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const auto& layer : net.layers()) {
    os << "bias";
    for (const double b : layer.biases) {
      os << ' ' << b;
    }
    os << '\n';
    for (std::size_t r = 0; r < layer.weights.rows(); ++r) {
      os << "row";
      for (std::size_t c = 0; c < layer.weights.cols(); ++c) {
        os << ' ' << layer.weights(r, c);
      }
      os << '\n';
    }
  }
  if (!os) {
    throw std::runtime_error("nnet_io: stream failure while writing network");
  }
}

void save_network(const Network& net, const std::filesystem::path& path) {
  write_file_atomically(path, "network", [&](std::ostream& os) { save_network(net, os); });
}

Network load_network(std::istream& is) {
  if (expect_token(is, "magic") != kMagic) {
    fail("bad magic (not a NNCS-NET file)");
  }
  if (expect_size(is, "version") != static_cast<std::size_t>(kVersion)) {
    fail("unsupported version");
  }
  if (expect_token(is, "layers keyword") != "layers") {
    fail("expected 'layers'");
  }
  const std::size_t num_sizes = expect_size(is, "layer count");
  if (num_sizes < 2) {
    fail("need at least 2 layers");
  }
  if (expect_token(is, "sizes keyword") != "sizes") {
    fail("expected 'sizes'");
  }
  std::vector<std::size_t> sizes(num_sizes);
  for (auto& s : sizes) {
    s = expect_size(is, "layer size");
  }
  std::vector<Layer> layers;
  layers.reserve(num_sizes - 1);
  for (std::size_t li = 1; li < num_sizes; ++li) {
    const std::size_t rows = sizes[li];
    const std::size_t cols = sizes[li - 1];
    Layer layer{Matrix(rows, cols), Vec(rows)};
    if (expect_token(is, "bias keyword") != "bias") {
      fail("expected 'bias'");
    }
    for (std::size_t r = 0; r < rows; ++r) {
      layer.biases[r] = expect_double(is, "bias value");
    }
    for (std::size_t r = 0; r < rows; ++r) {
      if (expect_token(is, "row keyword") != "row") {
        fail("expected 'row'");
      }
      for (std::size_t c = 0; c < cols; ++c) {
        layer.weights(r, c) = expect_double(is, "weight value");
      }
    }
    layers.push_back(std::move(layer));
  }
  return Network{std::move(layers)};
}

Network load_network(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("nnet_io: cannot open for reading: " + path.string());
  }
  return load_network(in);
}

}  // namespace nncs
