#include "nn/net_cache.hpp"

#include <fstream>
#include <stdexcept>

#include "nn/nnet_io.hpp"
#include "util/atomic_file.hpp"

namespace nncs {

namespace {

std::filesystem::path net_path(const std::filesystem::path& dir, const std::string& stem,
                               std::size_t index) {
  return dir / (stem + std::to_string(index) + ".nnet");
}

std::filesystem::path stamp_path(const std::filesystem::path& dir) { return dir / "stamp.txt"; }

bool cache_valid(const std::filesystem::path& dir, const std::string& stem,
                 const std::string& stamp, std::size_t count) {
  // Reading a directory throws; anything but a regular file holds no stamp.
  if (!std::filesystem::is_regular_file(stamp_path(dir))) {
    return false;
  }
  std::ifstream in(stamp_path(dir));
  if (!in) {
    return false;
  }
  std::string cached((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (cached != stamp) {
    return false;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::filesystem::exists(net_path(dir, stem, i))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<Network> ensure_networks(const std::filesystem::path& cache_dir,
                                     const std::string& stem, const std::string& stamp,
                                     std::size_t count,
                                     const std::function<std::vector<Network>()>& train) {
  if (cache_valid(cache_dir, stem, stamp, count)) {
    std::vector<Network> networks;
    networks.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      networks.push_back(load_network(net_path(cache_dir, stem, i)));
    }
    return networks;
  }
  std::vector<Network> networks = train();
  if (networks.size() != count) {
    throw std::logic_error("net_cache: trainer returned " + std::to_string(networks.size()) +
                           " networks, expected " + std::to_string(count));
  }
  std::filesystem::create_directories(cache_dir);
  for (std::size_t i = 0; i < count; ++i) {
    save_network(networks[i], net_path(cache_dir, stem, i));
  }
  write_file_atomically(stamp_path(cache_dir), "stamp", [&](std::ostream& os) { os << stamp; });
  return networks;
}

}  // namespace nncs
