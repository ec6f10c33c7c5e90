#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "nn/network.hpp"

namespace nncs {

/// On-disk cache for a controller's trained networks, shared by the ACAS Xu
/// pipeline (`acasxu::ensure_networks`) and every registered scenario.
/// Layout: `<cache_dir>/<stem><i>.nnet` for i < `count`, plus
/// `<cache_dir>/stamp.txt` holding `stamp`.
///
/// Loads the `count` cached networks when the stamp matches (meaning the
/// training configuration is identical); otherwise calls `train`, which
/// must return exactly `count` networks, and (re)populates the cache.
/// Throws when the stamp cannot be written, since every later run would
/// retrain. Training must be deterministic for a fixed stamp, so cached and
/// freshly-trained runs verify identically.
std::vector<Network> ensure_networks(const std::filesystem::path& cache_dir,
                                     const std::string& stem, const std::string& stamp,
                                     std::size_t count,
                                     const std::function<std::vector<Network>()>& train);

}  // namespace nncs
