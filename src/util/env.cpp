#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>
#include <thread>

namespace nncs {

double env_scale() {
  const char* raw = std::getenv("NNCS_SCALE");
  if (raw == nullptr) {
    return 1.0;
  }
  try {
    const double v = std::stod(raw);
    return v > 0.0 ? v : 1.0;
  } catch (const std::exception&) {
    return 1.0;
  }
}

std::size_t env_threads() {
  const char* raw = std::getenv("NNCS_THREADS");
  if (raw != nullptr) {
    try {
      const long v = std::stol(raw);
      if (v >= 1) {
        return static_cast<std::size_t>(v);
      }
    } catch (const std::exception&) {
      // fall through to hardware default
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

bool env_flag(const char* name, bool default_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') {
    return default_value;
  }
  std::string v(raw);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") {
    return false;
  }
  return default_value;
}

}  // namespace nncs
