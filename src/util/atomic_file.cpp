#include "util/atomic_file.hpp"

#include <fstream>
#include <stdexcept>
#include <string>

namespace nncs {

void write_file_atomically(const std::filesystem::path& path, std::string_view what,
                           const std::function<void(std::ostream&)>& write) {
  const auto failure = [&](const std::string& reason) {
    return std::runtime_error("cannot write " + std::string(what) + " " + path.string() + ": " +
                              reason);
  };
  std::error_code ec;
  std::filesystem::path target = path;
  if (std::filesystem::is_symlink(path, ec)) {
    target = std::filesystem::canonical(path, ec);
    if (ec) {
      throw failure(ec.message());
    }
  }
  std::filesystem::path tmp = target;
  tmp += ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) {
    throw failure("cannot create " + tmp.string());
  }
  try {
    write(out);
    out.close();
    if (!out) {
      throw failure("stream failure");
    }
    std::filesystem::rename(tmp, target, ec);
    if (ec) {
      throw failure(ec.message());
    }
  } catch (...) {
    out.close();
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

}  // namespace nncs
