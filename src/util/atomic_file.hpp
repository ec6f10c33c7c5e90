#pragma once

#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string_view>

namespace nncs {

/// Replace the file at `path` with what `write` puts into the stream, or
/// leave it as it was. `write` fills `<path>.tmp` in the same directory;
/// the stream is checked once it returns, and the temporary is then renamed
/// over `path` (atomic within one filesystem). So a crash, a full disk or a
/// writer that throws never leaves a truncated `path` behind. On failure
/// the temporary is removed and the error propagates: the writer's own
/// exception, or std::runtime_error "cannot write <what> <path>: <reason>".
/// A symbolic link at `path` is written through (the link stays and the
/// file it names is replaced); a dangling one is an error.
void write_file_atomically(const std::filesystem::path& path, std::string_view what,
                           const std::function<void(std::ostream&)>& write);

}  // namespace nncs
