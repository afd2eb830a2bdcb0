// Whole-file writers for every final output path (reports, traces, port
// files, self-traces): a reader never sees a partly written file.
#pragma once

#include <string>
#include <string_view>

namespace mpisect::support {

/// Writes `bytes` to `<path>.tmp.<pid>.<n>`, then renames that over
/// `path`. A failed write returns false and leaves neither a temp file nor
/// a changed `path`; an interrupted one leaves `path` as it was. When
/// `path` exists and is not a regular file (a device such as /dev/null, a
/// FIFO, a symlink) it is opened and written in place instead.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::string_view bytes);

/// A tool's --out: `text` goes to stdout when `path` is empty. Otherwise it
/// is written with write_file_atomic and "wrote [<what> ]<path> (<n>
/// bytes)" goes to stdout, or "<tool>: cannot write <path>" to stderr
/// (returning false).
bool write_output(const char* tool, const std::string& text,
                  const std::string& path, const std::string& what = {});

}  // namespace mpisect::support
