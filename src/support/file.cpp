#include "support/file.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>

namespace mpisect::support {

static bool write_to(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return static_cast<bool>(out);
}

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode))
    return write_to(path, bytes);
  static std::atomic<unsigned> seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1));
  if (write_to(tmp, bytes) && std::rename(tmp.c_str(), path.c_str()) == 0)
    return true;
  std::remove(tmp.c_str());
  return false;
}

bool write_output(const char* tool, const std::string& text,
                  const std::string& path, const std::string& what) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  if (!write_file_atomic(path, text)) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  std::printf("wrote %s%s%s (%zu bytes)\n", what.c_str(),
              what.empty() ? "" : " ", path.c_str(), text.size());
  return true;
}

}  // namespace mpisect::support
