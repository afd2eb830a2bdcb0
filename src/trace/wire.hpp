// Byte-level encoding primitives for the .mpst trace format.
//
// Everything is explicitly little-endian so traces are portable across
// hosts: multi-byte integers are LEB128 varints (or fixed u32 for the
// magic/version), signed values use zigzag, and doubles are bit_cast to
// uint64 and written as 8 explicit bytes. The reader throws TraceError on
// any overrun, which doubles as the truncated-file diagnostic.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mpisect::trace {

/// All trace I/O failures (bad magic, version skew, truncation, replay
/// inconsistency) throw this; CLI tools catch it and exit with a one-line
/// diagnostic instead of aborting.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// Zigzag mapping for signed values (small magnitudes -> small varints).
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t z) noexcept {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32le(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void zigzag(std::int64_t v) { varint(zigzag_encode(v)); }
  void f64(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32le() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      need(1);
      const std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw TraceError("corrupt trace: varint longer than 64 bits");
  }
  /// A varint count of items that each take at least one more byte. A
  /// count the remaining input cannot hold is rejected here, before any
  /// caller reserves room for it.
  [[nodiscard]] std::size_t count() {
    const std::uint64_t n = varint();
    if (n > remaining()) {
      throw TraceError("corrupt trace: count " + std::to_string(n) +
                       " exceeds the " + std::to_string(remaining()) +
                       " remaining byte(s)");
    }
    return static_cast<std::size_t>(n);
  }
  [[nodiscard]] std::int64_t zigzag() { return zigzag_decode(varint()); }
  [[nodiscard]] double f64() {
    need(8);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    return std::bit_cast<double>(bits);
  }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = varint();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_) {
      throw TraceError("truncated trace: unexpected end of file");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mpisect::trace
