// Byte-stable blob codec shared by the versioned binary formats
// (RTADCKP1/2 session checkpoints, RTADTEL1 telemetry pages): little-endian
// fixed-width fields, u32-length-prefixed strings, and a trailing FNV-1a
// digest over everything before it.
//
// Header-only on purpose: rtad_core and rtad_telemetry both use it without
// a link edge between them, and page sealing and checkpoint restore run
// these loops per byte on hot paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rtad::core::blob {

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// One FNV-1a step: fold `byte` into the running hash `h`.
constexpr std::uint64_t fnv1a_step(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * kFnvPrime;
}

constexpr std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                              std::uint64_t h = kFnvBasis) {
  for (std::size_t i = 0; i < size; ++i) h = fnv1a_step(h, data[i]);
  return h;
}

constexpr std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnvBasis) {
  for (const char c : s) h = fnv1a_step(h, static_cast<unsigned char>(c));
  return h;
}

/// Little-endian unsigned load of `sizeof(T)` bytes at `p`.
template <typename T>
T load_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

/// Whether the trailing 8-byte digest of a blob of `size` >= 8 bytes
/// matches the FNV-1a of everything before it.
inline bool digest_matches(const std::uint8_t* data, std::size_t size) {
  return fnv1a(data, size - 8) == load_le<std::uint64_t>(data + size - 8);
}

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int s = 0; s < 32; s += 8) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> s));
    }
  }
  void u64(std::uint64_t v) {
    for (int s = 0; s < 64; s += 8) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> s));
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  /// Patch a u32 written earlier (e.g. a total-length slot).
  void patch_u32(std::size_t at, std::uint32_t v) {
    for (int s = 0; s < 32; s += 8) {
      bytes_[at + static_cast<std::size_t>(s / 8)] =
          static_cast<std::uint8_t>(v >> s);
    }
  }
  std::size_t size() const noexcept { return bytes_.size(); }

  /// Appends the FNV-1a digest of everything written so far.
  std::vector<std::uint8_t> finish() && {
    const std::uint64_t digest = fnv1a(bytes_.data(), bytes_.size());
    u64(digest);
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader; a read past the end throws `Error` with the
/// format's own truncation message.
template <typename Error>
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size, const char* truncated)
      : data_(data), size_(size), truncated_(truncated) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    const auto v = load_le<std::uint32_t>(data_ + pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const auto v = load_le<std::uint64_t>(data_ + pos_);
    pos_ += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw Error(truncated_);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  const char* truncated_;
  std::size_t pos_ = 0;
};

}  // namespace rtad::core::blob
