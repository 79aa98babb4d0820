// Flat binary archives: the serialisation substrate of the distributed
// runtime. Messages travelling between hosts are encoded into contiguous
// byte buffers (little-endian, as produced by the host — the virtual
// cluster is homogeneous, mirroring the paper's EC2 deployment).
//
// Reading past the end of a buffer throws std::runtime_error so a
// truncated/corrupted message surfaces as an error, never as garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

// The schema version constants live in the central registry
// (dist/schema.hpp — the single bump point for every frame family);
// archive.hpp only provides the header put/check machinery around them.
#include "dist/schema.hpp"

namespace dist {

using byte_buffer = std::vector<std::byte>;

/// Thrown by check_schema_header() when a frame was produced under a
/// different schema version than this build understands.
class schema_mismatch_error : public std::runtime_error {
 public:
  schema_mismatch_error(std::uint8_t expected, std::uint8_t found)
      : std::runtime_error("archive schema mismatch: expected version " +
                           std::to_string(expected) + ", found version " +
                           std::to_string(found)),
        expected_(expected),
        found_(found) {}

  std::uint8_t expected() const noexcept { return expected_; }
  std::uint8_t found() const noexcept { return found_; }

 private:
  std::uint8_t expected_;
  std::uint8_t found_;
};

/// Append-only binary encoder.
class archive_writer {
 public:
  /// Append one trivially-copyable value.
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "archive_writer::put requires a trivially copyable type");
    append(&v, sizeof(T));
  }

  /// Append a length-prefixed string.
  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    append(s.data(), s.size());
  }

  /// Append a length-prefixed vector of trivially-copyable elements.
  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "archive_writer::put_vector requires trivially copyable elements");
    put<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
  }

  /// Append raw bytes.
  void append(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, p, n);
  }

  std::size_t size() const noexcept { return buf_.size(); }

  /// Surrender the encoded buffer; the writer is empty afterwards.
  byte_buffer take() { return std::move(buf_); }

 private:
  byte_buffer buf_;
};

/// Sequential binary decoder over a borrowed buffer.
class archive_reader {
 public:
  explicit archive_reader(const byte_buffer& buf) : buf_(buf) {}

  /// Read one trivially-copyable value; throws std::runtime_error on
  /// underflow.
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "archive_reader::get requires a trivially copyable type");
    require(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Read a length-prefixed string.
  std::string get_string() {
    const auto n = get<std::uint64_t>();
    require(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Read a length-prefixed vector of trivially-copyable elements.
  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "archive_reader::get_vector requires trivially copyable elements");
    const std::size_t n = get_count(sizeof(T));
    std::vector<T> v(n);
    if (n > 0) {
      std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return v;
  }

  /// Read a u64 element count for elements that encode to at least
  /// `min_bytes` each; throws std::runtime_error when the rest of the
  /// buffer cannot hold that many, so a corrupt count never reaches a
  /// reserve() or an allocation.
  std::size_t get_count(std::size_t min_bytes) {
    const auto n = get<std::uint64_t>();
    if (n > remaining() / min_bytes)
      throw std::runtime_error("archive_reader: element count overruns buffer");
    return static_cast<std::size_t>(n);
  }

  /// True when every byte has been consumed.
  bool exhausted() const noexcept { return pos_ == buf_.size(); }
  std::size_t remaining() const noexcept { return buf_.size() - pos_; }

 private:
  void require(std::uint64_t n) const {
    if (n > buf_.size() - pos_)
      throw std::runtime_error("archive_reader: underflow (need " +
                               std::to_string(n) + " bytes, have " +
                               std::to_string(buf_.size() - pos_) + ")");
  }

  const byte_buffer& buf_;
  std::size_t pos_ = 0;
};

/// Begin a versioned frame: the schema version byte is the frame header.
inline void put_schema_header(archive_writer& w) {
  w.put<std::uint8_t>(archive_schema_version);
}

/// Validate a versioned frame's header; throws schema_mismatch_error on a
/// version this build does not understand (std::runtime_error on a
/// truncated buffer, as for any other read).
inline void check_schema_header(archive_reader& r) {
  const auto v = r.get<std::uint8_t>();
  if (v != archive_schema_version)
    throw schema_mismatch_error(archive_schema_version, v);
}

}  // namespace dist
