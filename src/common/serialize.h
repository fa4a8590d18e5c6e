// Byte-level serialization used by the simulated network channel.
//
// Every protocol message (ciphertexts, garbled tables, secret shares, wire
// labels) is flattened through ByteWriter/ByteReader so the channel can
// account for the exact number of bytes a real deployment would transmit —
// the paper's "Message GB" column in Table III is derived from these counts.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace primer {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) { append(&v, sizeof v); }

  void u64(std::uint64_t v) { append(&v, sizeof v); }

  void i64(std::int64_t v) { append(&v, sizeof v); }

  void bytes(const void* data, std::size_t n) { append(data, n); }

  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    if (!v.empty()) append(v.data(), v.size() * sizeof(std::uint64_t));
  }

  void vec_i64(const std::vector<std::int64_t>& v) {
    u64(v.size());
    if (!v.empty()) append(v.data(), v.size() * sizeof(std::int64_t));
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : buf_(buf), pos_(0), limit_(buf.size()) {}

  // Reader over the sub-message buf[begin, end) — lets bulk decoders hand
  // independent slices of one framed message to parallel workers.
  ByteReader(const std::vector<std::uint8_t>& buf, std::size_t begin,
             std::size_t end)
      : buf_(buf), pos_(begin), limit_(end) {
    if (begin > end || end > buf.size()) {
      throw std::out_of_range("ByteReader: bad sub-range");
    }
  }

  std::uint8_t u8() {
    check(1);
    return buf_[pos_++];
  }

  std::uint32_t u32() {
    std::uint32_t v;
    extract(&v, sizeof v);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v;
    extract(&v, sizeof v);
    return v;
  }

  std::int64_t i64() {
    std::int64_t v;
    extract(&v, sizeof v);
    return v;
  }

  void bytes(void* out, std::size_t n) { extract(out, n); }

  std::vector<std::uint64_t> vec_u64() {
    const auto n = check_count(u64(), sizeof(std::uint64_t));
    std::vector<std::uint64_t> v(n);
    if (n) extract(v.data(), n * sizeof(std::uint64_t));
    return v;
  }

  std::vector<std::int64_t> vec_i64() {
    const auto n = check_count(u64(), sizeof(std::int64_t));
    std::vector<std::int64_t> v(n);
    if (n) extract(v.data(), n * sizeof(std::int64_t));
    return v;
  }

  bool done() const { return pos_ == limit_; }
  std::size_t remaining() const { return limit_ - pos_; }
  std::size_t position() const { return pos_; }

  // Advances past n bytes without copying them out.
  void skip(std::size_t n) {
    check(n);
    pos_ += n;
  }

 private:
  // Overflow-safe bounds check: `pos_ + n` can wrap for a hostile n, so
  // compare against the remaining span instead.
  void check(std::size_t n) const {
    if (n > limit_ - pos_) {
      throw std::out_of_range(
          "ByteReader: truncated message (need " + std::to_string(n) +
          " bytes at offset " + std::to_string(pos_) + ", only " +
          std::to_string(limit_ - pos_) + " remain)");
    }
  }

  // Validates a wire-supplied element count before the vector allocation:
  // `count * elem_size` must not overflow and must fit in the remaining
  // bytes, or a 64-bit length field could demand a wild allocation.
  std::uint64_t check_count(std::uint64_t count, std::size_t elem_size) const {
    if (count > (limit_ - pos_) / elem_size) {
      throw std::out_of_range(
          "ByteReader: vector length " + std::to_string(count) + " (x" +
          std::to_string(elem_size) + " bytes) at offset " +
          std::to_string(pos_) + " exceeds the " +
          std::to_string(limit_ - pos_) + " remaining bytes");
    }
    return count;
  }

  void extract(void* out, std::size_t n) {
    check(n);
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
  }

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
  std::size_t limit_ = 0;
};

}  // namespace primer
