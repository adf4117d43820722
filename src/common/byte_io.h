// Copyright 2026 The siot-trust Authors.
// The little-endian byte codec under every binary on-disk format: the
// WAL frame header, the v2 WAL payloads and the v2 checkpoints. One
// writer family and one bounds-checked reader, so each fixed-width
// field on disk is encoded and decoded by exactly one piece of code.

#ifndef SIOT_COMMON_BYTE_IO_H_
#define SIOT_COMMON_BYTE_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace siot {

namespace byte_io_internal {

template <typename T>
void PutLittleEndian(std::string* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

}  // namespace byte_io_internal

inline void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void PutU16(std::string* out, std::uint16_t v) {
  byte_io_internal::PutLittleEndian(out, v);
}
inline void PutU32(std::string* out, std::uint32_t v) {
  byte_io_internal::PutLittleEndian(out, v);
}
inline void PutU64(std::string* out, std::uint64_t v) {
  byte_io_internal::PutLittleEndian(out, v);
}

/// Raw IEEE-754 bit pattern, not a decimal rendering: WAL replay, admin
/// reconciliation and restored-state checks compare doubles by exact
/// equality.
inline void PutF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Little-endian cursor over a byte string. Every read is bounds-checked:
/// a truncated input or a lying count/length field makes the read return
/// false (consuming nothing), never an out-of-range access.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(std::uint8_t* v) { return ReadLittleEndian(v); }
  bool ReadU16(std::uint16_t* v) { return ReadLittleEndian(v); }
  bool ReadU32(std::uint32_t* v) { return ReadLittleEndian(v); }
  bool ReadU64(std::uint64_t* v) { return ReadLittleEndian(v); }

  bool ReadF64(double* v) {
    std::uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadBytes(std::size_t n, std::string* out) {
    std::string_view view;
    if (!ReadView(n, &view)) return false;
    out->assign(view);
    return true;
  }

  /// Like ReadBytes, but aliases the underlying buffer instead of copying.
  bool ReadView(std::size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = bytes_.substr(offset_, n);
    offset_ += n;
    return true;
  }

  std::size_t remaining() const { return bytes_.size() - offset_; }

 private:
  template <typename T>
  bool ReadLittleEndian(T* v) {
    if (remaining() < sizeof(T)) return false;
    T value = 0;
    for (std::size_t i = sizeof(T); i > 0; --i) {
      value = static_cast<T>(
          (value << 8) | static_cast<unsigned char>(bytes_[offset_ + i - 1]));
    }
    offset_ += sizeof(T);
    *v = value;
    return true;
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

}  // namespace siot

#endif  // SIOT_COMMON_BYTE_IO_H_
