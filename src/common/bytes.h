#ifndef PDS_COMMON_BYTES_H_
#define PDS_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace pds {

/// Owned byte buffer used throughout the library for pages, tuples and
/// ciphertexts.
using Bytes = std::vector<uint8_t>;

/// Non-owning view over bytes (analogous to rocksdb::Slice).
class ByteView {
 public:
  ByteView() : data_(nullptr), size_(0) {}
  ByteView(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  ByteView(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  ByteView(std::string_view s)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  ByteView subview(size_t offset, size_t len) const {
    return ByteView(data_ + offset, len);
  }

  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }
  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

 private:
  const uint8_t* data_;
  size_t size_;
};

inline bool operator==(ByteView a, ByteView b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Little-endian fixed-width encoders/decoders.
/// Appending forms grow `out`; the Get forms read from a raw pointer that the
/// caller guarantees has enough bytes. The fixed-width forms are inline
/// byte loops, which the compiler folds into single loads and stores: page
/// parsers call them once per field of every entry they scan.
void PutU16(Bytes* out, uint16_t v);
void PutU32(Bytes* out, uint32_t v);
void PutU64(Bytes* out, uint64_t v);

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(static_cast<uint16_t>(p[0]) |
                               (static_cast<uint16_t>(p[1]) << 8));
}

inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

/// Encodes v at `p` (fixed width, little endian) without bounds checks.
inline void EncodeU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline void EncodeU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

/// Big-endian fixed-width codecs — used inside index entries so that memcmp
/// order equals numeric order.
inline void EncodeU64BE(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
  }
}

inline uint64_t GetU64BE(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | p[i];
  }
  return v;
}

/// Length-prefixed string: u32 length then raw bytes.
void PutLengthPrefixed(Bytes* out, ByteView v);
/// Reads a length-prefixed slice starting at offset `*pos` in `in`;
/// on success advances `*pos` past it and returns true.
bool GetLengthPrefixed(ByteView in, size_t* pos, ByteView* out);

/// Hex encoding for debugging and test expectations.
std::string ToHex(ByteView v);
Bytes FromHex(std::string_view hex);

}  // namespace pds

#endif  // PDS_COMMON_BYTES_H_
