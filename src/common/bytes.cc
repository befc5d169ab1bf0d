#include "common/bytes.h"

namespace pds {

void PutU16(Bytes* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(Bytes* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(Bytes* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutLengthPrefixed(Bytes* out, ByteView v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->insert(out->end(), v.data(), v.data() + v.size());
}

bool GetLengthPrefixed(ByteView in, size_t* pos, ByteView* out) {
  if (*pos + 4 > in.size()) {
    return false;
  }
  uint32_t len = GetU32(in.data() + *pos);
  if (*pos + 4 + len > in.size()) {
    return false;
  }
  *out = in.subview(*pos + 4, len);
  *pos += 4 + len;
  return true;
}

std::string ToHex(ByteView v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(v.size() * 2);
  for (size_t i = 0; i < v.size(); ++i) {
    out.push_back(kDigits[v[i] >> 4]);
    out.push_back(kDigits[v[i] & 0xf]);
  }
  return out;
}

namespace {
int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Bytes FromHex(std::string_view hex) {
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      break;
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

}  // namespace pds
