// Planted leak: a token handler that copies its MAC key's cached HMAC
// midstates into a frame body. HmacKey is a built-in seed like
// SymmetricKey — no annotation needed — so the midstates reaching
// EncodeMessage must be flagged. ctest asserts the secret-flow rule
// catches this.

#include <cstdint>
#include <vector>

using Bytes = std::vector<uint8_t>;

struct HmacKey {
  Bytes inner;
  Bytes outer;
};

struct Message {
  Bytes body;
};

// pdslint: sink(EncodeMessage)
Bytes EncodeMessage(const Message& m);

struct TokenState {
  HmacKey mac_key;
};

Bytes LeakMacMidstates(const TokenState& token) {
  Message m;
  m.body.insert(m.body.end(), token.mac_key.inner.begin(),
                token.mac_key.inner.end());
  return EncodeMessage(m);  // FLAG: MAC key midstate on the wire
}
