// Planted leak: a trace-id "generator" that folds fleet-key bytes (a
// built-in SymmetricKey seed — no annotation needed) into the trace_id of
// an outgoing message's trace context. Trace ids travel in cleartext on
// every traced frame, and EncodeMessage writes Message::trace into the
// frame, so the key reaches the one frame encoder's sink through it.
// ctest asserts the secret-flow rule catches this.

#include <cstdint>
#include <optional>
#include <vector>

using Bytes = std::vector<uint8_t>;

struct SymmetricKey {
  Bytes bytes;
};

struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

struct Message {
  Bytes body;
  std::optional<TraceContext> trace;
  bool checksummed = false;
};

// pdslint: sink(EncodeMessage)
Bytes EncodeMessage(const Message& m);

struct TokenConfig {
  SymmetricKey fleet_key;
};

Bytes TraceFrameWithKeyedId(const TokenConfig& cfg, const Bytes& body) {
  uint64_t trace_id = 0;
  for (uint8_t b : cfg.fleet_key.bytes) {
    trace_id = (trace_id << 8) ^ b;
  }
  TraceContext ctx;
  ctx.trace_id = trace_id;
  ctx.parent_span_id = 1;
  Message m;
  m.body = body;
  m.trace = ctx;
  return EncodeMessage(m);  // FLAG: key material in a trace id
}
