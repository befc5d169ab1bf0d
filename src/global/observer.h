#ifndef PDS_GLOBAL_OBSERVER_H_
#define PDS_GLOBAL_OBSERVER_H_

#include <compare>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "global/common.h"

namespace pds::global {

/// The honest-but-curious SSI's notebook: it executes the protocol
/// faithfully but records everything it sees. Protocols feed it every
/// equality-class key the SSI could observe (a deterministic ciphertext, a
/// bucket id, a plaintext — or the whole distinct ciphertext for
/// non-deterministic encryption, under which every tuple is its own class).
///
/// It keeps one 128-bit digest per observed tuple, the first 16 bytes of
/// SHA-256(class_key), in a flat vector: no copy of the key and no heap
/// node per tuple. Report() sorts the digests once and counts equal runs.
/// Two keys count as one class iff their digests match. Among n distinct
/// keys, P(two share a digest) <= n^2 / 2^129, about 10^-29 at n = 81,000
/// (one secure-agg round of 20,000 tokens); no token can force a collision
/// without breaking SHA-256. The keys are ciphertexts and bucket ids the
/// SSI already sees, so the digests carry no secret.
class HbcObserver {
 public:
  /// `class_key` is whatever the SSI can use to test equality between two
  /// tuples; `plaintext_group` marks keys the SSI can read as cleartext.
  void ObserveTuple(ByteView class_key, bool plaintext_group = false);

  /// The classes observed so far; `class_sizes` in ascending order.
  LeakageReport Report() const;

 private:
  struct Digest {
    uint64_t hi = 0;
    uint64_t lo = 0;
    auto operator<=>(const Digest&) const = default;
  };
  std::vector<Digest> digests_;
  bool plaintext_seen_ = false;
};

}  // namespace pds::global

#endif  // PDS_GLOBAL_OBSERVER_H_
