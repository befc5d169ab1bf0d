#ifndef PDS_GLOBAL_INTEGRITY_H_
#define PDS_GLOBAL_INTEGRITY_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/sha256.h"
#include "global/common.h"

namespace pds::global {

/// Security primitives against a *weakly malicious* SSI (tutorial threat
/// model B: "WM + Broken -> must be prevented via security primitives, see
/// [ANP13]"). A weakly malicious (covert) adversary deviates only if the
/// deviation cannot be detected — so making every deviation detectable is
/// the defence.
///
/// Each contribution is sealed inside the token: MAC over
/// (participant, sequence number, payload ciphertext). Each participant
/// also emits a MAC'd manifest of how many tuples it contributed. A
/// verifier token can then detect:
///  - alteration  (per-tuple MAC mismatch),
///  - duplication (repeated sequence number),
///  - dropping    (count below the manifest).
struct SealedTuple {
  uint64_t participant = 0;
  uint64_t sequence = 0;
  Bytes payload_ct;
  crypto::Sha256::Digest mac{};
};

struct Manifest {
  uint64_t participant = 0;
  uint64_t tuple_count = 0;
  crypto::Sha256::Digest mac{};
};

/// Bound on a sealed payload ciphertext, checked on decode before any
/// allocation. Matches the wire's per-tuple bound without depending on
/// src/net (global is a lower layer).
inline constexpr size_t kMaxSealedPayloadBytes = 1u << 16;

/// Flat wire encodings so sealed tuples and manifests can travel inside a
/// TupleBatch frame: the MAC'd fields are byte-exact on both ends, so a
/// re-encode after transport verifies against the original MAC.
///   sealed tuple: [u64 participant][u64 sequence][u32 len|payload][32B mac]
///   manifest:     [u64 participant][u64 tuple_count][32B mac]
[[nodiscard]] Bytes EncodeSealedTuple(const SealedTuple& t);
[[nodiscard]] Result<SealedTuple> DecodeSealedTuple(ByteView in);
[[nodiscard]] Bytes EncodeManifest(const Manifest& m);
[[nodiscard]] Result<Manifest> DecodeManifest(ByteView in);

/// Seals one participant's ciphertexts (call inside the producing token).
Result<std::vector<SealedTuple>> SealTuples(
    mcu::SecureToken* token, uint64_t participant,
    const std::vector<Bytes>& payload_cts);

Result<Manifest> MakeManifest(mcu::SecureToken* token, uint64_t participant,
                              uint64_t tuple_count);

/// Verification verdict with the first problem found.
struct IntegrityVerdict {
  bool ok = true;
  std::string problem;  // empty when ok
};

/// Verifies a batch coming back from the SSI against the manifests (call
/// inside the verifying token — it holds the fleet MAC key).
Result<IntegrityVerdict> VerifyBatch(mcu::SecureToken* token,
                                     const std::vector<SealedTuple>& tuples,
                                     const std::vector<Manifest>& manifests);

/// Result of a querier-side audit of a sealed collection round: the
/// integrity verdict plus — only when the batch verified — the plaintext
/// aggregate over the sealed payloads, computed inside the querier token.
struct SealedAudit {
  IntegrityVerdict verdict;
  std::map<std::string, double> groups;  // empty unless verdict.ok
  uint64_t token_ops = 0;                // MACs verified + payloads decrypted
};

/// Verifies and (if clean) aggregates a sealed batch inside the querier
/// token. This is the detection point for every weakly-malicious SSI action
/// on a sealed round: substitution/alteration, replay/duplication, omission
/// and manifest forgery all surface in `verdict.problem`; a forged
/// *aggregate* is caught by comparing the SSI's claimed result against
/// `groups`.
Result<SealedAudit> AuditSealedBatch(mcu::SecureToken* querier,
                                     const std::vector<SealedTuple>& tuples,
                                     const std::vector<Manifest>& manifests,
                                     AggFunc func);

}  // namespace pds::global

#endif  // PDS_GLOBAL_INTEGRITY_H_
