#ifndef PDS_NET_ADVERSARY_H_
#define PDS_NET_ADVERSARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "global/integrity.h"

/// Weakly-malicious SSI actions on the real wire, the one tampering
/// vocabulary of the codebase. An AdversaryPlan names exactly one action
/// per scenario cell, and the scenario harness (net/scenario.h) plays the
/// SSI that performs it: on what the real SsiServer returns (the sealed
/// pool, the claimed aggregate) and on session 0's link (hostile frames).
/// The harness then asserts that the querier-side global::IntegrityVerdict,
/// the aggregate comparison or the token's own checks catch it. SsiServer
/// itself runs the protocol only.
///
/// Nothing in here touches plaintext or keys: the adversary manipulates
/// ciphertext blobs, MAC'd manifests and frames — precisely the power a
/// compromised SSI has in the paper's threat model.
namespace pds::net {

enum class AdversaryAction : uint8_t {
  kNone = 0,
  kSubstituteCiphertext = 1,  // alter one sealed payload ciphertext
  kReplayCiphertext = 2,      // duplicate one sealed tuple
  kOmitCiphertext = 3,        // drop one sealed tuple
  kForgeManifest = 4,         // bump a manifest's tuple count (re-MAC-less)
  kForgeAggregate = 5,        // skew the claimed aggregate's first group
  kReplayStaleRound = 6,      // re-send round 1 once a later one answered
  kOversizedFrame = 7,        // frame declaring payload_len > kMaxFramePayload
  kMalformedFrame = 8,        // valid header, garbage payload
};

const char* AdversaryActionName(AdversaryAction action);

struct AdversaryPlan {
  AdversaryAction action = AdversaryAction::kNone;
  uint64_t seed = 99;
};

/// Applies a sealed-batch tampering action (substitute/replay/omit/forge-
/// manifest) in place; plan.seed picks the victim. Returns a human-readable
/// description of what was done ("" when the action does not apply to
/// sealed batches or the batch is empty).
std::string ApplySealedTampering(const AdversaryPlan& plan,
                                 std::vector<global::SealedTuple>* tuples,
                                 std::vector<global::Manifest>* manifests);

/// Compares the SSI's claimed aggregate against the querier's audited one.
/// Any divergence — extra group, missing group, differing value — is a
/// detected forgery.
global::IntegrityVerdict CompareAggregates(
    const std::map<std::string, double>& claimed,
    const std::map<std::string, double>& audited);

}  // namespace pds::net

#endif  // PDS_NET_ADVERSARY_H_
