#ifndef PDS_GLOBAL_COMMON_H_
#define PDS_GLOBAL_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "mcu/secure_token.h"

namespace pds::global {

/// A (group, value) pair contributed by one PDS — the tuples of the
/// tutorial's "SELECT group, AGG(value) ... GROUP BY group" example.
/// Plaintext only *inside* tokens.
struct SourceTuple {
  std::string group;
  double value = 0.0;
};

/// One PDS participating in a global query: its secure token plus the
/// tuples its owner has authorized for sharing.
struct Participant {
  mcu::SecureToken* token = nullptr;
  std::vector<SourceTuple> tuples;
};

/// Cost accounting for one protocol execution. Token work is the number of
/// cryptographic operations performed inside secure tokens (the scarce
/// resource of the asymmetric architecture); SSI work is plaintext-side
/// operations on the powerful-but-untrusted infrastructure. For the [TNP14]
/// protocols (net::SsiServer, and the global::*Protocol adapters over it)
/// `messages` and `bytes` count the frames on the token <-> SSI wire,
/// frame headers included.
struct Metrics {
  uint64_t messages = 0;        // network messages
  uint64_t bytes = 0;           // bytes transferred
  uint64_t rounds = 0;          // sequential protocol rounds
  uint64_t token_crypto_ops = 0;  // enc/dec/mac inside tokens
  uint64_t ssi_ops = 0;         // SSI-side comparisons/moves
  // Directional split of `bytes` over the token <-> SSI wire (the only
  // link in the architecture); net::SsiServer fills both, so their sum
  // equals `bytes` for the [TNP14] protocols.
  uint64_t bytes_token_to_ssi = 0;
  uint64_t bytes_ssi_to_token = 0;

  void AddMessage(uint64_t message_bytes) {
    ++messages;
    bytes += message_bytes;
  }
};

/// What the honest-but-curious SSI learned during a protocol run — the
/// privacy side of the [TNP14] trade-off. Recorded by the HbcObserver.
struct LeakageReport {
  /// Total ciphertext tuples the SSI handled.
  uint64_t tuples_observed = 0;
  /// Distinct equality classes the SSI could form over what it saw
  /// (deterministic encryption or bucket ids make classes collapse;
  /// non-deterministic encryption keeps every tuple distinct).
  uint64_t distinct_classes = 0;
  /// Sizes of the equality classes (the group-size histogram the SSI can
  /// reconstruct; includes noise tuples if any), in ascending order, so no
  /// output depends on how the observer tells classes apart.
  std::vector<uint64_t> class_sizes;
  /// Whether any plaintext group value was visible to the SSI.
  bool plaintext_groups_visible = false;

  /// Largest class as a fraction of observed tuples — a simple linkage-risk
  /// indicator (1/distinct_classes == uniform is the best case).
  double MaxClassFraction() const;
  /// Shannon entropy (bits) of the class-size distribution; higher means
  /// the SSI learned less structure per tuple.
  double ClassEntropyBits() const;
};

/// The aggregate requested from the fleet.
enum class AggFunc { kSum, kCount, kAvg };

/// A group's running (sum, count): what tokens fold partitions into and
/// what the querier finalizes.
struct GroupState {
  double sum = 0;
  uint64_t count = 0;
};

/// Each group's `func` value from its (sum, count). Groups with a zero
/// count are left out.
[[nodiscard]] std::map<std::string, double> FinalizeGroups(
    const std::map<std::string, GroupState>& states, AggFunc func);

/// Result of a secure GROUP-BY aggregate over the fleet.
struct AggOutput {
  std::map<std::string, double> groups;
  Metrics metrics;
  LeakageReport leakage;
};

/// Group-label prefix marking [TNP14] noise tuples. The prefix starts with
/// a non-printable byte so it cannot collide with a real user-visible group.
/// Tokens add it to white-noise fakes in the kDetCollect round and drop
/// classes carrying it in the class-aggregate round.
inline constexpr char kFakeGroupPrefix[] = "\x01__fake__";

/// Payload carried (encrypted) with each [TNP14] protocol tuple:
/// [u8 fake][f64 sum][u64 count][group bytes]. Only tokens read it: the
/// SSI forwards the ciphertexts without opening them.
struct AggPayload {
  bool fake = false;
  double sum = 0;
  uint64_t count = 0;
  std::string group;
};

[[nodiscard]] Bytes EncodeAggPayload(bool fake, double sum, uint64_t count,
                                     const std::string& group);
[[nodiscard]] Result<AggPayload> DecodeAggPayload(ByteView in);

/// Reference plaintext evaluation (ground truth for tests/benches).
std::map<std::string, double> PlainAggregate(
    const std::vector<Participant>& participants, AggFunc func);

}  // namespace pds::global

#endif  // PDS_GLOBAL_COMMON_H_
