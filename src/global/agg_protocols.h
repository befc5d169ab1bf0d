#ifndef PDS_GLOBAL_AGG_PROTOCOLS_H_
#define PDS_GLOBAL_AGG_PROTOCOLS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "global/common.h"
#include "global/fleet_executor.h"
#include "global/observer.h"

namespace pds::global {

/// A secure "SELECT group, AGG(value) GROUP BY group" protocol over the
/// asymmetric architecture (trusted tokens + untrusted SSI) — the [TNP14]
/// family presented in Part III of the tutorial. Implementations differ in
/// which encryption they use and what the SSI learns:
///
///  - SecureAggProtocol:   non-deterministic encryption; the SSI learns only
///    the tuple count but the tokens pay multiple aggregation rounds.
///  - WhiteNoiseProtocol:  deterministic encryption + random fake tuples;
///    one round, but the SSI sees a (noisy) group-size histogram.
///  - DomainNoiseProtocol: fake tuples drawn from the complementary domain,
///    flattening the histogram the SSI sees at higher bandwidth cost.
///  - HistogramProtocol:   plaintext equi-depth bucket ids (Hacigumus
///    style); the SSI sees only bucket sizes.
///  - PackedPaillierProtocol: slot-packed Paillier; every token ships ONE
///    homomorphic ciphertext carrying all of its per-group counters, the
///    SSI folds blindly, the querier decrypts once. Minimum leakage (the
///    SSI sees only the fleet size) at asymmetric-crypto cost.
///
/// These classes are the in-process entry point, not a second copy of the
/// protocols: Execute admits every participant to a net::SsiServer over a
/// synchronous net::DirectTokenLink and runs the matching SsiServer::Run*,
/// so the frames, the Metrics (measured wire frames, headers included) and
/// the leakage report are the wire runtime's. In-process runs therefore
/// obey the wire's frame bounds (net/codec.h). The implementation lives in
/// src/net/agg_protocols.cc and links with pds_net.
class AggregationProtocol {
 public:
  virtual ~AggregationProtocol() = default;

  virtual std::string_view name() const = 0;

  /// Runs the protocol over the participants. All tokens must share the
  /// fleet key; participant 0's token verifies the others' membership.
  /// The leakage report is the SSI's view of the frames it received.
  virtual Result<AggOutput> Execute(std::vector<Participant>& participants,
                                    AggFunc func) = 0;
};

/// Non-deterministic encryption; SSI partitions blindly, tokens aggregate
/// over log rounds.
class SecureAggProtocol : public AggregationProtocol {
 public:
  struct Config {
    /// Max ciphertext tuples a token can ingest per aggregation step
    /// (bounded by token RAM). Must exceed the number of distinct groups.
    size_t partition_capacity = 256;
    /// Optional fleet executor: the SSI fans each round's per-session work
    /// (and so each token's handlers) out over worker threads, gathering
    /// results by session index, so the output is byte-identical to a
    /// serial run. Null means serial.
    FleetExecutor* executor = nullptr;
  };

  explicit SecureAggProtocol(const Config& config) : config_(config) {}

  std::string_view name() const override { return "secure-agg"; }
  Result<AggOutput> Execute(std::vector<Participant>& participants,
                            AggFunc func) override;

 private:
  Config config_;
};

/// Deterministic encryption of group values + random fake tuples.
class WhiteNoiseProtocol : public AggregationProtocol {
 public:
  struct Config {
    /// Fake tuples added per real tuple (0.2 = 20% noise); must be finite
    /// and >= 0, and a token's real + fake tuples must fit one reply batch.
    double noise_ratio = 0.2;
    /// Each token draws its fake labels from a stream seeded with
    /// noise_seed + its token id.
    uint64_t noise_seed = 7;
    /// See SecureAggProtocol::Config::executor.
    FleetExecutor* executor = nullptr;
  };

  explicit WhiteNoiseProtocol(const Config& config) : config_(config) {}

  std::string_view name() const override { return "white-noise"; }
  Result<AggOutput> Execute(std::vector<Participant>& participants,
                            AggFunc func) override;

 private:
  Config config_;
};

/// Deterministic encryption + fake tuples covering the complementary
/// domain, so the SSI's histogram flattens toward uniform over the domain.
class DomainNoiseProtocol : public AggregationProtocol {
 public:
  struct Config {
    /// The full (public) domain of group values.
    std::vector<std::string> domain;
    /// Fake tuples each participant adds per domain value.
    uint32_t fakes_per_value = 1;
    uint64_t noise_seed = 7;
    /// See SecureAggProtocol::Config::executor.
    FleetExecutor* executor = nullptr;
  };

  explicit DomainNoiseProtocol(Config config) : config_(std::move(config)) {}

  std::string_view name() const override { return "domain-noise"; }
  Result<AggOutput> Execute(std::vector<Participant>& participants,
                            AggFunc func) override;

 private:
  Config config_;
};

/// Hacigumus-style bucketization: tokens tag tuples with a plaintext
/// bucket id; measures stay non-deterministically encrypted.
class HistogramProtocol : public AggregationProtocol {
 public:
  struct Config {
    uint32_t num_buckets = 16;
    /// See SecureAggProtocol::Config::executor.
    FleetExecutor* executor = nullptr;
  };

  explicit HistogramProtocol(const Config& config) : config_(config) {}

  std::string_view name() const override { return "histogram"; }
  Result<AggOutput> Execute(std::vector<Participant>& participants,
                            AggFunc func) override;

 private:
  Config config_;
};

/// Slot-packed Paillier aggregation over a public group domain — the
/// "untrusted-server-only" point of the spectrum run through the packed
/// crypto hot path (crypto::PackedAggregate).
///
/// Every participant folds its tuples into per-domain-value (sum, count)
/// counters, packs them into ONE Paillier plaintext (two slots per domain
/// value) and encrypts it inside its token. The SSI multiplies the fleet's
/// ciphertexts — learning nothing but the fleet size — and the querier
/// performs a single decrypt-unpack. One round; fleet + 1 asymmetric
/// operations total instead of fleet * |domain| + |domain|.
///
/// Tuple values must be non-negative integers (counters); each
/// participant's per-group sum must stay within `max_slot_value`.
class PackedPaillierProtocol : public AggregationProtocol {
 public:
  struct Config {
    /// The full (public) domain of group values; defines the slot order.
    std::vector<std::string> domain;
    /// Cap on one participant's per-group contribution (sum of values and
    /// tuple count). Sizes the slot width together with the fleet size.
    uint64_t max_slot_value = 255;
    /// Querier keypair size.
    size_t paillier_bits = 512;
    /// Seed for the querier's keypair generation.
    uint64_t key_seed = 42;
    /// See SecureAggProtocol::Config::executor.
    FleetExecutor* executor = nullptr;
  };

  explicit PackedPaillierProtocol(Config config) : config_(std::move(config)) {}

  std::string_view name() const override { return "packed-paillier"; }
  Result<AggOutput> Execute(std::vector<Participant>& participants,
                            AggFunc func) override;

 private:
  Config config_;
};

}  // namespace pds::global

#endif  // PDS_GLOBAL_AGG_PROTOCOLS_H_
