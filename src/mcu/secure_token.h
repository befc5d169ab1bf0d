#ifndef PDS_MCU_SECURE_TOKEN_H_
#define PDS_MCU_SECURE_TOKEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/bigint.h"
#include "crypto/cipher.h"
#include "crypto/hmac.h"
#include "crypto/paillier.h"
#include "mcu/ram_gauge.h"

namespace pds::mcu {

/// Counters of cryptographic work performed inside a token. The global
/// protocol benchmarks report these as "token work".
struct CryptoOps {
  uint64_t encryptions = 0;
  uint64_t decryptions = 0;
  uint64_t macs = 0;
  // Counters carried inside packed Paillier plaintexts: one encryption may
  // ship many slots, so the per-op and per-counter costs diverge.
  uint64_t packed_slots = 0;

  uint64_t total() const { return encryptions + decryptions + macs; }
};

/// Simulated secure portable token: a tamper-resistant MCU holding
/// cryptographic secrets, a tiny RAM, and (elsewhere) a NAND flash chip.
///
/// Security model reproduced in software:
///  - The fleet key (shared secret provisioned into every token of an
///    application domain) never leaves the token: callers ask the token to
///    encrypt/decrypt/MAC, they cannot read the key.
///  - Tampering (physical attack) triggers zeroization: all key material is
///    destroyed and every cryptographic operation fails afterwards. This is
///    the software analogue of the protective mesh/sensors described in the
///    tutorial ("tamper resistance [SC02]").
class SecureToken {
 public:
  struct Config {
    uint64_t token_id = 0;
    crypto::SymmetricKey fleet_key{};  // pdslint: secret
    size_t ram_budget_bytes = 64 * 1024;  // typical secure MCU
    uint64_t rng_seed = 1;
  };

  explicit SecureToken(const Config& config);

  SecureToken(const SecureToken&) = delete;
  SecureToken& operator=(const SecureToken&) = delete;

  uint64_t id() const { return id_; }
  RamGauge& ram() { return ram_; }
  Rng& rng() { return rng_; }

  /// Deterministic encryption with the fleet key (for [TNP14] noise/histogram
  /// protocols).
  [[nodiscard]] Result<Bytes> EncryptDet(ByteView plaintext);
  [[nodiscard]] Result<Bytes> DecryptDet(ByteView ciphertext);

  /// Non-deterministic encryption with the fleet key (for the secure
  /// aggregation protocol).
  [[nodiscard]] Result<Bytes> EncryptNonDet(ByteView plaintext);
  [[nodiscard]] Result<Bytes> DecryptNonDet(ByteView ciphertext);

  /// Packs this token's aggregate counters into ONE Paillier plaintext and
  /// encrypts it with the token's internal RNG ([TNP14] packed hot path:
  /// one asymmetric encryption per round instead of one per counter).
  [[nodiscard]] Result<crypto::BigInt> EncryptPacked(
      const crypto::PackedAggregate& agg, const std::vector<uint64_t>& values);

  /// MAC with a key derived from the fleet key, used for integrity evidence
  /// against a weakly-malicious SSI.
  [[nodiscard]] Result<crypto::Sha256::Digest> Mac(ByteView message);

  /// Attestation: proves knowledge of the fleet key for a challenge. Another
  /// token verifies with VerifyAttestation.
  [[nodiscard]] Result<crypto::Sha256::Digest> Attest(ByteView challenge);
  [[nodiscard]] Result<bool> VerifyAttestation(ByteView challenge,
                                 const crypto::Sha256::Digest& proof);

  /// Simulates a physical attack: the token detects it and zeroizes.
  void Tamper();
  bool tampered() const { return tampered_; }

  const CryptoOps& crypto_ops() const { return ops_; }
  void ResetCryptoOps() { ops_ = CryptoOps(); }

 private:
  [[nodiscard]] Status CheckAlive() const;

  uint64_t id_;
  bool tampered_ = false;
  crypto::HmacKey mac_key_;
  std::unique_ptr<crypto::DetCipher> det_;
  std::unique_ptr<crypto::NonDetCipher> nondet_;
  RamGauge ram_;
  Rng rng_;
  CryptoOps ops_;
};

}  // namespace pds::mcu

#endif  // PDS_MCU_SECURE_TOKEN_H_
