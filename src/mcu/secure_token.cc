#include "mcu/secure_token.h"

#include "obs/obs.h"

namespace pds::mcu {

namespace {

/// Fleet-wide token metrics, resolved once (function-local static) so every
/// crypto op pays exactly one atomic add per metric.
struct TokenObs {
  obs::Counter* encryptions;
  obs::Counter* decryptions;
  obs::Counter* macs;
  obs::Counter* packed_encryptions;
  obs::Counter* packed_slots;
  obs::Gauge* ram_high_water;

  static const TokenObs& Get() {
    static const TokenObs hooks = [] {
      obs::Registry& reg = obs::Registry::Global();
      return TokenObs{reg.GetCounter("token.encryptions", "ops"),
                      reg.GetCounter("token.decryptions", "ops"),
                      reg.GetCounter("token.macs", "ops"),
                      reg.GetCounter("token.packed_encryptions", "ops"),
                      reg.GetCounter("token.packed_slots", "slots"),
                      reg.GetGauge("token.ram_high_water_bytes", "bytes")};
    }();
    return hooks;
  }
};

/// Working RAM of one crypto op beyond the staged input: cipher block
/// scratch, nonce/tag staging, HMAC state. A flat constant keeps the model
/// deterministic; the point is that every op charges the token's RamGauge
/// so `ram_.high_water()` — and the exported token.ram_high_water_bytes
/// gauge — reflects real on-chip usage instead of staying at zero.
constexpr size_t kCryptoScratchBytes = 96;

/// The token's own MAC key, derived from the fleet key.
crypto::HmacKey TokenMacKey(const crypto::SymmetricKey& fleet_key) {
  const crypto::Sha256::Digest derived =
      crypto::DeriveKey(ByteView(fleet_key.data(), fleet_key.size()),
                        ByteView(std::string_view("token-mac")));
  return crypto::HmacKey(ByteView(derived.data(), derived.size()));
}

}  // namespace

SecureToken::SecureToken(const Config& config)
    : id_(config.token_id),
      mac_key_(TokenMacKey(config.fleet_key)),
      det_(std::make_unique<crypto::DetCipher>(config.fleet_key)),
      nondet_(std::make_unique<crypto::NonDetCipher>(config.fleet_key)),
      ram_(config.ram_budget_bytes),
      // Mix id and seed so distinct tokens never share an RNG stream (and
      // thus never reuse encryption nonces).
      rng_(config.rng_seed ^ (config.token_id * 0x9E3779B97F4A7C15ULL)) {}

Status SecureToken::CheckAlive() const {
  if (tampered_) {
    return Status::PermissionDenied(
        "token " + std::to_string(id_) +
        " was tampered with; key material zeroized");
  }
  return Status::Ok();
}

Result<Bytes> SecureToken::EncryptDet(ByteView plaintext) {
  PDS_RETURN_IF_ERROR(CheckAlive());
  ++ops_.encryptions;
  const TokenObs& hooks = TokenObs::Get();
  hooks.encryptions->Add(1);
  PDS_ASSIGN_OR_RETURN(
      RamCharge charge,
      RamCharge::Make(&ram_, plaintext.size() + kCryptoScratchBytes));
  hooks.ram_high_water->Set(static_cast<double>(ram_.high_water()));
  return det_->Encrypt(plaintext);
}

Result<Bytes> SecureToken::DecryptDet(ByteView ciphertext) {
  PDS_RETURN_IF_ERROR(CheckAlive());
  ++ops_.decryptions;
  const TokenObs& hooks = TokenObs::Get();
  hooks.decryptions->Add(1);
  PDS_ASSIGN_OR_RETURN(
      RamCharge charge,
      RamCharge::Make(&ram_, ciphertext.size() + kCryptoScratchBytes));
  hooks.ram_high_water->Set(static_cast<double>(ram_.high_water()));
  return det_->Decrypt(ciphertext);
}

Result<Bytes> SecureToken::EncryptNonDet(ByteView plaintext) {
  PDS_RETURN_IF_ERROR(CheckAlive());
  ++ops_.encryptions;
  const TokenObs& hooks = TokenObs::Get();
  hooks.encryptions->Add(1);
  PDS_ASSIGN_OR_RETURN(
      RamCharge charge,
      RamCharge::Make(&ram_, plaintext.size() + kCryptoScratchBytes));
  hooks.ram_high_water->Set(static_cast<double>(ram_.high_water()));
  return nondet_->Encrypt(plaintext, &rng_);
}

Result<Bytes> SecureToken::DecryptNonDet(ByteView ciphertext) {
  PDS_RETURN_IF_ERROR(CheckAlive());
  ++ops_.decryptions;
  const TokenObs& hooks = TokenObs::Get();
  hooks.decryptions->Add(1);
  PDS_ASSIGN_OR_RETURN(
      RamCharge charge,
      RamCharge::Make(&ram_, ciphertext.size() + kCryptoScratchBytes));
  hooks.ram_high_water->Set(static_cast<double>(ram_.high_water()));
  return nondet_->Decrypt(ciphertext);
}

Result<crypto::BigInt> SecureToken::EncryptPacked(
    const crypto::PackedAggregate& agg, const std::vector<uint64_t>& values) {
  PDS_RETURN_IF_ERROR(CheckAlive());
  ++ops_.encryptions;
  ops_.packed_slots += values.size();
  const TokenObs& hooks = TokenObs::Get();
  hooks.encryptions->Add(1);
  hooks.packed_encryptions->Add(1);
  hooks.packed_slots->Add(values.size());
  PDS_ASSIGN_OR_RETURN(
      RamCharge charge,
      RamCharge::Make(&ram_, values.size() * sizeof(uint64_t) +
                                 kCryptoScratchBytes));
  hooks.ram_high_water->Set(static_cast<double>(ram_.high_water()));
  return agg.EncryptPacked(values, &rng_);
}

Result<crypto::Sha256::Digest> SecureToken::Mac(ByteView message) {
  PDS_RETURN_IF_ERROR(CheckAlive());
  ++ops_.macs;
  const TokenObs& hooks = TokenObs::Get();
  hooks.macs->Add(1);
  PDS_ASSIGN_OR_RETURN(
      RamCharge charge,
      RamCharge::Make(&ram_, message.size() + kCryptoScratchBytes));
  hooks.ram_high_water->Set(static_cast<double>(ram_.high_water()));
  return mac_key_.Mac(message);
}

Result<crypto::Sha256::Digest> SecureToken::Attest(ByteView challenge) {
  return Mac(challenge);
}

Result<bool> SecureToken::VerifyAttestation(
    ByteView challenge, const crypto::Sha256::Digest& proof) {
  PDS_ASSIGN_OR_RETURN(crypto::Sha256::Digest expected, Mac(challenge));
  return crypto::DigestEqual(expected, proof);
}

void SecureToken::Tamper() {
  tampered_ = true;
  // Zeroize: the tamper-resistant hardware destroys its secrets. The
  // ciphers' destructors wipe their AES round keys and MAC midstates.
  mac_key_.Wipe();
  det_.reset();
  nondet_.reset();
}

}  // namespace pds::mcu
