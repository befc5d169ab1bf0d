#include "crypto/paillier.h"

#include <algorithm>

namespace pds::crypto {

namespace {

/// L(x) = (x - 1) / d, the Paillier decryption quotient.
BigInt LFunc(const BigInt& x, const BigInt& d) {
  return BigInt::Div(BigInt::Sub(x, BigInt::One()), d);
}

/// Garner CRT recombination for Decrypt: cp = c^(p-1) mod p^2 and
/// cq = c^(q-1) mod q^2 -> plaintext.
BigInt CrtCombine(const Paillier::PrivateKey& sk, const BigInt& cp,
                  const BigInt& cq) {
  BigInt mp = BigInt::ModMul(BigInt::Mod(LFunc(cp, sk.p), sk.p), sk.hp, sk.p);
  BigInt mq = BigInt::ModMul(BigInt::Mod(LFunc(cq, sk.q), sk.q), sk.hq, sk.q);
  BigInt h = BigInt::ModMul(BigInt::ModSub(mp, mq, sk.p), sk.q_inv_p, sk.p);
  return BigInt::Add(mq, BigInt::Mul(sk.q, h));
}

/// Bits needed to represent v (bit_width); 0 for v == 0.
uint32_t BitWidthU64(uint64_t v) {
  uint32_t w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

}  // namespace

Paillier::Paillier(PublicKey pub, PrivateKey priv, Rng* rng)
    : public_key_(std::move(pub)), private_key_(std::move(priv)) {
  ctx_n2_ = std::make_shared<const MontgomeryCtx>(public_key_.n_squared);
  ctx_p2_ = std::make_shared<const MontgomeryCtx>(private_key_.p_squared);
  ctx_q2_ = std::make_shared<const MontgomeryCtx>(private_key_.q_squared);

  // Fixed-base cache: r = h^alpha with h fixed per keypair, so r^n =
  // (h^n)^alpha comes from a window table over the fixed base h^n mod n^2.
  const BigInt& n = public_key_.n;
  BigInt h;
  do {
    h = BigInt::RandomBelow(n, rng);
  } while (h.IsZero() || h.IsOne() || !BigInt::Gcd(h, n).IsOne());
  BigInt hn = ctx_n2_->ModExp(h, n);
  alpha_bits_ = std::max<size_t>(128, n.BitLength() / 2);
  enc_table_ =
      std::make_shared<const FixedBaseTable>(ctx_n2_.get(), hn, alpha_bits_);
}

Result<Paillier> Paillier::GenerateFromPrimes(const BigInt& p, const BigInt& q,
                                              Rng* rng) {
  if (p.IsZero() || q.IsZero() || p.IsOne() || q.IsOne()) {
    return Status::InvalidArgument("Paillier primes must be > 1");
  }
  if (p == q) {
    return Status::InvalidArgument("Paillier primes must be distinct");
  }
  if (!p.IsOdd() || !q.IsOdd()) {
    return Status::InvalidArgument("Paillier primes must be odd");
  }
  BigInt n = BigInt::Mul(p, q);
  BigInt p1 = BigInt::Sub(p, BigInt::One());
  BigInt q1 = BigInt::Sub(q, BigInt::One());
  if (!BigInt::Gcd(n, BigInt::Mul(p1, q1)).IsOne()) {
    return Status::InvalidArgument(
        "gcd(pq, (p-1)(q-1)) != 1: primes unusable for Paillier");
  }

  BigInt lambda = BigInt::Lcm(p1, q1);
  BigInt n_squared = BigInt::Mul(n, n);

  // With g = n + 1: g^lambda mod n^2 = 1 + lambda*n mod n^2, so
  // L(g^lambda) = lambda mod n and mu = lambda^-1 mod n.
  BigInt mu = BigInt::ModInverse(BigInt::Mod(lambda, n), n);
  if (mu.IsZero()) {
    return Status::Internal("lambda not invertible mod n");
  }

  PrivateKey priv;
  priv.lambda = lambda;
  priv.mu = mu;
  priv.p = p;
  priv.q = q;
  priv.p_squared = BigInt::Mul(p, p);
  priv.q_squared = BigInt::Mul(q, q);

  // hp = (L_p(g^(p-1) mod p^2))^-1 mod p (and symmetrically hq): the
  // per-prime constants of CRT decryption. g = n + 1.
  BigInt g = BigInt::Add(n, BigInt::One());
  BigInt gp = BigInt::ModExp(BigInt::Mod(g, priv.p_squared), p1,
                             priv.p_squared);
  priv.hp = BigInt::ModInverse(BigInt::Mod(LFunc(gp, p), p), p);
  BigInt gq = BigInt::ModExp(BigInt::Mod(g, priv.q_squared), q1,
                             priv.q_squared);
  priv.hq = BigInt::ModInverse(BigInt::Mod(LFunc(gq, q), q), q);
  priv.q_inv_p = BigInt::ModInverse(BigInt::Mod(q, p), p);
  if (priv.hp.IsZero() || priv.hq.IsZero() || priv.q_inv_p.IsZero()) {
    return Status::Internal("CRT constants not invertible");
  }

  PublicKey pub{n, n_squared};
  return Paillier(std::move(pub), std::move(priv), rng);
}

Result<Paillier> Paillier::Generate(size_t modulus_bits, Rng* rng) {
  if (modulus_bits < 64) {
    return Status::InvalidArgument("Paillier modulus must be >= 64 bits");
  }
  size_t prime_bits = modulus_bits / 2;
  for (;;) {
    BigInt p = BigInt::GeneratePrime(prime_bits, rng);
    BigInt q = BigInt::GeneratePrime(prime_bits, rng);
    Result<Paillier> built = GenerateFromPrimes(p, q, rng);
    if (built.ok() ||
        built.status().code() != StatusCode::kInvalidArgument) {
      return built;
    }
    // p == q or a gcd collision (vanishingly rare): redraw.
  }
}

Result<BigInt> Paillier::Encrypt(const BigInt& m, Rng* rng) const {
  const BigInt& n = public_key_.n;
  const BigInt& n2 = public_key_.n_squared;
  if (BigInt::Compare(m, n) >= 0) {
    return Status::InvalidArgument("plaintext not less than modulus");
  }
  // r^n = (h^n)^alpha from the fixed-base table; alpha random.
  BigInt alpha = BigInt::RandomBits(alpha_bits_, rng);
  MontgomeryCtx::Limbs r_n = enc_table_->PowMont(alpha);
  // (1 + m*n) * r^n mod n^2, composed in the Montgomery domain.
  BigInt g_m = BigInt::Mod(BigInt::Add(BigInt::One(), BigInt::Mul(m, n)), n2);
  MontgomeryCtx::Limbs g_m_mont = ctx_n2_->ToMont(g_m);
  MontgomeryCtx::Limbs ct;
  ctx_n2_->MontMul(g_m_mont, r_n, &ct);
  return ctx_n2_->FromMont(ct);
}

Result<BigInt> Paillier::EncryptScalar(const BigInt& m, Rng* rng) const {
  const BigInt& n = public_key_.n;
  const BigInt& n2 = public_key_.n_squared;
  if (BigInt::Compare(m, n) >= 0) {
    return Status::InvalidArgument("plaintext not less than modulus");
  }
  // r uniform in [1, n) with gcd(r, n) = 1 (overwhelmingly likely).
  BigInt r;
  do {
    r = BigInt::RandomBelow(n, rng);
  } while (r.IsZero() || !BigInt::Gcd(r, n).IsOne());

  // (1 + m*n) * r^n mod n^2.
  BigInt g_m = BigInt::Mod(BigInt::Add(BigInt::One(), BigInt::Mul(m, n)), n2);
  BigInt r_n = BigInt::ModExpSchoolbook(r, n, n2);
  return BigInt::ModMul(g_m, r_n, n2);
}

Result<BigInt> Paillier::EncryptU64(uint64_t m, Rng* rng) const {
  return Encrypt(BigInt(m), rng);
}

Result<BigInt> Paillier::Decrypt(const BigInt& c) const {
  const BigInt& n2 = public_key_.n_squared;
  if (c.IsZero() || BigInt::Compare(c, n2) >= 0) {
    return Status::InvalidArgument("ciphertext out of range");
  }
  const PrivateKey& sk = private_key_;
  // Half-size exponentiations mod p^2 and q^2, then Garner recombination.
  BigInt p1 = BigInt::Sub(sk.p, BigInt::One());
  BigInt q1 = BigInt::Sub(sk.q, BigInt::One());
  BigInt cp = ctx_p2_->ModExp(BigInt::Mod(c, sk.p_squared), p1);
  BigInt cq = ctx_q2_->ModExp(BigInt::Mod(c, sk.q_squared), q1);
  return CrtCombine(sk, cp, cq);
}

Result<BigInt> Paillier::DecryptScalar(const BigInt& c) const {
  const BigInt& n = public_key_.n;
  const BigInt& n2 = public_key_.n_squared;
  if (c.IsZero() || BigInt::Compare(c, n2) >= 0) {
    return Status::InvalidArgument("ciphertext out of range");
  }
  BigInt x = BigInt::ModExpSchoolbook(c, private_key_.lambda, n2);
  // L(x) = (x - 1) / n.
  BigInt l = LFunc(x, n);
  return BigInt::ModMul(l, private_key_.mu, n);
}

Result<uint64_t> Paillier::DecryptU64(const BigInt& c) const {
  PDS_ASSIGN_OR_RETURN(BigInt m, Decrypt(c));
  return m.ToU64();
}

BigInt Paillier::AddCiphertexts(const BigInt& c1, const BigInt& c2) const {
  return ctx_n2_->ModMul(c1, c2);
}

BigInt Paillier::AddPlaintext(const BigInt& c, const BigInt& k) const {
  const BigInt& n = public_key_.n;
  const BigInt& n2 = public_key_.n_squared;
  BigInt g_k = BigInt::Mod(BigInt::Add(BigInt::One(), BigInt::Mul(k, n)), n2);
  return ctx_n2_->ModMul(c, g_k);
}

BigInt Paillier::MulPlaintext(const BigInt& c, const BigInt& k) const {
  return ctx_n2_->ModExp(c, k);
}

Result<SlotLayout> SlotLayout::ForFleet(size_t fleet_size, uint64_t max_value,
                                        size_t num_counters,
                                        size_t plaintext_bits) {
  if (fleet_size == 0) {
    return Status::InvalidArgument("slot layout needs a nonzero fleet");
  }
  if (num_counters == 0) {
    return Status::InvalidArgument("slot layout needs at least one counter");
  }
  uint32_t value_bits = BitWidthU64(max_value == 0 ? 1 : max_value);
  uint32_t guard_bits = BitWidthU64(fleet_size);
  uint32_t slot_bits = value_bits + guard_bits;
  // slot_bits <= 63 keeps every aggregated slot total inside a uint64 and
  // the unpack mask constructible as 1 << slot_bits.
  if (slot_bits > 63) {
    return Status::InvalidArgument("slot width exceeds 63 bits");
  }
  // The packed value is < 2^(num_slots * slot_bits); keeping that at most
  // 2^(plaintext_bits - 1) <= n (n has its top bit set) guarantees every
  // aggregate stays below the plaintext modulus.
  if (plaintext_bits < 2 ||
      num_counters * static_cast<size_t>(slot_bits) > plaintext_bits - 1) {
    return Status::InvalidArgument(
        "packed slots do not fit below the plaintext modulus");
  }
  SlotLayout layout;
  layout.num_slots = static_cast<uint32_t>(num_counters);
  layout.slot_bits = slot_bits;
  layout.guard_bits = guard_bits;
  layout.max_slot_value = max_value;
  return layout;
}

Result<BigInt> PackSlots(const SlotLayout& layout,
                         const std::vector<uint64_t>& values) {
  if (values.size() != layout.num_slots) {
    return Status::InvalidArgument("value count does not match slot layout");
  }
  for (uint64_t v : values) {
    if (v > layout.max_slot_value) {
      return Status::InvalidArgument("counter exceeds slot capacity");
    }
  }
  // Compose from the top slot down so each value lands at i * slot_bits.
  BigInt packed;
  for (size_t i = values.size(); i-- > 0;) {
    packed = BigInt::Add(BigInt::ShiftLeft(packed, layout.slot_bits),
                         BigInt(values[i]));
  }
  return packed;
}

Result<std::vector<uint64_t>> UnpackSlots(const SlotLayout& layout,
                                          const BigInt& packed) {
  if (packed.BitLength() > layout.total_bits()) {
    return Status::InvalidArgument(
        "packed value wider than slot layout (overflow or foreign value)");
  }
  const BigInt mask(uint64_t{1} << layout.slot_bits);
  std::vector<uint64_t> values(layout.num_slots);
  BigInt rest = packed;
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = BigInt::Mod(rest, mask).ToU64();
    rest = BigInt::ShiftRight(rest, layout.slot_bits);
  }
  return values;
}

Result<PackedAggregate> PackedAggregate::Create(const Paillier& paillier,
                                                size_t fleet_size,
                                                uint64_t max_value,
                                                size_t num_counters) {
  PDS_ASSIGN_OR_RETURN(
      SlotLayout layout,
      SlotLayout::ForFleet(fleet_size, max_value, num_counters,
                           paillier.public_key().n.BitLength()));
  return PackedAggregate(paillier, layout);
}

Result<BigInt> PackedAggregate::EncryptPacked(
    const std::vector<uint64_t>& values, Rng* rng) const {
  PDS_ASSIGN_OR_RETURN(BigInt packed, PackSlots(layout_, values));
  return paillier_.Encrypt(packed, rng);
}

Status PackedAggregate::CheckAddBudget(size_t addends) const {
  if (addends > layout_.max_addends()) {
    return Status::InvalidArgument(
        "homomorphic addend count exceeds the slot guard budget");
  }
  return Status::Ok();
}

Result<std::vector<uint64_t>> PackedAggregate::DecryptUnpack(
    const BigInt& c) const {
  PDS_ASSIGN_OR_RETURN(BigInt packed, paillier_.Decrypt(c));
  return UnpackSlots(layout_, packed);
}

}  // namespace pds::crypto
