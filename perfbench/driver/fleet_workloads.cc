// The two fleet workloads: a [TNP14] GROUP-BY answered by a fleet of
// tokens through an untrusted SSI.
//
//  - fleet_secure_agg: SsiServer::RunSecureAggregation over sim::SimFleet,
//    i.e. the real SsiServer, TokenClient and SecureToken over SimTransport
//    links on one thread. Codec, SSI session logic, token-side AES/HMAC and
//    the event queue do the work; Paillier does none.
//  - fleet_packed_paillier: global::PackedPaillierProtocol::Execute on a
//    FleetExecutor. Keygen, packed encryption, the SSI fold and the
//    querier's decrypt-unpack do the work; the wire does none.
//
// Every round's answer is compared to global::PlainAggregate.

#include <malloc.h>

#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "global/agg_protocols.h"
#include "global/common.h"
#include "global/fleet_executor.h"
#include "net/codec.h"
#include "obs/obs.h"
#include "sim/sim_fleet.h"

namespace pdsbench {

namespace {

using pds::Status;
using pds::global::AggFunc;
using pds::global::AggOutput;

/// Compares a protocol's answer with the plaintext reference.
bool SameGroups(const std::map<std::string, double>& got,
                const std::map<std::string, double>& want,
                const char* workload) {
  bool same = got.size() == want.size();
  for (const auto& [group, value] : want) {
    auto it = got.find(group);
    if (it == got.end() ||
        std::abs(it->second - value) > 1e-9 * std::max(1.0, std::abs(value))) {
      same = false;
    }
  }
  if (!same) {
    std::cerr << "pdsbench: " << workload
              << ": GROUP-BY answer differs from PlainAggregate\n";
  }
  return same;
}

uint64_t CounterValue(const char* name) {
  return pds::obs::Registry::Global().GetCounter(name, "ops")->Value();
}

uint64_t SymOps() {
  return CounterValue("token.encryptions") +
         CounterValue("token.decryptions") + CounterValue("token.macs");
}

// ---------------------------------------------------------------------------

class FleetSecureAgg : public Workload {
 public:
  explicit FleetSecureAgg(const Options& opts) {
    cfg_.num_tokens = 20000;
    cfg_.tuples_per_token = 4;
    cfg_.num_groups = 50;
    cfg_.seed = opts.seed;
    // The tuples SimFleet::Build draws from the seed, drawn the same way
    // here: the reference answer every round is checked against.
    pds::Rng workload(cfg_.seed);
    std::vector<pds::global::Participant> plain(1);
    for (size_t i = 0; i < cfg_.num_tokens * cfg_.tuples_per_token; ++i) {
      pds::global::SourceTuple t;
      t.group = "city-" + std::to_string(workload.Uniform(cfg_.num_groups));
      t.value = static_cast<double>(workload.Uniform(100));
      plain[0].tuples.push_back(std::move(t));
    }
    expected_ = pds::global::PlainAggregate(plain, AggFunc::kSum);
  }

  const char* op_name() const override { return "secure-agg group-by round"; }

  Status Setup() override {
    fleet_.reset();
    malloc_trim(0);  // hand the old fleet back, so VmRSS growth is this one
    const uint64_t rss_before = ProcStatus("VmRSS");
    fleet_ = std::make_unique<pds::sim::SimFleet>(cfg_);
    PDS_RETURN_IF_ERROR(fleet_->Build());
    const uint64_t rss_after = ProcStatus("VmRSS");
    rss_bytes_per_token_ =
        rss_after > rss_before
            ? static_cast<double>(rss_after - rss_before) * 1024.0 /
                  static_cast<double>(cfg_.num_tokens)
            : 0.0;
    return Status::Ok();
  }

  Status Op(bool count) override {
    const auto net_before = fleet_->net().stats();
    const uint64_t events_before = fleet_->clock().events_run();
    const uint64_t sym_before = SymOps();
    out_ = fleet_->RunSecureAggregation(AggFunc::kSum);
    if (!out_.ok()) {
      return out_.status();
    }
    if (count) {
      const auto& net = fleet_->net().stats();
      const auto& report = fleet_->server().last_report();
      ++counted_ops_;
      frames_ += net.frames_delivered - net_before.frames_delivered;
      bytes_ += net.bytes_delivered - net_before.bytes_delivered;
      events_ += fleet_->clock().events_run() - events_before;
      sym_ops_ += SymOps() - sym_before;
      retries_ += report.retries;
      deadline_hits_ += report.deadline_hits;
      frame_rejects_ += report.frame_rejects;
      rounds_ = out_->metrics.rounds;
    }
    return Status::Ok();
  }

  bool CheckLastOp() override {
    if (fleet_->pump_errors() != 0) {
      std::cerr << "pdsbench: fleet_secure_agg: token pump errors\n";
      return false;
    }
    return SameGroups(out_->groups, expected_, "fleet_secure_agg");
  }

  Status LayerMetrics(const TraceSummary& trace, MetricSet* m) override {
    if (counted_ops_ == 0 || frames_ == 0) {
      return Status::Internal("no counted round");
    }
    const double ops = static_cast<double>(counted_ops_);
    const double tuples = static_cast<double>(fleet_->total_tuples()) * ops;
    m->Set("net.frames_per_tuple", static_cast<double>(frames_) / tuples,
           "count");
    m->Set("net.bytes_per_frame",
           static_cast<double>(bytes_) / static_cast<double>(frames_), "B");
    m->Set("net.wire_bytes_per_tuple", static_cast<double>(bytes_) / tuples,
           "B");
    m->Set("net.retries", static_cast<double>(retries_) / ops, "count");
    m->Set("net.deadline_hits", static_cast<double>(deadline_hits_) / ops,
           "count");
    m->Set("net.frame_rejects", static_cast<double>(frame_rejects_) / ops,
           "count");
    // SSI-side spans versus the token handlers ("net.round.<kind>").
    const double handler_ms = trace.PerOpPrefix(trace.self_ms, "net.round.");
    m->Set("net.token_handler_ms", handler_ms, "ms");
    m->Set("net.ssi_self_ms",
           trace.PerOpPrefix(trace.self_ms, "net.") - handler_ms, "ms");
    m->Set("mcu.sym_ops_per_tuple", static_cast<double>(sym_ops_) / tuples,
           "count");
    m->Set("mcu.ram_high_water_bytes",
           pds::obs::Registry::Global()
               .GetGauge("token.ram_high_water_bytes", "bytes")
               ->max(),
           "B");
    m->Set("sim.events_per_round", static_cast<double>(events_) / ops,
           "count");
    m->Set("sim.rss_bytes_per_token", rss_bytes_per_token_, "B");
    m->Set("sim.estimate_bytes_per_token",
           static_cast<double>(fleet_->Memory().bytes_per_token), "B");
    m->Set("global.rounds", static_cast<double>(rounds_), "count");
    return TimedCalls(m);
  }

 private:
  /// Codec and token crypto timed at the workload's message kinds and
  /// payload sizes: a collect request and a collect reply carrying one
  /// token's four encrypted tuples.
  Status TimedCalls(MetricSet* m) {
    pds::mcu::SecureToken::Config tcfg;
    tcfg.token_id = 1;
    tcfg.fleet_key = pds::crypto::KeyFromString("sim-fleet");
    pds::mcu::SecureToken token(tcfg);
    const pds::Bytes payload =
        pds::global::EncodeAggPayload(false, 42, 1, "city-17");
    PDS_ASSIGN_OR_RETURN(pds::Bytes ct, token.EncryptNonDet(payload));

    pds::net::RoundRequestMsg request;
    request.header.round_id = 7;
    pds::net::TupleBatchMsg reply;
    reply.round_id = 7;
    reply.token_ops = cfg_.tuples_per_token;
    reply.batch.assign(cfg_.tuples_per_token, ct);
    const pds::net::Message frames[] = {{request, {}, false},
                                        {reply, {}, false}};
    const double codec_ns = TimeCallNs(
        [&] {
          for (const auto& msg : frames) {
            auto decoded =
                pds::net::DecodeMessage(pds::net::EncodeMessage(msg));
            if (!decoded.ok() || !(*decoded == msg)) {
              return false;
            }
          }
          return true;
        },
        200);
    const double enc_ns = TimeCallNs(
        [&] { return token.EncryptNonDet(payload).ok(); }, 100);
    const double dec_ns =
        TimeCallNs([&] { return token.DecryptNonDet(ct).ok(); }, 100);
    if (codec_ns < 0 || enc_ns < 0 || dec_ns < 0) {
      return Status::Internal("a timed codec or token call failed");
    }
    m->Set("net.codec_ns_per_frame", codec_ns / 2, "ns");
    m->Set("mcu.encrypt_nondet_us", enc_ns / 1e3, "us");
    m->Set("mcu.decrypt_nondet_us", dec_ns / 1e3, "us");
    return Status::Ok();
  }

  pds::sim::SimFleetConfig cfg_;
  std::map<std::string, double> expected_;
  std::unique_ptr<pds::sim::SimFleet> fleet_;
  pds::Result<AggOutput> out_;
  double rss_bytes_per_token_ = 0;
  uint64_t counted_ops_ = 0;
  uint64_t frames_ = 0;
  uint64_t bytes_ = 0;
  uint64_t events_ = 0;
  uint64_t sym_ops_ = 0;
  uint64_t retries_ = 0;
  uint64_t deadline_hits_ = 0;
  uint64_t frame_rejects_ = 0;
  uint64_t rounds_ = 0;
};

// ---------------------------------------------------------------------------

class FleetPackedPaillier : public Workload {
 public:
  explicit FleetPackedPaillier(const Options& opts)
      : seed_(opts.seed),
        threads_(opts.threads),
        key_rng_(kKeyCycle + 1) {  // keys outside the rounds' cycle
    for (size_t g = 0; g < kDomain; ++g) {
      domain_.push_back("g" + std::to_string(g));
    }
  }

  const char* op_name() const override { return "packed-paillier group-by round"; }

  Status Setup() override {
    participants_.clear();
    tokens_.clear();
    executor_.reset();
    const auto fleet_key = pds::crypto::KeyFromString("packed-fleet");
    pds::Rng workload(seed_);
    for (size_t i = 0; i < kTokens; ++i) {
      pds::mcu::SecureToken::Config tcfg;
      tcfg.token_id = 100 + i;
      tcfg.fleet_key = fleet_key;
      tcfg.rng_seed = seed_ * 131 + i;
      tokens_.push_back(std::make_unique<pds::mcu::SecureToken>(tcfg));
      pds::global::Participant p;
      p.token = tokens_.back().get();
      for (size_t t = 0; t < kTuplesPerToken; ++t) {
        pds::global::SourceTuple st;
        st.group = domain_[workload.Uniform(kDomain)];
        // Four values below 64 keep every per-group sum under the slot cap.
        st.value = static_cast<double>(workload.Uniform(64));
        p.tuples.push_back(std::move(st));
      }
      participants_.push_back(std::move(p));
    }
    if (threads_ > 1) {
      executor_ = std::make_unique<pds::global::FleetExecutor>(threads_);
    }
    expected_ = pds::global::PlainAggregate(participants_, AggFunc::kSum);
    return Status::Ok();
  }

  Status Op(bool count) override {
    pds::global::PackedPaillierProtocol::Config cfg;
    cfg.domain = domain_;
    cfg.max_slot_value = 255;
    cfg.paillier_bits = kKeyBits;
    // A fresh querier key per round. Keygen time depends on how far the
    // prime search runs, so every run cycles through the same key seeds:
    // the workload seed varies the data, not the keygen luck.
    cfg.key_seed = 1 + (rounds_run_++ % kKeyCycle);
    cfg.executor = executor_.get();
    pds::global::PackedPaillierProtocol protocol(cfg);
    out_ = protocol.Execute(participants_, AggFunc::kSum);
    if (!out_.ok()) {
      return out_.status();
    }
    if (count) {
      ++counted_ops_;
      asym_ops_ += out_->metrics.token_crypto_ops;
      rounds_ = out_->metrics.rounds;
    }
    return Status::Ok();
  }

  bool CheckLastOp() override {
    return SameGroups(out_->groups, expected_, "fleet_packed_paillier");
  }

  Status LayerMetrics(const TraceSummary& trace, MetricSet* m) override {
    if (counted_ops_ == 0) {
      return Status::Internal("no counted round");
    }
    m->Set("crypto.asym_ops_per_round",
           static_cast<double>(asym_ops_) / static_cast<double>(counted_ops_),
           "count");
    m->Set("global.rounds", static_cast<double>(rounds_), "count");
    m->Set("global.encrypt_phase_ms",
           trace.PerOp(trace.total_ms, "packed-encrypt"), "ms");
    m->Set("global.ssi_fold_ms", trace.PerOp(trace.total_ms, "ssi-fold"),
           "ms");
    const double parallel_ms = trace.PerOp(trace.total_ms, "fleet.parallel_for");
    m->Set("global.executor_efficiency",
           parallel_ms > 0 ? trace.PerOp(trace.worker_ms, "fleet.unit") /
                                 (static_cast<double>(threads_) * parallel_ms)
                           : 0.0,
           "ratio");

    // The asymmetric primitives, timed one by one at the workload's sizes.
    std::vector<double> keygen_ms;
    pds::Result<pds::crypto::Paillier> key;
    for (int i = 0; i < 3; ++i) {
      const double t0 = NowMs();
      key = pds::crypto::Paillier::Generate(kKeyBits, &key_rng_);
      keygen_ms.push_back(NowMs() - t0);
      if (!key.ok()) {
        return key.status();
      }
    }
    m->Set("crypto.keygen_ms", Median(keygen_ms), "ms");
    PDS_ASSIGN_OR_RETURN(
        pds::crypto::PackedAggregate agg,
        pds::crypto::PackedAggregate::Create(*key, kTokens, 255, 2 * kDomain));
    const std::vector<uint64_t> counters(2 * kDomain, 3);
    PDS_ASSIGN_OR_RETURN(pds::crypto::BigInt ct,
                         tokens_[0]->EncryptPacked(agg, counters));
    pds::crypto::BigInt acc = ct;
    const double enc_ns = TimeCallNs(
        [&] { return tokens_[0]->EncryptPacked(agg, counters).ok(); }, 200);
    const double fold_ns = TimeCallNs(
        [&] {
          acc = agg.Add(acc, ct);
          return true;
        },
        50);
    const double dec_ns =
        TimeCallNs([&] { return agg.DecryptUnpack(ct).ok(); }, 200);
    if (enc_ns < 0 || dec_ns < 0) {
      return Status::Internal("a timed Paillier call failed");
    }
    m->Set("crypto.encrypt_packed_us", enc_ns / 1e3, "us");
    m->Set("crypto.fold_us", fold_ns / 1e3, "us");
    m->Set("crypto.decrypt_unpack_ms", dec_ns / 1e6, "ms");
    return Status::Ok();
  }

 private:
  static constexpr size_t kTokens = 1024;
  static constexpr size_t kTuplesPerToken = 4;
  static constexpr size_t kDomain = 8;
  static constexpr size_t kKeyBits = 1024;
  static constexpr uint64_t kKeyCycle = 16;

  uint64_t seed_;
  size_t threads_;
  pds::Rng key_rng_;
  std::vector<std::string> domain_;
  std::vector<std::unique_ptr<pds::mcu::SecureToken>> tokens_;
  std::vector<pds::global::Participant> participants_;
  std::unique_ptr<pds::global::FleetExecutor> executor_;
  std::map<std::string, double> expected_;
  pds::Result<AggOutput> out_;
  uint64_t rounds_run_ = 0;
  uint64_t counted_ops_ = 0;
  uint64_t asym_ops_ = 0;
  uint64_t rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetSecureAgg(const Options& opts) {
  return std::make_unique<FleetSecureAgg>(opts);
}

std::unique_ptr<Workload> MakeFleetPackedPaillier(const Options& opts) {
  return std::make_unique<FleetPackedPaillier>(opts);
}

}  // namespace pdsbench
