// Part III of the tutorial, global computation over a fleet of tokens
// (E6-E10), and the Perspectives instances (E11). Counters are exact for a
// given seed; timings are medians (see timing.h).

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "anon/metap.h"
#include "common/rng.h"
#include "crypto/paillier.h"
#include "global/agg_protocols.h"
#include "global/fleet_executor.h"
#include "global/integrity.h"
#include "global/toolkit.h"
#include "mcu/secure_token.h"
#include "net/scenario.h"
#include "sync/folder.h"
#include "sync/folkis.h"
#include "workloads/census.h"

#include "paper_bench.h"

namespace pds::bench {
namespace {

using global::AggFunc;
using global::Metrics;
using global::Participant;
using mcu::SecureToken;

/// A fleet of tokens sharing one key, and their participants.
struct Fleet {
  std::vector<std::unique_ptr<SecureToken>> tokens;
  std::vector<Participant> participants;
};

/// `size` tokens; participant i holds `tuples(i)`.
template <typename TuplesFn>
Fleet MakeFleet(const std::string& key, size_t size, TuplesFn tuples) {
  Fleet fleet;
  for (size_t i = 0; i < size; ++i) {
    SecureToken::Config cfg;
    cfg.token_id = i;
    cfg.fleet_key = crypto::KeyFromString(key);
    fleet.tokens.push_back(std::make_unique<SecureToken>(cfg));
    fleet.participants.push_back({fleet.tokens.back().get(), tuples(i)});
  }
  return fleet;
}

/// Runs `run(rng, metrics)` once on a fresh Rng(seed) for its counters,
/// then times it. Returns those counters and the median ns per run.
template <typename RunFn>
Result<std::pair<Metrics, double>> CountAndTime(const std::string& what,
                                                uint64_t seed, RunFn run) {
  Rng rng(seed);
  Metrics metrics;
  PDS_RETURN_IF_ERROR(run(&rng, &metrics));
  PDS_ASSIGN_OR_RETURN(double ns,
                       TimeOp(what, [&] { return run(&rng, nullptr).ok(); }));
  return std::make_pair(metrics, ns);
}

// ---- E6: the secure-computation cost ladder --------------------------------

Status RunE6(Records* out) {
  auto values = [](size_t n) {
    std::vector<uint64_t> v(n);
    Rng rng(71);
    for (uint64_t& x : v) {
      x = rng.Uniform(1000);
    }
    return v;
  };
  for (size_t n : {10, 100, 1000}) {
    const std::vector<uint64_t> v = values(n);
    uint64_t expected = 0;
    for (uint64_t x : v) {
      expected += x;
    }
    PDS_ASSIGN_OR_RETURN(double ns, TimeOp("plaintext sum", [&] {
                           uint64_t sum = 0;
                           for (uint64_t x : v) {
                             sum += x;
                           }
                           // Keeps the compiler from hoisting the sum out
                           // of the timed batch.
                           asm volatile("" : "+r"(sum) : : "memory");
                           return sum == expected;
                         }));
    out->push_back(
        Record("E6", "plaintext_sum").Num("n", n).Num("ns_per_sum", ns));
  }
  // The token rungs run over the wire: one fleet of n tokens, token i
  // holding the single tuple ("all", v[i]).
  auto ladder_rung = [&](global::AggregationProtocol* protocol,
                         const std::vector<uint64_t>& v,
                         const std::string& what)
      -> Result<std::pair<Metrics, double>> {
    Fleet fleet = MakeFleet("ladder", v.size(), [&](size_t i) {
      return std::vector<global::SourceTuple>{
          {"all", static_cast<double>(v[i])}};
    });
    PDS_ASSIGN_OR_RETURN(global::AggOutput run,
                         protocol->Execute(fleet.participants, AggFunc::kSum));
    PDS_ASSIGN_OR_RETURN(double ns, TimeOp(what, [&] {
                           return protocol
                               ->Execute(fleet.participants, AggFunc::kSum)
                               .ok();
                         }));
    return std::make_pair(run.metrics, ns);
  };
  for (size_t n : {10, 100, 1000}) {
    global::SecureAggProtocol protocol({/*partition_capacity=*/128});
    PDS_ASSIGN_OR_RETURN(
        auto run, ladder_rung(&protocol, values(n), "token secure-agg sum"));
    out->push_back(Record("E6", "token_secure_agg_sum")
                       .Num("n", n)
                       .Num("token_crypto_ops", run.first.token_crypto_ops)
                       .Num("bytes", run.first.bytes)
                       .Num("ns_per_sum", run.second));
  }
  // The packed-Paillier protocol end to end: the querier's keygen, one
  // packed encrypt per token, the SSI's fold, one decrypt-unpack.
  const std::pair<size_t, size_t> paillier_sums[] = {
      {10, 256}, {100, 256}, {10, 512}, {100, 512}, {10, 1024}};
  for (const auto& [n, bits] : paillier_sums) {
    global::PackedPaillierProtocol::Config cfg;
    cfg.domain = {"all"};
    cfg.max_slot_value = 1000;
    cfg.paillier_bits = bits;
    cfg.key_seed = 73;
    global::PackedPaillierProtocol protocol(std::move(cfg));
    PDS_ASSIGN_OR_RETURN(auto run,
                         ladder_rung(&protocol, values(n), "Paillier sum"));
    out->push_back(Record("E6", "paillier_sum")
                       .Num("n", n)
                       .Num("modulus_bits", bits)
                       .Num("token_crypto_ops", run.first.token_crypto_ops)
                       .Num("ns_per_sum", run.second));
  }
  // Single ops: one token encryption (AES-128-CTR + HMAC-SHA256 tag of 64
  // bytes) vs one Paillier encryption on each path.
  SecureToken::Config cfg;
  cfg.fleet_key = crypto::KeyFromString("micro");
  SecureToken token(cfg);
  const Bytes payload(64, 0x5A);
  PDS_ASSIGN_OR_RETURN(double aes_ns, TimeOp("AES encryption", [&] {
                         return token.EncryptNonDet(ByteView(payload)).ok();
                       }));
  out->push_back(Record("E6", "one_aes_encryption").Num("ns_per_op", aes_ns));
  for (size_t bits : {256, 512, 1024}) {
    Rng rng(77);
    PDS_ASSIGN_OR_RETURN(crypto::Paillier paillier,
                         crypto::Paillier::Generate(bits, &rng));
    PDS_ASSIGN_OR_RETURN(double kernel_ns, TimeOp("Paillier encrypt", [&] {
                           return paillier.EncryptU64(12345, &rng).ok();
                         }));
    PDS_ASSIGN_OR_RETURN(
        double schoolbook_ns, TimeOp("schoolbook Paillier encrypt", [&] {
          return paillier.EncryptScalar(crypto::BigInt(12345), &rng).ok();
        }));
    out->push_back(Record("E6", "one_paillier_encryption")
                       .Num("modulus_bits", bits)
                       .Num("kernel_ns_per_op", kernel_ns)
                       .Num("schoolbook_ns_per_op", schoolbook_ns));
  }
  return Status::Ok();
}

// ---- E7: the [CKV+02] toolkit primitives ------------------------------------

Status RunE7(Records* out) {
  for (size_t parties : {4, 32, 128, 512}) {
    std::vector<uint64_t> values(parties);
    Rng value_rng(3);
    for (uint64_t& v : values) {
      v = value_rng.Uniform(10000);
    }
    PDS_ASSIGN_OR_RETURN(
        auto run, CountAndTime("secure sum", 4, [&](Rng* rng, Metrics* m) {
          return global::SecureSum(values, 1ULL << 40, rng, m).status();
        }));
    out->push_back(Record("E7", "secure_sum")
                       .Num("parties", parties)
                       .Num("messages", run.first.messages)
                       .Num("bytes", run.first.bytes)
                       .Num("ns_per_run", run.second));
  }
  for (size_t parties : {2, 4, 8}) {
    // Eight items per site over a 64-item domain.
    std::vector<std::vector<std::string>> sets(parties);
    Rng set_rng(5);
    for (auto& set : sets) {
      for (int i = 0; i < 8; ++i) {
        set.push_back("item-" + std::to_string(set_rng.Uniform(64)));
      }
    }
    PDS_ASSIGN_OR_RETURN(
        auto run_union,
        CountAndTime("set union", 6, [&](Rng* rng, Metrics* m) {
          return global::SecureSetUnion(sets, 128, rng, m).status();
        }));
    out->push_back(Record("E7", "set_union")
                       .Num("parties", parties)
                       .Num("crypto_ops", run_union.first.token_crypto_ops)
                       .Num("bytes", run_union.first.bytes)
                       .Num("ns_per_run", run_union.second));
    PDS_ASSIGN_OR_RETURN(
        auto run_size,
        CountAndTime("intersection size", 7, [&](Rng* rng, Metrics* m) {
          return global::SecureIntersectionSize(sets, 128, rng, m).status();
        }));
    out->push_back(Record("E7", "intersection_size")
                       .Num("parties", parties)
                       .Num("crypto_ops", run_size.first.token_crypto_ops)
                       .Num("ns_per_run", run_size.second));
  }
  for (size_t dim : {8, 32, 128}) {
    std::vector<uint64_t> a(dim);
    std::vector<uint64_t> b(dim);
    Rng value_rng(8);
    for (size_t i = 0; i < dim; ++i) {
      a[i] = value_rng.Uniform(100);
      b[i] = value_rng.Uniform(100);
    }
    PDS_ASSIGN_OR_RETURN(
        auto run, CountAndTime("scalar product", 9, [&](Rng* rng, Metrics* m) {
          return global::SecureScalarProduct(a, b, 256, rng, m).status();
        }));
    out->push_back(Record("E7", "scalar_product")
                       .Num("dim", dim)
                       .Num("crypto_ops", run.first.token_crypto_ops)
                       .Num("ns_per_run", run.second));
  }
  return Status::Ok();
}

// ---- E8: the [TNP14] protocol family ---------------------------------------

/// "g<i>", built by append: `"g" + std::to_string(i)` trips GCC 12's
/// -Wrestrict false positive.
std::string GroupName(uint64_t i) {
  std::string name = "g";
  name += std::to_string(i);
  return name;
}

/// 100 tokens, each holding `tuples` tuples over `groups` groups.
Fleet AggFleet(size_t tuples, uint32_t groups) {
  Rng rng(31);
  return MakeFleet("agg-bench", 100, [&](size_t) {
    std::vector<global::SourceTuple> t;
    for (size_t i = 0; i < tuples; ++i) {
      t.push_back({GroupName(rng.Uniform(groups)),
                   static_cast<double>(rng.Uniform(100))});
    }
    return t;
  });
}

/// Runs `protocol` once and adds its cost, what the SSI saw, and whether
/// the groups equal the plaintext aggregate.
Status AddAggRun(global::AggregationProtocol* protocol, Fleet* fleet,
                 Record* rec) {
  PDS_ASSIGN_OR_RETURN(global::AggOutput run,
                       protocol->Execute(fleet->participants, AggFunc::kSum));
  rec->Num("token_ops", run.metrics.token_crypto_ops)
      .Num("frames", run.metrics.messages)
      .Num("bytes", run.metrics.bytes)
      .Num("rounds", run.metrics.rounds)
      .Num("ssi_classes", run.leakage.distinct_classes)
      .Num("max_class_pct", 100.0 * run.leakage.MaxClassFraction())
      .Num("entropy_bits", run.leakage.ClassEntropyBits())
      .Bool("exact", run.groups == global::PlainAggregate(fleet->participants,
                                                          AggFunc::kSum));
  return Status::Ok();
}

/// The four protocols at their E8 settings over 10 groups, each on
/// `executor` (nullptr runs serially).
std::vector<std::unique_ptr<global::AggregationProtocol>> Protocols(
    global::FleetExecutor* executor) {
  global::DomainNoiseProtocol::Config domain;
  for (int g = 0; g < 10; ++g) {
    domain.domain.push_back(GroupName(g));
  }
  domain.fakes_per_value = 1;
  domain.executor = executor;
  std::vector<std::unique_ptr<global::AggregationProtocol>> out;
  out.push_back(std::make_unique<global::SecureAggProtocol>(
      global::SecureAggProtocol::Config{256, executor}));
  out.push_back(std::make_unique<global::WhiteNoiseProtocol>(
      global::WhiteNoiseProtocol::Config{0.2, 5, executor}));
  out.push_back(std::make_unique<global::DomainNoiseProtocol>(domain));
  out.push_back(std::make_unique<global::HistogramProtocol>(
      global::HistogramProtocol::Config{4, executor}));
  return out;
}

Status RunE8(Records* out) {
  for (size_t tuples : {1, 10, 50}) {
    Fleet fleet = AggFleet(tuples, 10);
    for (auto& protocol : Protocols(nullptr)) {
      Record rec("E8", "protocol");
      rec.Str("protocol", std::string(protocol->name()))
          .Num("tuples_per_token", tuples);
      PDS_RETURN_IF_ERROR(AddAggRun(protocol.get(), &fleet, &rec));
      out->push_back(rec);
    }
  }
  // The knobs: white-noise ratio, histogram buckets, secure-agg groups.
  Fleet fleet = AggFleet(10, 10);
  for (int pct : {0, 20, 100, 300}) {
    global::WhiteNoiseProtocol protocol({pct / 100.0, 5});
    Record rec("E8", "white_noise_ratio");
    rec.Num("noise_ratio_pct", pct);
    PDS_RETURN_IF_ERROR(AddAggRun(&protocol, &fleet, &rec));
    out->push_back(rec);
  }
  Fleet fifty_groups = AggFleet(10, 50);
  for (uint32_t buckets : {1, 4, 16, 64}) {
    global::HistogramProtocol protocol({buckets});
    Record rec("E8", "histogram_buckets");
    rec.Num("buckets", buckets);
    PDS_RETURN_IF_ERROR(AddAggRun(&protocol, &fifty_groups, &rec));
    out->push_back(rec);
  }
  for (uint32_t groups : {2, 20, 200}) {
    Fleet grouped = AggFleet(10, groups);
    global::SecureAggProtocol protocol({256});
    Record rec("E8", "secure_agg_groups");
    rec.Num("num_groups", groups);
    PDS_RETURN_IF_ERROR(AddAggRun(&protocol, &grouped, &rec));
    out->push_back(rec);
  }
  // Fleet-executor thread sweep: the same round fanned out across the pool
  // must cost and return exactly the same; the timing shows what it saves.
  for (size_t threads : {1, 2, 4, 8}) {
    global::FleetExecutor executor(threads);
    for (auto& protocol : Protocols(threads > 1 ? &executor : nullptr)) {
      const std::string name(protocol->name());
      if (name == "domain-noise") {
        continue;
      }
      Record rec("E8", "threads");
      rec.Str("protocol", name).Num("threads", threads);
      PDS_RETURN_IF_ERROR(AddAggRun(protocol.get(), &fleet, &rec));
      PDS_ASSIGN_OR_RETURN(double ns, TimeOp(name + " round", [&] {
                             return protocol
                                 ->Execute(fleet.participants, AggFunc::kSum)
                                 .ok();
                           }));
      out->push_back(rec.Num("ns_per_run", ns));
    }
  }
  return Status::Ok();
}

// ---- E9: a weakly-malicious SSI against sealed batches ---------------------

Status RunE9(Records* out) {
  // Every sealed cell of the adversarial matrix, honest and tampered, on
  // the real SsiServer: 4 tokens x 4 tuples, one querier token.
  constexpr uint64_t kSeeds = 25;
  Rng tuple_rng(55);
  Fleet fleet = MakeFleet("integrity-bench", 4, [&](size_t) {
    std::vector<global::SourceTuple> t;
    for (int i = 0; i < 4; ++i) {
      t.push_back({"city-" + std::to_string(tuple_rng.Uniform(5)),
                   static_cast<double>(tuple_rng.Uniform(100))});
    }
    return t;
  });
  SecureToken::Config qcfg;
  qcfg.token_id = 9000;
  qcfg.fleet_key = crypto::KeyFromString("integrity-bench");
  SecureToken querier(qcfg);
  // Per tampering action: rounds run, rounds the audit caught.
  std::map<std::string, std::pair<uint64_t, uint64_t>> tampered;
  uint64_t honest = 0;
  uint64_t honest_passed = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (net::ScenarioSpec& spec : net::DefaultMatrix(seed, false)) {
      if (!spec.sealed_round) {
        continue;
      }
      spec.participants = fleet.participants;
      spec.verifier = &querier;
      PDS_ASSIGN_OR_RETURN(net::ScenarioResult cell,
                           net::RunScenarioCell(spec));
      if (cell.expects_detection) {
        auto& [rounds, caught] = tampered[cell.fault];
        ++rounds;
        caught += cell.detected ? 1 : 0;
      } else {
        ++honest;
        honest_passed +=
            cell.ran_ok && !cell.detected && cell.byte_identical ? 1 : 0;
      }
    }
  }
  for (const auto& [action, counts] : tampered) {
    out->push_back(Record("E9", "tampered")
                       .Str("action", action)
                       .Num("rounds", counts.first)
                       .Num("detected", counts.second));
  }
  out->push_back(Record("E9", "honest")
                     .Num("rounds", honest)
                     .Num("audit_passed", honest_passed));

  // What the defence costs the tokens: sealing and verifying per tuple.
  SecureToken& producer = *fleet.tokens.front();
  for (size_t n : {100, 1000}) {
    std::vector<Bytes> cts;
    for (size_t i = 0; i < n; ++i) {
      PDS_ASSIGN_OR_RETURN(Bytes ct, producer.EncryptNonDet(ByteView(
                                         std::string_view("payload"))));
      cts.push_back(std::move(ct));
    }
    PDS_ASSIGN_OR_RETURN(double seal_ns, TimeOp("seal", [&] {
                           return global::SealTuples(&producer, 1, cts).ok();
                         }));
    PDS_ASSIGN_OR_RETURN(auto batch, global::SealTuples(&producer, 1, cts));
    PDS_ASSIGN_OR_RETURN(global::Manifest manifest,
                         global::MakeManifest(&producer, 1, n));
    PDS_ASSIGN_OR_RETURN(double verify_ns, TimeOp("verify", [&] {
                           auto verdict = global::VerifyBatch(
                               &querier, batch, {manifest});
                           return verdict.ok() && verdict->ok;
                         }));
    out->push_back(Record("E9", "cost")
                       .Num("tuples", n)
                       .Num("seal_ns_per_tuple", seal_ns / n)
                       .Num("verify_ns_per_tuple", verify_ns / n));
  }
  return Status::Ok();
}

// ---- E10: MetaP, distributed k-anonymous publishing -------------------------

Status RunE10(Records* out) {
  std::map<uint64_t, std::vector<anon::Record>> census;
  for (uint64_t n : {1000, 5000, 20000}) {
    workloads::CensusConfig cfg;
    cfg.num_records = n;
    census[n] = workloads::GenerateCensus(cfg);
  }
  auto options = [](uint32_t k) {
    anon::KAnonymizer::Options opts;
    opts.k = k;
    opts.max_suppression_rate = 0.05;
    return opts;
  };
  const std::pair<uint64_t, uint32_t> centralized[] = {
      {1000, 2}, {1000, 5}, {1000, 20}, {1000, 50}, {5000, 5}, {20000, 5}};
  for (const auto& [n, k] : centralized) {
    anon::KAnonymizer anonymizer(workloads::CensusHierarchies(), options(k));
    PDS_ASSIGN_OR_RETURN(auto result, anonymizer.Anonymize(census[n]));
    out->push_back(Record("E10", "centralized")
                       .Num("records", n)
                       .Num("k", k)
                       .Num("info_loss", result.information_loss)
                       .Num("suppressed", result.suppressed)
                       .Num("classes", result.num_classes));
  }
  // The same records spread over 50 tokens.
  const std::pair<uint64_t, uint32_t> distributed[] = {
      {1000, 2}, {1000, 5}, {1000, 20}, {5000, 5}};
  for (const auto& [n, k] : distributed) {
    constexpr size_t kNodes = 50;
    std::vector<std::unique_ptr<SecureToken>> tokens;
    std::vector<anon::MetapParticipant> participants(kNodes);
    for (size_t i = 0; i < kNodes; ++i) {
      SecureToken::Config cfg;
      cfg.token_id = i;
      cfg.fleet_key = crypto::KeyFromString("metap");
      tokens.push_back(std::make_unique<SecureToken>(cfg));
      participants[i].token = tokens.back().get();
    }
    for (size_t i = 0; i < census[n].size(); ++i) {
      participants[i % kNodes].records.push_back(census[n][i]);
    }
    anon::MetapProtocol protocol(workloads::CensusHierarchies(), options(k));
    PDS_ASSIGN_OR_RETURN(anon::MetapOutput run, protocol.Publish(participants));
    out->push_back(Record("E10", "metap")
                       .Num("records", n)
                       .Num("k", k)
                       .Num("info_loss", run.result.information_loss)
                       .Num("token_ops", run.metrics.token_crypto_ops)
                       .Num("strategies_tried", run.strategies_tried)
                       .Num("ssi_classes_seen", run.leakage.distinct_classes));
  }
  return Status::Ok();
}

// ---- E11: badge-carried folder sync and the Folk-IS ferry network ----------

Status RunE11(Records* out) {
  auto token_config = [](uint64_t id) {
    SecureToken::Config cfg;
    cfg.token_id = id;
    cfg.fleet_key = crypto::KeyFromString("sync-bench");
    return cfg;
  };
  // Full sync of an n-entry folder into an empty replica.
  for (int n : {100, 1000, 10000}) {
    SecureToken home_token(token_config(1));
    SecureToken fresh_token(token_config(2));
    sync::PersonalFolder home(&home_token, 7);
    sync::PersonalFolder fresh(&fresh_token, 7);
    for (int i = 0; i < n; ++i) {
      PDS_RETURN_IF_ERROR(
          home.AddEntry("entry", "content-" + std::to_string(i)));
    }
    Metrics metrics;
    PDS_RETURN_IF_ERROR(
        sync::PersonalFolder::BadgeSync(&home, &fresh, &metrics));
    out->push_back(Record("E11", "badge_sync_full")
                       .Num("entries", n)
                       .Num("bytes_carried", metrics.bytes)
                       .Num("blobs", metrics.messages));
  }
  // Replicas already share n entries; only the delta moves.
  constexpr int kDelta = 10;
  for (int n : {100, 1000, 5000}) {
    SecureToken t1(token_config(1));
    SecureToken t2(token_config(2));
    sync::PersonalFolder a(&t1, 7);
    sync::PersonalFolder b(&t2, 7);
    for (int i = 0; i < n; ++i) {
      PDS_RETURN_IF_ERROR(a.AddEntry("base", "content-" + std::to_string(i)));
    }
    PDS_RETURN_IF_ERROR(sync::PersonalFolder::BadgeSync(&a, &b, nullptr));
    for (int i = 0; i < kDelta; ++i) {
      PDS_RETURN_IF_ERROR(a.AddEntry("new", "delta-" + std::to_string(i)));
    }
    Metrics metrics;
    PDS_RETURN_IF_ERROR(sync::PersonalFolder::BadgeSync(&a, &b, &metrics));
    out->push_back(Record("E11", "badge_sync_delta")
                       .Num("folder_size", n)
                       .Num("delta", kDelta)
                       .Num("bytes_carried", metrics.bytes)
                       .Num("blobs", metrics.messages));
  }
  // Push n entries to the archive and bootstrap a replica from it.
  for (int n : {100, 1000}) {
    SecureToken t1(token_config(1));
    SecureToken t2(token_config(2));
    sync::PersonalFolder home(&t1, 7);
    sync::PersonalFolder replica(&t2, 7);
    sync::ArchiveServer archive;
    for (int i = 0; i < n; ++i) {
      PDS_RETURN_IF_ERROR(home.AddEntry("e", "content-" + std::to_string(i)));
    }
    Metrics metrics;
    PDS_RETURN_IF_ERROR(home.PushTo(&archive, &metrics));
    PDS_RETURN_IF_ERROR(replica.PullFrom(archive, &metrics));
    out->push_back(Record("E11", "archive_round_trip")
                       .Num("entries", n)
                       .Num("bytes", metrics.bytes));
  }
  // Folk-IS over 32 villages: single custody vs epidemic replication.
  const std::pair<uint32_t, bool> networks[] = {
      {1, false}, {4, false}, {16, false}, {1, true},
      {4, true},  {16, true}, {32, true}};
  for (const auto& [ferries, epidemic] : networks) {
    sync::FerryNetwork::Config cfg;
    cfg.num_villages = 32;
    cfg.num_ferries = ferries;
    cfg.epidemic = epidemic;
    cfg.ferry_capacity = 128;
    cfg.seed = 5;
    sync::FerryNetwork net(cfg);
    Rng rng(9);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 50; ++i) {
      ids.push_back(net.Post(static_cast<uint32_t>(rng.Uniform(32)),
                             static_cast<uint32_t>(rng.Uniform(32)), 256));
    }
    net.RunUntilDelivered(5000000);
    double total_delay = 0;
    for (uint64_t id : ids) {
      total_delay += static_cast<double>(net.DeliveryDelay(id));
    }
    out->push_back(Record("E11", "folkis")
                       .Num("ferries", ferries)
                       .Bool("epidemic", epidemic)
                       .Num("mean_delay_steps", total_delay / ids.size())
                       .Num("ferry_steps", net.ferry_steps()));
  }
  return Status::Ok();
}

}  // namespace

Status RunPart3(Records* out) {
  PDS_RETURN_IF_ERROR(RunE6(out));
  PDS_RETURN_IF_ERROR(RunE7(out));
  PDS_RETURN_IF_ERROR(RunE8(out));
  PDS_RETURN_IF_ERROR(RunE9(out));
  PDS_RETURN_IF_ERROR(RunE10(out));
  return RunE11(out);
}

}  // namespace pds::bench
