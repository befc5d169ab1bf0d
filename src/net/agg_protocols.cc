// The in-process [TNP14] protocols declared in global/agg_protocols.h, run
// through the one implementation there is: every participant is admitted
// to a net::SsiServer over a DirectTokenLink, and Execute calls the
// matching SsiServer::Run*. This file only checks inputs and wires the
// fleet; it is built into pds_net so that pds_global never links pds_net.

#include "global/agg_protocols.h"

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/rng.h"
#include "crypto/paillier.h"
#include "net/codec.h"
#include "net/direct_link.h"
#include "net/ssi_server.h"

namespace pds::global {

namespace {

using net::SsiServer;

/// The SSI an in-process run talks to: the caller's executor, quorum 1.0
/// (an in-process run needs every token), no retries (a direct link loses
/// nothing), lean sessions, and participant 0's token as the membership
/// verifier.
SsiServer::Config ServerConfig(const std::vector<Participant>& participants,
                               FleetExecutor* executor) {
  SsiServer::Config cfg;
  cfg.executor = executor;
  cfg.quorum = 1.0;
  cfg.max_retries = 0;
  cfg.lean_sessions = true;
  cfg.verifier = participants.front().token;
  return cfg;
}

/// Admits every participant over its own DirectTokenLink, in participant
/// order (session i is participant i).
Status Admit(SsiServer* server, std::vector<Participant>& participants,
             const crypto::PackedAggregate* packed = nullptr) {
  for (Participant& p : participants) {
    PDS_RETURN_IF_ERROR(server
                            ->AcceptSession(std::make_unique<net::DirectTokenLink>(
                                p.token, &p.tuples, packed))
                            .status());
  }
  return Status::Ok();
}

Status CheckGroupsInDomain(const std::vector<Participant>& participants,
                           const std::vector<std::string>& domain) {
  const std::set<std::string> values(domain.begin(), domain.end());
  for (const Participant& p : participants) {
    for (const SourceTuple& t : p.tuples) {
      if (values.count(t.group) == 0) {
        return Status::InvalidArgument("group '" + t.group +
                                       "' outside the announced domain");
      }
    }
  }
  return Status::Ok();
}

/// Runs a deterministic-encryption protocol after the check each token
/// makes on its send list, so a config no token would accept fails here.
Result<AggOutput> RunDet(std::vector<Participant>& participants, AggFunc func,
                         FleetExecutor* executor,
                         const SsiServer::DetRunConfig& det) {
  if (participants.empty()) {
    return Status::InvalidArgument("no participants");
  }
  for (const Participant& p : participants) {
    PDS_RETURN_IF_ERROR(
        net::DetSendListSize(det.params(), p.tuples.size(), det.domain.size())
            .status());
  }
  SsiServer server(ServerConfig(participants, executor));
  PDS_RETURN_IF_ERROR(Admit(&server, participants));
  return server.RunDetAggregation(func, det);
}

}  // namespace

Result<AggOutput> SecureAggProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (participants.empty()) {
    return Status::InvalidArgument("no participants");
  }
  if (config_.partition_capacity == 0) {
    return Status::InvalidArgument("partition capacity must be >= 1");
  }
  SsiServer::Config cfg = ServerConfig(participants, config_.executor);
  cfg.partition_capacity = config_.partition_capacity;
  SsiServer server(cfg);
  PDS_RETURN_IF_ERROR(Admit(&server, participants));
  return server.RunSecureAggregation(func);
}

Result<AggOutput> WhiteNoiseProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  SsiServer::DetRunConfig det;
  det.variant = net::DetVariant::kWhiteNoise;
  det.noise_ratio = config_.noise_ratio;
  det.noise_seed = config_.noise_seed;
  return RunDet(participants, func, config_.executor, det);
}

Result<AggOutput> DomainNoiseProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (config_.domain.empty()) {
    return Status::InvalidArgument("domain noise requires the value domain");
  }
  PDS_RETURN_IF_ERROR(CheckGroupsInDomain(participants, config_.domain));
  SsiServer::DetRunConfig det;
  det.variant = net::DetVariant::kDomainNoise;
  det.noise_seed = config_.noise_seed;
  det.fakes_per_value = config_.fakes_per_value;
  det.domain = config_.domain;
  return RunDet(participants, func, config_.executor, det);
}

Result<AggOutput> HistogramProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (config_.num_buckets == 0) {
    return Status::InvalidArgument("need >= 1 bucket");
  }
  SsiServer::DetRunConfig det;
  det.variant = net::DetVariant::kHistogram;
  det.num_buckets = config_.num_buckets;
  return RunDet(participants, func, config_.executor, det);
}

Result<AggOutput> PackedPaillierProtocol::Execute(
    std::vector<Participant>& participants, AggFunc func) {
  if (participants.empty()) {
    return Status::InvalidArgument("no participants");
  }
  if (config_.domain.empty()) {
    return Status::InvalidArgument("packed protocol requires the value domain");
  }
  PDS_RETURN_IF_ERROR(CheckGroupsInDomain(participants, config_.domain));
  // Each participant's per-group sum and tuple count must fit a slot.
  for (const Participant& p : participants) {
    std::map<std::string, std::pair<uint64_t, uint64_t>> sum_and_count;
    for (const SourceTuple& t : p.tuples) {
      if (t.value < 0 ||
          t.value != static_cast<double>(static_cast<uint64_t>(t.value))) {
        return Status::InvalidArgument(
            "packed protocol requires non-negative integer values");
      }
      auto& [sum, count] = sum_and_count[t.group];
      sum += static_cast<uint64_t>(t.value);
      count += 1;
      if (sum > config_.max_slot_value || count > config_.max_slot_value) {
        return Status::InvalidArgument(
            "participant contribution exceeds max_slot_value");
      }
    }
  }

  // The querier's keypair; tokens only see the public packing context.
  Rng key_rng(config_.key_seed);
  PDS_ASSIGN_OR_RETURN(
      crypto::Paillier paillier,
      crypto::Paillier::Generate(config_.paillier_bits, &key_rng));
  PDS_ASSIGN_OR_RETURN(
      crypto::PackedAggregate agg,
      crypto::PackedAggregate::Create(paillier, participants.size(),
                                      config_.max_slot_value,
                                      2 * config_.domain.size()));
  PDS_RETURN_IF_ERROR(agg.CheckAddBudget(participants.size()));
  SsiServer server(ServerConfig(participants, config_.executor));
  PDS_RETURN_IF_ERROR(Admit(&server, participants, &agg));
  return server.RunPackedAggregation(func, agg, config_.domain);
}

}  // namespace pds::global
