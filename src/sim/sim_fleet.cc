#include "sim/sim_fleet.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/rng.h"
#include "crypto/cipher.h"
#include "net/fault_injection.h"

namespace pds::sim {

SimFleet::SimFleet(const SimFleetConfig& config) : config_(config) {}

SimFleet::~SimFleet() = default;

Status SimFleet::Build() {
  clock_ = std::make_unique<SimClock>();
  net_ = std::make_unique<SimNet>(clock_.get(), config_.link,
                                  config_.seed ^ 0x6c696e6bull);

  crypto::SymmetricKey key = crypto::KeyFromString("sim-fleet");
  mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = key;
  vcfg.rng_seed = 9000;
  verifier_ = std::make_unique<mcu::SecureToken>(vcfg);

  net::SsiServer::Config scfg;
  scfg.partition_capacity = 4096;
  scfg.deadline_ms = config_.deadline_ms;
  scfg.max_retries = config_.max_retries;
  scfg.quorum = config_.quorum;
  scfg.executor = nullptr;  // the event loop is single-threaded by design
  scfg.verifier = verifier_.get();
  scfg.clock = clock_.get();
  scfg.lean_sessions = true;  // per-session telemetry is a no-go at 10^6
  server_ = std::make_unique<net::SsiServer>(scfg);

  const size_t n = config_.num_tokens;
  tokens_.reserve(n);
  tuples_.reserve(n);
  sessions_.reserve(n);
  links_.assign(n, nullptr);

  Rng workload(config_.seed);
  for (size_t i = 0; i < n; ++i) {
    mcu::SecureToken::Config tcfg;
    tcfg.token_id = 100 + i;
    tcfg.fleet_key = key;
    tcfg.rng_seed = 100 + i;
    tokens_.push_back(std::make_unique<mcu::SecureToken>(tcfg));

    std::vector<global::SourceTuple> tuples;
    tuples.reserve(config_.tuples_per_token);
    for (size_t t = 0; t < config_.tuples_per_token; ++t) {
      global::SourceTuple st;
      st.group = "city-" + std::to_string(workload.Uniform(config_.num_groups));
      st.value = static_cast<double>(workload.Uniform(100));
      tuples.push_back(std::move(st));
    }
    total_tuples_ += tuples.size();
    tuples_.push_back(std::move(tuples));
  }

  for (size_t i = 0; i < n; ++i) {
    sessions_.emplace_back(tokens_[i].get(), &tuples_[i], /*packed=*/nullptr);
    dropped_tokens_ += IsDropout(i) ? 1 : 0;
    PDS_RETURN_IF_ERROR(ConnectToken(i, /*readmit=*/false));
  }
  return Status::Ok();
}

Status SimFleet::ConnectToken(size_t i, bool readmit) {
  std::unique_ptr<SimTransport> link = net_->ConnectSession(&sessions_[i]);
  links_[i] = link.get();
  std::unique_ptr<net::Transport> ssi_end = std::move(link);
  // The link's one fault plan follows from the fleet seed and the token
  // index, so a readmitted token gets the same link back. Frames are lost
  // on the SSI's end once the two-frame handshake is through: all of them
  // for a dropout, which then never sees a round request.
  net::FaultPlan plan;
  plan.seed = (config_.seed << 32) ^ i;
  plan.drop_rate = IsDropout(i) ? 1.0 : config_.loss_rate;
  plan.skip_first = 2;
  if (plan.has_faults()) {
    ssi_end = std::make_unique<net::FaultInjectingTransport>(
        std::move(ssi_end), plan, /*log=*/nullptr, clock_.get());
  }
  Result<size_t> admitted =
      readmit ? server_->ReadmitSession(std::move(ssi_end))
              : server_->AcceptSession(std::move(ssi_end));
  return admitted.status();
}

Result<global::AggOutput> SimFleet::RunSecureAggregation(
    global::AggFunc func) {
  return server_->RunSecureAggregation(func);
}

Status SimFleet::ChurnAndReadmit(size_t churn_every) {
  if (churn_every == 0) {
    return Status::InvalidArgument("churn_every must be positive");
  }
  churned_tokens_ = 0;
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if ((i % churn_every) != 0) {
      continue;
    }
    // Close detaches the old session, so in-flight frames are dropped
    // instead of reaching the fresh session that replaces it.
    links_[i]->Close();
    sessions_[i] =
        net::TokenSession(tokens_[i].get(), &tuples_[i], /*packed=*/nullptr);
    PDS_RETURN_IF_ERROR(ConnectToken(i, /*readmit=*/true));
    ++churned_tokens_;
  }
  return Status::Ok();
}

SimFleet::MemoryStats SimFleet::Memory() const {
  MemoryStats m;
  const uint64_t n = config_.num_tokens;
  // Resident per-token structures: the token and its session, the link
  // (the SSI's endpoint + shared state), the server's lean session record,
  // and the one copy of the workload tuples the session points at.
  // Container/string internals are approximated by their header sizes —
  // the point is the scaling law, not byte-perfect malloc accounting;
  // vm_hwm_kb is the ground truth.
  const uint64_t per_token =
      sizeof(mcu::SecureToken) + sizeof(net::TokenSession) +
      SimNet::LinkBytes() + net::SsiServer::LeanSessionBytes() +
      config_.tuples_per_token * (sizeof(global::SourceTuple) + 16);
  m.bytes_estimate = n * per_token;
  m.bytes_per_token = n > 0 ? m.bytes_estimate / n : 0;
#ifdef __linux__
  // Peak RSS from the kernel's accounting; covers everything the estimate
  // cannot see (allocator slack, codec scratch, the event queue).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        m.vm_hwm_kb = std::strtoull(line + 6, nullptr, 10);
        break;
      }
    }
    std::fclose(f);
  }
#endif
  return m;
}

}  // namespace pds::sim
