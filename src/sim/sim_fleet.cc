#include "sim/sim_fleet.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/rng.h"
#include "crypto/cipher.h"

namespace pds::sim {

namespace {
/// Tokens configured to swallow every round request (dropout population).
constexpr uint32_t kDropForever = 1u << 20;
}  // namespace

SimFleet::SimFleet(const SimFleetConfig& config) : config_(config) {}

SimFleet::~SimFleet() {
  // Clients pump from link callbacks that capture `this`; drop them before
  // anything they reference.
  clients_.clear();
}

Status SimFleet::Build() {
  clock_ = std::make_unique<SimClock>();
  net_ = std::make_unique<SimNet>(clock_.get(), config_.link,
                                  config_.seed ^ 0x6c696e6bull);
  net_->set_log_events(config_.log_events);

  crypto::SymmetricKey key = crypto::KeyFromString("sim-fleet");
  mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = key;
  vcfg.rng_seed = 9000;
  verifier_ = std::make_unique<mcu::SecureToken>(vcfg);

  net::SsiServer::Config scfg;
  scfg.partition_capacity = config_.partition_capacity;
  scfg.deadline_ms = config_.deadline_ms;
  scfg.max_retries = config_.max_retries;
  scfg.backoff_ms = config_.backoff_ms;
  scfg.quorum = config_.quorum;
  scfg.executor = nullptr;  // the event loop is single-threaded by design
  scfg.verifier = verifier_.get();
  scfg.clock = clock_.get();
  scfg.lean_sessions = config_.lean_sessions;
  server_ = std::make_unique<net::SsiServer>(scfg);

  const size_t n = config_.num_tokens;
  tokens_.reserve(n);
  tuples_.reserve(n);
  clients_.reserve(n);
  client_ends_.reserve(n);

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
    clients_.push_back(nullptr);
    client_ends_.push_back(nullptr);
  }

  for (size_t i = 0; i < n; ++i) {
    PDS_RETURN_IF_ERROR(ConnectToken(i, /*readmit=*/false));
  }
  return Status::Ok();
}

Status SimFleet::ConnectToken(size_t i, bool readmit) {
  auto [server_end, client_end] = net_->CreatePair();
  SimTransport* client_raw = client_end.get();

  net::TokenClient::Config ccfg;
  ccfg.token = tokens_[i].get();
  ccfg.tuples = tuples_[i];
  ccfg.deadline_ms = config_.deadline_ms;
  ccfg.clock = clock_.get();
  if (!readmit && config_.dropout_every > 0 &&
      (i % config_.dropout_every) == 0) {
    ccfg.faults.seed = 7 + i;
    ccfg.faults.swallow_first = kDropForever;
    ++dropped_tokens_;
  }
  auto client =
      std::make_unique<net::TokenClient>(std::move(client_end), ccfg);
  PDS_RETURN_IF_ERROR(client->StartPumped());
  client_raw->set_on_frame([this, i] { PumpToken(i); });
  clients_[i] = std::move(client);
  client_ends_[i] = client_raw;

  Result<size_t> admitted =
      readmit ? server_->ReadmitSession(std::move(server_end))
              : server_->AcceptSession(std::move(server_end));
  if (!admitted.ok()) {
    return admitted.status();
  }
  return Status::Ok();
}

void SimFleet::PumpToken(size_t i) {
  net::TokenClient* client = clients_[i].get();
  if (client == nullptr) {
    return;
  }
  Result<bool> r = client->PumpOnce();
  if (!r.ok()) {
    ++pump_errors_;
  }
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
  for (size_t i = 0; i < clients_.size(); ++i) {
    if ((i % churn_every) != 0) {
      continue;
    }
    // Close drops the link's delivery hooks, so in-flight frames land in
    // dead inboxes instead of pumping a destroyed client.
    client_ends_[i]->Close();
    clients_[i].reset();
    client_ends_[i] = nullptr;
    PDS_RETURN_IF_ERROR(ConnectToken(i, /*readmit=*/true));
    ++churned_tokens_;
  }
  return Status::Ok();
}

SimFleet::MemoryStats SimFleet::Memory() const {
  MemoryStats m;
  const uint64_t n = config_.num_tokens;
  // Resident per-token structures: the token and client state machines,
  // the link (two endpoints + shared state + delivery callbacks), the
  // server session record, and the workload tuples (twice: fleet copy and
  // the client's export). Deque/string internals are approximated by their
  // header sizes — the point is the scaling law, not byte-perfect malloc
  // accounting; vm_hwm_kb is the ground truth.
  const uint64_t per_token =
      sizeof(mcu::SecureToken) + sizeof(net::TokenClient) +
      2 * sizeof(SimTransport) + 128 /* Link + callbacks */ +
      sizeof(net::SsiServer::Config) /* ~session record upper bound */ +
      2 * config_.tuples_per_token * (sizeof(global::SourceTuple) + 16);
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
