// The real wire, end to end (tutorial Part III over pds::net).
//
// Six Personal Data Servers, each a full PdsNode with its own flash store
// and access-control policies, connect to one untrusted SSI over TCP
// loopback. Each node's token proves fleet membership in the handshake,
// policy-exports its authorized (city, amount) tuples, and answers the
// [TNP14] secure-aggregation rounds over framed binary messages. The SSI
// sees only ciphertext — and this demo prints exactly what it measured on
// the wire while computing "SELECT city, SUM(amount) GROUP BY city".
//
// After the query it demonstrates the live stats surface: a second TCP
// connection sends the kStats admin frame and prints the JSON snapshot the
// SSI serves back — per-session round-trip percentiles, retry/straggler
// accounting, the metrics registry, and the per-run delta-snapshot ring.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/codec.h"
#include "net/ssi_server.h"
#include "net/token_client.h"
#include "net/transport.h"
#include "pds/pds_node.h"

using pds::embdb::ColumnType;
using pds::embdb::Schema;
using pds::embdb::Tuple;
using pds::embdb::Value;
using pds::net::SocketTransport;
using pds::net::SsiServer;
using pds::net::TcpListener;
using pds::net::TokenClient;

int main() {
  // 1. Provision six PDSs holding electricity bills under owner policies.
  pds::crypto::SymmetricKey fleet_key =
      pds::crypto::KeyFromString("ssi-demo-fleet");
  const char* cities[] = {"lyon", "paris", "nice"};
  pds::Rng rng(7);
  std::vector<std::unique_ptr<pds::node::PdsNode>> nodes;
  for (uint64_t i = 0; i < 6; ++i) {
    pds::node::PdsNode::Config cfg;
    cfg.node_id = 1 + i;
    cfg.fleet_key = fleet_key;  // pdslint: declassify(demo plays the fleet owner provisioning its own tokens)
    cfg.rng_seed = 1 + i;
    auto node = std::make_unique<pds::node::PdsNode>(cfg);
    Schema bills("bills", {{"id", ColumnType::kUint64, ""},
                           {"city", ColumnType::kString, ""},
                           {"amount", ColumnType::kDouble, ""}});
    if (!node->DefineTable(bills).ok()) {
      std::fprintf(stderr, "DefineTable failed\n");
      return 1;
    }
    node->policies().AddRule(
        {"owner", pds::ac::Action::kInsert, "bills", {}, std::nullopt});
    // The stats agency may *share* city and amount — nothing else.
    node->policies().AddRule({"stats-agency", pds::ac::Action::kShare,
                              "bills", {"city", "amount"}, std::nullopt});
    pds::ac::Subject owner{"owner", "user-" + std::to_string(i)};
    for (int r = 0; r < 3; ++r) {
      Tuple t = {Value::U64(static_cast<uint64_t>(r)),
                 Value::Str(cities[rng.Uniform(3)]),
                 Value::F64(40.0 + static_cast<double>(rng.Uniform(120)))};
      if (!node->InsertAs(owner, "bills", t).ok()) {
        std::fprintf(stderr, "InsertAs failed\n");
        return 1;
      }
    }
    nodes.push_back(std::move(node));
  }

  // 2. The SSI listens on TCP loopback. It holds no fleet key itself; a
  //    fleet-provisioned verifier token checks membership proofs for it.
  pds::mcu::SecureToken::Config vcfg;
  vcfg.token_id = 9000;
  vcfg.fleet_key = fleet_key;  // pdslint: declassify(fleet owner provisions the SSI's verifier token at setup)
  pds::mcu::SecureToken verifier(vcfg);
  SsiServer::Config scfg;
  scfg.partition_capacity = 8;
  scfg.verifier = &verifier;
  SsiServer server(scfg);
  TcpListener listener;
  if (!listener.Listen(0).ok()) {
    std::fprintf(stderr, "Listen failed\n");
    return 1;
  }
  std::printf("SSI listening on 127.0.0.1:%u\n", listener.port());

  // 3. Each PDS dials in, proves membership, and policy-exports its rows.
  std::vector<std::unique_ptr<TokenClient>> clients;
  for (auto& node : nodes) {
    auto conn = SocketTransport::ConnectTcp("127.0.0.1", listener.port(),
                                            2000);
    if (!conn.ok()) {
      std::fprintf(stderr, "ConnectTcp: %s\n",
                   conn.status().ToString().c_str());
      return 1;
    }
    auto accepted = listener.Accept(2000);
    if (!accepted.ok()) {
      std::fprintf(stderr, "Accept: %s\n",
                   accepted.status().ToString().c_str());
      return 1;
    }
    TokenClient::Config ccfg;
    ccfg.pds_node = node.get();
    ccfg.subject = {"stats-agency", "insee"};
    ccfg.table = "bills";
    ccfg.group_column = "city";
    ccfg.value_column = "amount";
    auto client = std::make_unique<TokenClient>(std::move(*conn),
                                                std::move(ccfg));
    client->Start();
    auto session = server.AcceptSession(std::move(*accepted));
    if (!session.ok()) {
      std::fprintf(stderr, "AcceptSession: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    clients.push_back(std::move(client));
  }
  listener.Close();

  // 4. Run the secure aggregation over the real wire.
  auto output = server.RunSecureAggregation(pds::global::AggFunc::kSum);
  server.Shutdown();
  uint64_t client_frames = 0;
  for (auto& c : clients) {
    c->Stop();
    if (!c->Join().ok()) {
      std::fprintf(stderr, "client exited uncleanly\n");
      return 1;
    }
    client_frames += c->transport().frames_sent() +
                     c->transport().frames_received();
  }
  if (!output.ok()) {
    std::fprintf(stderr, "RunSecureAggregation: %s\n",
                 output.status().ToString().c_str());
    return 1;
  }

  std::printf("\nSELECT city, SUM(amount) GROUP BY city:\n");
  for (const auto& [city, sum] : output->groups) {
    std::printf("  %-8s %.2f\n", city.c_str(), sum);
  }
  const auto& m = output->metrics;
  const auto& report = server.last_report();
  std::printf("\nmeasured on the wire (frame headers included):\n");
  std::printf("  rounds               %llu\n",
              static_cast<unsigned long long>(m.rounds));
  std::printf("  bytes token->SSI     %llu\n",
              static_cast<unsigned long long>(m.bytes_token_to_ssi));
  std::printf("  bytes SSI->token     %llu\n",
              static_cast<unsigned long long>(m.bytes_ssi_to_token));
  std::printf("  frames (client side) %llu\n",
              static_cast<unsigned long long>(client_frames));
  std::printf("  responders           %zu/%zu, %llu retries, %llu timeouts\n",
              report.responders, report.sessions,
              static_cast<unsigned long long>(report.retries),
              static_cast<unsigned long long>(report.deadline_hits));
  std::printf("\nwhat the SSI learned: %s\n",
              output->leakage.plaintext_groups_visible
                  ? "plaintext groups (should never happen here!)"
                  : "ciphertext only — groups decrypted inside tokens");

  // 5. The live stats surface: per-session tail latencies straight from the
  //    server, then the same document over the wire via the kStats admin
  //    frame on a fresh TCP connection (read-only, no attestation needed).
  std::printf("\nper-session round-trip latency (microseconds):\n");
  std::printf("  %-8s %6s %9s %9s %9s %9s\n", "token", "rts", "p50", "p90",
              "p99", "p999");
  for (const auto& t : server.Telemetry()) {
    std::printf("  %-8llu %6llu %9.1f %9.1f %9.1f %9.1f\n",
                static_cast<unsigned long long>(t.token_id),
                static_cast<unsigned long long>(t.round_trips), t.rtt_p50_us,
                t.rtt_p90_us, t.rtt_p99_us, t.rtt_p999_us);
  }

  TcpListener stats_listener;
  if (!stats_listener.Listen(0).ok()) {
    std::fprintf(stderr, "stats Listen failed\n");
    return 1;
  }
  auto admin = SocketTransport::ConnectTcp("127.0.0.1",
                                           stats_listener.port(), 2000);
  auto stats_end = stats_listener.Accept(2000);
  if (!admin.ok() || !stats_end.ok()) {
    std::fprintf(stderr, "stats connection failed\n");
    return 1;
  }
  // The request is buffered by the kernel, so one thread suffices: send,
  // let the server answer, read the reply.
  const pds::Bytes stats_request =
      pds::net::EncodeMessage({pds::net::StatsRequestMsg{}});
  if (!(*admin)->Send(stats_request).ok()) {
    std::fprintf(stderr, "stats request failed\n");
    return 1;
  }
  if (!server.ServeStats(stats_end->get()).ok()) {
    std::fprintf(stderr, "ServeStats failed\n");
    return 1;
  }
  auto stats_frame = (*admin)->Recv(2000);
  if (!stats_frame.ok()) {
    std::fprintf(stderr, "stats reply failed\n");
    return 1;
  }
  auto stats = pds::net::DecodeAs<pds::net::StatsReplyMsg>(*stats_frame);
  if (!stats.ok()) {
    std::fprintf(stderr, "stats decode failed\n");
    return 1;
  }
  std::printf(
      "\nkStats reply over the wire: %zu bytes of JSON "
      "(sessions + fleet percentiles + registry + snapshot ring)\n",
      stats->json.size());
  // Print just the fleet summary line so the demo stays readable; the full
  // document is what a dashboard would poll.
  size_t fleet_at = stats->json.find("\"fleet\"");
  if (fleet_at != std::string::npos) {
    size_t end = stats->json.find('}', fleet_at);
    std::printf("  %s\n",
                stats->json.substr(fleet_at, end - fleet_at + 1).c_str());
  }
  return 0;
}
