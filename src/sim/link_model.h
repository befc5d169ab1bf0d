#ifndef PDS_SIM_LINK_MODEL_H_
#define PDS_SIM_LINK_MODEL_H_

#include <cstdint>
#include <vector>

/// Parameters of the modeled token <-> SSI link. One LinkModel serves the
/// whole fleet; per-frame realizations (loss, jitter) are drawn from the
/// SimNet's single seeded RNG in a fixed order, so a seed pins the entire
/// fleet's link behaviour. Each direction of a link is a FIFO pipe: no
/// frame overtakes an earlier one, whatever its jitter.
namespace pds::sim {

/// A wall of silence: frames sent while `start_ns <= now < end_ns` are
/// lost (network partition). Delivery of frames already in flight is not
/// affected — partitions cut new transmissions, not physics.
struct PartitionWindow {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// The default, all zero, is an ideal link: every frame arrives instantly
/// and in order — the configuration under which a simulated run must be
/// byte-identical to an InProcessTransport run (the anchor property).
struct LinkModel {
  /// Fixed one-way latency added to every frame.
  uint64_t base_latency_us = 0;
  /// Uniform extra latency in [0, jitter_us] drawn per frame.
  uint64_t jitter_us = 0;
  /// Per-frame Bernoulli loss probability.
  double loss_rate = 0.0;
  /// Link serialization rate; 0 means infinite (no per-byte delay).
  uint64_t bandwidth_bytes_per_sec = 0;
  /// Outage windows in virtual time.
  std::vector<PartitionWindow> partitions;
};

}  // namespace pds::sim

#endif  // PDS_SIM_LINK_MODEL_H_
