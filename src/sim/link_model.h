#ifndef PDS_SIM_LINK_MODEL_H_
#define PDS_SIM_LINK_MODEL_H_

#include <cstdint>

/// Parameters of the modeled token <-> SSI link. One LinkModel serves the
/// whole fleet; per-frame jitter is drawn from the SimNet's single seeded
/// RNG in send order, so a seed pins the entire fleet's link timing. Each
/// direction of a link is a FIFO pipe: no frame overtakes an earlier one,
/// whatever its jitter. The model carries frames and time only: a lost
/// frame is a FaultInjectingTransport drop on the SSI's end of the link,
/// as on every other transport.
namespace pds::sim {

/// The default, all zero, is an ideal link: every frame arrives instantly
/// and in order — the configuration under which a simulated run must be
/// byte-identical to an InProcessTransport run (the anchor property).
struct LinkModel {
  /// Fixed one-way latency added to every frame.
  uint64_t base_latency_us = 0;
  /// Uniform extra latency in [0, jitter_us] drawn per frame.
  uint64_t jitter_us = 0;
  /// Link serialization rate; 0 means infinite (no per-byte delay).
  uint64_t bandwidth_bytes_per_sec = 0;
};

}  // namespace pds::sim

#endif  // PDS_SIM_LINK_MODEL_H_
