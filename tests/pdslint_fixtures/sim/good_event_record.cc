// pdslint fixture: the sim-module event-record discipline, done right.
// A per-link log in the simulator records *metadata about* frames — sizes,
// kinds, virtual timestamps — never the frame bytes themselves, and its
// append path reserves up front (the sim module is under the tiny-RAM
// rule: a million token endpoints share one process). Must stay silent.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pds::sim {

struct EventRec {
  uint64_t t_ns = 0;
  uint32_t kind = 0;
  uint64_t bytes = 0;
};

// pdslint: sink(RecordEvent)
void RecordEvent(std::vector<EventRec>* log, uint64_t t_ns, uint32_t kind,
                 uint64_t bytes) {
  EventRec rec;
  rec.t_ns = t_ns;
  rec.kind = kind;
  rec.bytes = bytes;
  log->push_back(rec);  // growth, but not in a loop
}

void ReplayDeliveries(const std::vector<uint64_t>& frame_sizes,
                      std::vector<EventRec>* log) {
  log->reserve(log->size() + frame_sizes.size());  // bounded up-front
  uint64_t now_ns = 0;
  for (uint64_t size : frame_sizes) {
    now_ns += 1000;
    RecordEvent(log, now_ns, 1, size);  // sizes and kinds only, no payload
  }
}

}  // namespace pds::sim
