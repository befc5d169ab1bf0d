// Planted leak for a simulator event log (the pattern a frame-metadata
// ring must follow): a debugging aid copies a secret-annotated Paillier
// ciphertext (annotated because its bytes identify the participant's
// records) into a per-link event record kept for every delivered frame.
// Such a log outlives the frame and would be exported, so the record sink
// must only ever see sizes and kinds. ctest asserts the secret-flow rule
// catches the tainted RecordEvent call.
#include <cstdint>
#include <vector>

namespace pds::sim {

using Bytes = std::vector<uint8_t>;

struct EventRec {
  uint64_t t_ns = 0;
  uint32_t kind = 0;
  uint64_t bytes = 0;
  Bytes payload;  // the leak: records should never carry frame bytes
};

// pdslint: sink(RecordEvent)
void RecordEvent(std::vector<EventRec>* log, const EventRec& rec) {
  log->push_back(rec);  // growth, but not in a loop
}

// pdslint: secret(payload_ct)
void TraceDelivery(std::vector<EventRec>* log, uint64_t t_ns,
                   const Bytes& payload_ct) {
  EventRec rec;
  rec.t_ns = t_ns;
  rec.kind = 1;
  rec.bytes = payload_ct.size();
  rec.payload = payload_ct;
  RecordEvent(log, rec);  // FLAG: ciphertext rides into the event log
}

}  // namespace pds::sim
