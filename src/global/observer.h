#ifndef PDS_GLOBAL_OBSERVER_H_
#define PDS_GLOBAL_OBSERVER_H_

#include <map>

#include "common/bytes.h"
#include "global/common.h"

namespace pds::global {

/// The honest-but-curious SSI's notebook: it executes the protocol
/// faithfully but records everything it sees. Protocols feed it every
/// equality-class key the SSI could observe (a deterministic ciphertext, a
/// bucket id, a plaintext — or the whole distinct ciphertext for
/// non-deterministic encryption, under which every tuple is its own class).
class HbcObserver {
 public:
  /// `class_key` is whatever the SSI can use to test equality between two
  /// tuples; `plaintext_group` marks keys the SSI can read as cleartext.
  void ObserveTuple(ByteView class_key, bool plaintext_group = false);

  LeakageReport Report() const;

 private:
  std::map<std::string, uint64_t> classes_;
  uint64_t tuples_ = 0;
  bool plaintext_seen_ = false;
};

}  // namespace pds::global

#endif  // PDS_GLOBAL_OBSERVER_H_
