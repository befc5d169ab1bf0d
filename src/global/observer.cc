#include "global/observer.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace pds::global {

void HbcObserver::ObserveTuple(ByteView class_key, bool plaintext_group) {
  const crypto::Sha256::Digest d = crypto::Sha256::Hash(class_key);
  digests_.push_back({GetU64(d.data()), GetU64(d.data() + 8)});
  plaintext_seen_ |= plaintext_group;
}

LeakageReport HbcObserver::Report() const {
  std::vector<Digest> sorted = digests_;
  std::sort(sorted.begin(), sorted.end());
  LeakageReport report;
  report.tuples_observed = sorted.size();
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i + 1;
    while (j < sorted.size() && sorted[j] == sorted[i]) {
      ++j;
    }
    report.class_sizes.push_back(j - i);
    i = j;
  }
  std::sort(report.class_sizes.begin(), report.class_sizes.end());
  report.distinct_classes = report.class_sizes.size();
  report.plaintext_groups_visible = plaintext_seen_;
  return report;
}

}  // namespace pds::global
