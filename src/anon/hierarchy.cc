#include "anon/hierarchy.h"

#include <algorithm>
#include <cstdlib>

namespace pds::anon {

std::string NumericHierarchy::Generalize(const std::string& value,
                                         uint32_t level) const {
  level = std::min(level, max_level());
  if (level == 0) {
    return value;
  }
  if (level > levels_) {
    return "*";
  }
  int64_t v = std::strtoll(value.c_str(), nullptr, 10);
  int64_t width = base_width_ << (level - 1);
  int64_t lo = (v / width) * width;
  if (v < 0 && v % width != 0) {
    lo -= width;
  }
  std::string label = "[";
  label.append(std::to_string(lo));
  label.push_back('-');
  label.append(std::to_string(lo + width - 1));
  label.push_back(']');
  return label;
}

std::string PrefixHierarchy::Generalize(const std::string& value,
                                        uint32_t level) const {
  level = std::min(level, max_level());
  if (level == 0) {
    return value;
  }
  std::string out = value;
  size_t stars = std::min<size_t>(level, out.size());
  for (size_t i = 0; i < stars; ++i) {
    out[out.size() - 1 - i] = '*';
  }
  return out;
}

}  // namespace pds::anon
