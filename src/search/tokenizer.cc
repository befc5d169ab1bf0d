#include "search/tokenizer.h"

#include <algorithm>

namespace pds::search {

namespace {

// The "C" locale's classes, without <cctype>'s per-byte locale lookup.
char Lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

bool IsLowerAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
}

/// Lowers `text` once into `*lowered`, then calls `emit` with a view into
/// it of every maximal alphanumeric run, in text order.
template <typename Emit>
void SplitLowered(std::string_view text, std::string* lowered, Emit&& emit) {
  lowered->resize(text.size());
  std::transform(text.begin(), text.end(), lowered->begin(), Lower);
  const char* p = lowered->data();
  const char* end = p + lowered->size();
  while (p < end) {
    while (p < end && !IsLowerAlnum(*p)) {
      ++p;
    }
    const char* start = p;
    while (p < end && IsLowerAlnum(*p)) {
      ++p;
    }
    if (p > start) {
      emit(std::string_view(start, static_cast<size_t>(p - start)));
    }
  }
}

}  // namespace

// Both entry points hold buffers bounded by the caller-supplied text, which
// the embedded pipeline stages one flash page at a time.
std::vector<std::string> Tokenize(std::string_view text) {
  std::string lowered;
  std::vector<std::string> tokens;
  SplitLowered(text, &lowered,
               [&tokens](std::string_view t) { tokens.emplace_back(t); });
  return tokens;
}

TermCounts TermFrequencies(std::string_view text) {
  std::string lowered;
  std::vector<std::string_view> terms;
  SplitLowered(text, &lowered,
               [&terms](std::string_view t) { terms.push_back(t); });
  std::sort(terms.begin(), terms.end());
  TermCounts counts;
  counts.reserve(terms.size());
  for (size_t i = 0; i < terms.size();) {
    size_t run = i + 1;
    while (run < terms.size() && terms[run] == terms[i]) {
      ++run;
    }
    counts.push_back(
        TermCount{std::string(terms[i]), static_cast<uint32_t>(run - i)});
    i = run;
  }
  return counts;
}

}  // namespace pds::search
