#ifndef PDS_SEARCH_TOKENIZER_H_
#define PDS_SEARCH_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pds::search {

/// One distinct term of a document and how often it occurs there.
struct TermCount {
  std::string term;
  uint32_t count = 0;

  bool operator==(const TermCount&) const = default;
};

/// A document's term frequencies, strictly ascending by term (bytewise).
using TermCounts = std::vector<TermCount>;

/// Splits text into lowercase alphanumeric tokens: maximal runs of the
/// "C" locale's alphanumeric bytes ([0-9A-Za-z]), lowered.
std::vector<std::string> Tokenize(std::string_view text);

/// Tokenizes and counts term frequencies.
TermCounts TermFrequencies(std::string_view text);

}  // namespace pds::search

#endif  // PDS_SEARCH_TOKENIZER_H_
