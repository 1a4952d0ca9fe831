// Seeded byte mutations for the fuzz properties of the durability text
// formats (WAL payloads and segments, commit sets, snapshot manifests):
// each trial applies one to four random edits to a valid serialization and
// hands the result to a check.

#ifndef DWQA_TESTS_DW_TEXT_MUTATION_H_
#define DWQA_TESTS_DW_TEXT_MUTATION_H_

#include <algorithm>
#include <string>

#include "common/rng.h"

namespace dwqa {
namespace dw {

/// One random edit of `text` — overwrite, insert or erase a byte drawn
/// from the characters the line/tab framing and the escapes care about —
/// at or after position `begin`.
inline void Mutate(Rng* rng, std::string* text, size_t begin = 0) {
  const char kChars[] = "\t\n\r\\01239-|nqx";
  const char c = kChars[rng->NextIndex(sizeof(kChars) - 1)];
  begin = std::min(begin, text->size());
  if (begin == text->size()) {
    text->push_back(c);
    return;
  }
  const size_t pos = begin + rng->NextIndex(text->size() - begin);
  switch (rng->NextBelow(3)) {
    case 0:
      (*text)[pos] = c;
      break;
    case 1:
      text->insert(pos, 1, c);
      break;
    default:
      text->erase(pos, 1);
      break;
  }
}

/// Runs 2000 mutations of `base` (1–4 edits each, none before `begin`)
/// through `check`.
template <typename Check>
void FuzzMutations(const std::string& base, uint64_t seed, Check check,
                   size_t begin = 0) {
  Rng rng(seed);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    const size_t edits = 1 + rng.NextBelow(4);
    for (size_t e = 0; e < edits; ++e) Mutate(&rng, &mutated, begin);
    check(mutated);
  }
}

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_TESTS_DW_TEXT_MUTATION_H_
