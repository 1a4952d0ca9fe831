// Seeded byte mutations for the fuzz properties of the durability text
// formats (WAL payloads, commit sets, snapshot manifests): each trial
// applies one to four random edits to a valid serialization and hands the
// result to a check.

#ifndef DWQA_TESTS_DW_TEXT_MUTATION_H_
#define DWQA_TESTS_DW_TEXT_MUTATION_H_

#include <string>

#include "common/rng.h"

namespace dwqa {
namespace dw {

/// One random edit of `text` — overwrite, insert or erase a byte drawn
/// from the characters the line/tab framing and the escapes care about.
inline void Mutate(Rng* rng, std::string* text) {
  const char kChars[] = "\t\n\r\\01239-|nqx";
  const char c = kChars[rng->NextIndex(sizeof(kChars) - 1)];
  if (text->empty()) {
    text->push_back(c);
    return;
  }
  const size_t pos = rng->NextIndex(text->size());
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

/// Runs 2000 mutations of `base` (1–4 edits each) through `check`.
template <typename Check>
void FuzzMutations(const std::string& base, uint64_t seed, Check check) {
  Rng rng(seed);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    const size_t edits = 1 + rng.NextBelow(4);
    for (size_t e = 0; e < edits; ++e) Mutate(&rng, &mutated);
    check(mutated);
  }
}

}  // namespace dw
}  // namespace dwqa

#endif  // DWQA_TESTS_DW_TEXT_MUTATION_H_
