#include "text/chunker.h"

#include <algorithm>

#include "text/entities.h"

namespace dwqa {
namespace text {

namespace {

bool IsVerbTag(const std::string& tag) {
  return tag == "VB" || tag == "VBZ" || tag == "VBP" || tag == "VBD" ||
         tag == "VBN" || tag == "VBG" || tag == "MD" || tag == "TO" ||
         tag == "VBZBE" || tag == "VBPBE" || tag == "VBDBE" ||
         tag == "VBBE" || tag == "VBNBE" || tag == "VBGBE";
}

bool IsNpTag(const std::string& tag) {
  return tag == "DT" || tag == "JJ" || tag == "JJR" || tag == "JJS" ||
         tag == "CD" || tag == "OD" || tag == "NN" || tag == "NNS" ||
         tag == "NP" || tag == "PRP" || tag == "PRP$";
}

bool IsNounTag(const std::string& tag) {
  return tag == "NN" || tag == "NNS" || tag == "NP" || tag == "CD" ||
         tag == "OD" || tag == "PRP";
}

bool IsPrepTag(const std::string& tag) { return tag == "IN" || tag == "OF"; }

const char* TypeName(SyntacticBlock::Type t) {
  switch (t) {
    case SyntacticBlock::Type::kNP:
      return "NP";
    case SyntacticBlock::Type::kPP:
      return "PP";
    case SyntacticBlock::Type::kVBC:
      return "VBC";
  }
  return "?";
}

std::string NpSubtype(const TokenSequence& toks, size_t b, size_t e) {
  bool all_numeral = true;
  bool has_proper = false;
  for (size_t i = b; i < e; ++i) {
    const std::string& tag = toks[i].tag;
    if (tag != "CD" && tag != "OD") all_numeral = false;
    if (tag == "NP" && !EntityRecognizer::IsMonthName(toks[i].lower) &&
        !EntityRecognizer::IsWeekdayName(toks[i].lower)) {
      has_proper = true;
    }
  }
  if (all_numeral && e > b) return "numeral";
  if (has_proper) return "properNoun";
  return "comun";
}

}  // namespace

std::string SyntacticBlock::Text() const {
  std::string out = TokensToText(tokens, 0, tokens.size());
  for (const auto& child : children) {
    std::string ct = child.Text();
    if (!ct.empty()) {
      if (!out.empty()) out += ' ';
      out += ct;
    }
  }
  return out;
}

std::string SyntacticBlock::HeadLemma() const {
  if (type == Type::kPP) {
    // Head of a PP is the head of its last NP child.
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      std::string h = it->HeadLemma();
      if (!h.empty()) return h;
    }
  }
  for (auto it = tokens.rbegin(); it != tokens.rend(); ++it) {
    if (IsNounTag(it->tag)) return it->lemma;
  }
  if (!children.empty()) return children.back().HeadLemma();
  if (!tokens.empty()) return tokens.back().lemma;
  return "";
}

std::vector<std::string> SyntacticBlock::Lemmas() const {
  std::vector<std::string> out;
  for (const Token& t : tokens) out.push_back(t.lemma);
  for (const auto& child : children) {
    auto sub = child.Lemmas();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::string SyntacticBlock::Annotated() const {
  std::string header = TypeName(type);
  if (type == Type::kNP) {
    header += "," + role + "," + subtype + ",,";
  }
  std::string out = "<@" + header + ">";
  for (const Token& t : tokens) {
    out += ' ';
    out += t.Annotated();
  }
  for (const auto& child : children) {
    out += ' ';
    out += child.Annotated();
  }
  out += " <@/" + header + ">";
  return out;
}

std::vector<SyntacticBlock> Chunker::Chunk(const TokenSequence& toks) {
  std::vector<SyntacticBlock> blocks;
  // Date spans become atomic NP(date) blocks; index by start token.
  std::vector<DateMention> dates = EntityRecognizer::FindDates(toks);
  auto date_at = [&](size_t i) -> const DateMention* {
    for (const auto& d : dates) {
      if (d.begin == i) return &d;
    }
    return nullptr;
  };

  bool seen_vbc = false;
  bool prev_was_vbc = false;

  size_t i = 0;
  // Parses one NP starting at i (possibly a day-wrapped date NP); returns
  // the block and advances i past it. Returns false if no NP starts here.
  auto parse_np = [&](SyntacticBlock* out) -> bool {
    // Weekday followed by (comma +) date: NP(day) wrapping NP(date).
    if (i < toks.size() && EntityRecognizer::IsWeekdayName(toks[i].lower)) {
      size_t j = i + 1;
      if (j < toks.size() && toks[j].text == ",") ++j;
      const DateMention* d = date_at(j);
      if (d != nullptr) {
        SyntacticBlock day;
        day.type = SyntacticBlock::Type::kNP;
        day.subtype = "day";
        for (size_t k = i; k < j; ++k) day.tokens.push_back(toks[k]);
        SyntacticBlock inner;
        inner.type = SyntacticBlock::Type::kNP;
        inner.subtype = "date";
        for (size_t k = d->begin; k < d->end; ++k)
          inner.tokens.push_back(toks[k]);
        day.children.push_back(std::move(inner));
        *out = std::move(day);
        i = d->end;
        return true;
      }
      // Bare weekday: a day NP by itself.
      SyntacticBlock day;
      day.type = SyntacticBlock::Type::kNP;
      day.subtype = "day";
      day.tokens.push_back(toks[i]);
      *out = std::move(day);
      ++i;
      return true;
    }
    if (const DateMention* d = date_at(i)) {
      SyntacticBlock np;
      np.type = SyntacticBlock::Type::kNP;
      np.subtype = "date";
      for (size_t k = d->begin; k < d->end; ++k) np.tokens.push_back(toks[k]);
      *out = std::move(np);
      i = d->end;
      return true;
    }
    if (i < toks.size() && IsNpTag(toks[i].tag)) {
      size_t j = i;
      bool has_noun = false;
      while (j < toks.size() && IsNpTag(toks[j].tag) &&
             date_at(j) == nullptr) {
        if (IsNounTag(toks[j].tag)) has_noun = true;
        ++j;
      }
      if (!has_noun) return false;
      SyntacticBlock np;
      np.type = SyntacticBlock::Type::kNP;
      np.subtype = NpSubtype(toks, i, j);
      for (size_t k = i; k < j; ++k) np.tokens.push_back(toks[k]);
      *out = std::move(np);
      i = j;
      return true;
    }
    return false;
  };

  while (i < toks.size()) {
    const Token& t = toks[i];
    if (IsVerbTag(t.tag) && t.tag != "TO") {
      SyntacticBlock vbc;
      vbc.type = SyntacticBlock::Type::kVBC;
      while (i < toks.size() && IsVerbTag(toks[i].tag)) {
        vbc.tokens.push_back(toks[i]);
        ++i;
      }
      blocks.push_back(std::move(vbc));
      seen_vbc = true;
      prev_was_vbc = true;
      continue;
    }
    if (IsPrepTag(t.tag)) {
      // PP = preposition + NP (possibly followed by a nested "of"-PP).
      size_t save = i;
      SyntacticBlock pp;
      pp.type = SyntacticBlock::Type::kPP;
      pp.tokens.push_back(toks[i]);
      ++i;
      SyntacticBlock np;
      if (parse_np(&np)) {
        pp.children.push_back(std::move(np));
        // Nested "of 2004"-style PP attaches to this PP.
        while (i < toks.size() && toks[i].tag == "OF") {
          size_t save2 = i;
          SyntacticBlock inner_pp;
          inner_pp.type = SyntacticBlock::Type::kPP;
          inner_pp.tokens.push_back(toks[i]);
          ++i;
          SyntacticBlock inner_np;
          if (parse_np(&inner_np)) {
            inner_pp.children.push_back(std::move(inner_np));
            pp.children.push_back(std::move(inner_pp));
          } else {
            i = save2;
            break;
          }
        }
        blocks.push_back(std::move(pp));
        prev_was_vbc = false;
        continue;
      }
      i = save + 1;  // Dangling preposition: skip it.
      continue;
    }
    SyntacticBlock np;
    if (parse_np(&np)) {
      if (!seen_vbc) {
        np.role = "subject";
      } else if (prev_was_vbc) {
        np.role = "compl";
      }
      blocks.push_back(std::move(np));
      prev_was_vbc = false;
      continue;
    }
    // Token outside any block (wh-word, punctuation, adverb...).
    ++i;
    if (t.tag != "," && t.tag != ":" && t.tag != "SENT") prev_was_vbc = false;
  }
  return blocks;
}

std::string Chunker::AnnotateSentence(const TokenSequence& toks) {
  // Re-chunk and interleave out-of-block tokens by walking the token list.
  std::vector<SyntacticBlock> blocks = Chunk(toks);
  // Collect the token offsets covered by blocks (depth-first).
  std::vector<std::pair<size_t, const SyntacticBlock*>> starts;
  // Match blocks to offsets by scanning: blocks are in order and their first
  // token's begin offset identifies them.
  std::string out;
  size_t bi = 0;
  size_t i = 0;
  auto block_first_offset = [](const SyntacticBlock& b) -> size_t {
    const SyntacticBlock* cur = &b;
    while (cur->tokens.empty() && !cur->children.empty())
      cur = &cur->children.front();
    return cur->tokens.empty() ? 0 : cur->tokens.front().begin;
  };
  auto block_token_count = [](const SyntacticBlock& b) {
    size_t n = 0;
    auto rec = [&](const SyntacticBlock& blk, auto&& self) -> void {
      n += blk.tokens.size();
      for (const auto& c : blk.children) self(c, self);
    };
    rec(b, rec);
    return n;
  };
  while (i < toks.size()) {
    if (bi < blocks.size() &&
        toks[i].begin == block_first_offset(blocks[bi])) {
      if (!out.empty()) out += ' ';
      out += blocks[bi].Annotated();
      i += block_token_count(blocks[bi]);
      ++bi;
    } else {
      if (!out.empty()) out += ' ';
      out += toks[i].Annotated();
      ++i;
    }
  }
  return out;
}

}  // namespace text
}  // namespace dwqa
