#include "qa/answer_extractor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/string_util.h"
#include "text/entities.h"
#include "text/pos_tagger.h"
#include "text/tokenizer.h"

namespace dwqa {
namespace qa {

using text::DateMention;
using text::DateSpan;
using text::EntityRecognizer;
using text::TokenSequence;

namespace {

/// Default temperature plausibility bounds (overridden by Step-4 axioms on
/// the "temperature" concept when present): records on Earth span roughly
/// -90..60 ºC.
constexpr double kDefaultMinCelsius = -90.0;
constexpr double kDefaultMaxCelsius = 60.0;

double FahrenheitToCelsius(double f) { return (f - 32.0) * 5.0 / 9.0; }

/// Sets the slot bit of every SB lemma among `lemma_ids` in `mask`.
void MarkSbLemmas(const std::vector<TermId>& sb_lemma_ids,
                  const std::vector<TermId>& lemma_ids, uint64_t* mask) {
  if (sb_lemma_ids.empty()) return;
  const TermId lo = sb_lemma_ids.front();
  const TermId hi = sb_lemma_ids.back();
  for (TermId id : lemma_ids) {
    if (id < lo || id > hi) continue;
    auto it = std::lower_bound(sb_lemma_ids.begin(), sb_lemma_ids.end(), id);
    if (*it != id) continue;
    size_t slot = static_cast<size_t>(it - sb_lemma_ids.begin());
    mask[slot / 64] |= uint64_t{1} << (slot % 64);
  }
}

/// Sum over the SBs of the fraction of each SB's content lemmas whose slot
/// is set in `mask`.
double SbCoverage(const PreparedQuestion& pq, const uint64_t* mask) {
  double cov = 0.0;
  for (const PreparedQuestion::Sb& sb : pq.sbs) {
    if (sb.total == 0) continue;
    size_t hit = 0;
    for (uint32_t slot : sb.slots) hit += (mask[slot / 64] >> (slot % 64)) & 1;
    cov += static_cast<double>(hit) / static_cast<double>(sb.total);
  }
  return cov;
}

/// `lower` is the lowercased mention.
bool MentionEqualsAnyQuestionTerm(const std::string& lower,
                                  const PreparedQuestion& pq) {
  for (const std::string& sb : pq.sbs_lower) {
    // Substring containment: "Kennedy International" is part of the
    // question term "Kennedy International Airport" and no answer.
    if (sb.find(lower) != std::string::npos) return true;
  }
  if (!pq.location_lower.empty() &&
      pq.location_lower.find(lower) != std::string::npos) {
    return true;
  }
  // The ontology-resolved city is a retrieval expansion; for place-type
  // questions it may be the *answer* ("In which city is El Prat?"), so it
  // is only excluded for the other types.
  return !IsPlace(pq.question->answer_type) &&
         pq.resolved_city_lower == lower;
}

/// True when `d` is compatible with the question's (possibly partial) date
/// constraint.
bool DateCompatible(const DateSpan& d, const QuestionAnalysis& q) {
  if (!q.date_constraint.has_value()) return true;
  const DateMention& c = *q.date_constraint;
  if (c.has_year && d.has_year && c.date.year() != d.date.year()) {
    return false;
  }
  if (c.has_month && d.has_month && c.date.month() != d.date.month()) {
    return false;
  }
  if (c.has_day && d.has_day && c.date.day() != d.date.day()) return false;
  return true;
}

}  // namespace

PreparedQuestion AnswerExtractor::Prepare(const QuestionAnalysis& q,
                                          const TermDictionary& dict) const {
  PreparedQuestion pq;
  pq.question = &q;

  // Tag each main SB and resolve its content lemmas to TermIds; `slots`
  // holds the ids themselves until the distinct ids are known.
  text::PosTagger tagger;
  for (const std::string& sb : q.main_sbs) {
    text::TokenSequence toks = text::Tokenizer::Tokenize(sb);
    tagger.Tag(&toks);
    PreparedQuestion::Sb resolved;
    for (const text::Token& t : toks) {
      if (t.tag == "DT" || t.tag == "IN" || t.tag == "OF" || t.tag == ",") {
        continue;
      }
      ++resolved.total;
      TermId id = dict.Find(t.lemma);
      if (id != kInvalidTermId) resolved.slots.push_back(id);
    }
    pq.sb_lemma_ids.insert(pq.sb_lemma_ids.end(), resolved.slots.begin(),
                           resolved.slots.end());
    pq.sbs.push_back(std::move(resolved));
    pq.sbs_lower.push_back(ToLower(sb));
  }
  std::vector<TermId>& ids = pq.sb_lemma_ids;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (PreparedQuestion::Sb& sb : pq.sbs) {
    for (uint32_t& slot : sb.slots) {
      slot = static_cast<uint32_t>(
          std::lower_bound(ids.begin(), ids.end(), slot) - ids.begin());
    }
  }

  // Step-4 plausibility bounds: the axioms on "temperature" override the
  // defaults.
  pq.min_celsius = kDefaultMinCelsius;
  pq.max_celsius = kDefaultMaxCelsius;
  if (auto concept_id = onto_->FindClass("temperature"); concept_id.ok()) {
    if (auto v = onto_->GetAxiom(*concept_id, "min_celsius"); v.ok()) {
      pq.min_celsius = std::atof(v->c_str());
    }
    if (auto v = onto_->GetAxiom(*concept_id, "max_celsius"); v.ok()) {
      pq.max_celsius = std::atof(v->c_str());
    }
  }

  if (auto city = onto_->FindClass("city"); city.ok()) pq.city = *city;
  std::string type_lemma = TypeConceptLemma(q.answer_type);
  pq.type_open = type_lemma.empty();
  if (!pq.type_open) {
    if (auto target = onto_->FindClass(type_lemma); target.ok()) {
      pq.type_concept = *target;
    }
  }
  pq.location_lower = ToLower(q.location);
  pq.resolved_city_lower = ToLower(q.resolved_city);
  return pq;
}

bool AnswerExtractor::SatisfiesTypeConcept(const PreparedQuestion& pq,
                                           const std::string& mention) const {
  if (pq.type_open) return true;
  if (!pq.type_concept.has_value()) return false;
  for (ontology::ConceptId id : onto_->Find(mention)) {
    if (onto_->IsA(id, *pq.type_concept)) return true;
  }
  return false;
}

void AnswerExtractor::ExtractAnalyzed(const PreparedQuestion& pq,
                                      const text::SentenceView& sentences,
                                      size_t passage, ir::DocId doc,
                                      std::vector<AnswerCandidate>* out) const {
  const QuestionAnalysis& q = *pq.question;

  // Sentence analyses (tokens + per-sentence date, temperature and
  // proper-noun mentions) come precomputed, so a candidate in sentence i
  // can borrow the most recent date from i-1, i-2... — the layout of the
  // Figure 4 weather pages (date line, then data line). SB coverage reads
  // one bit mask of SB lemma slots per sentence, scanned from its
  // lemma_ids; the passage mask (the last one) is their OR.
  const size_t words = (pq.sb_lemma_ids.size() + 63) / 64;
  std::vector<uint64_t> masks((sentences.size() + 1) * words);
  uint64_t* passage_mask = masks.data() + sentences.size() * words;
  for (size_t si = 0; si < sentences.size(); ++si) {
    uint64_t* mask = masks.data() + si * words;
    MarkSbLemmas(pq.sb_lemma_ids, sentences[si].lemma_ids, mask);
    for (size_t w = 0; w < words; ++w) passage_mask[w] |= mask[w];
  }
  const double passage_cov = SbCoverage(pq, passage_mask);

  auto nearest_date = [&](size_t sent_idx,
                          size_t tok_idx) -> const DateSpan* {
    // Prefer a date in the same sentence (closest before the token, else
    // after); otherwise the latest date in a preceding sentence.
    const DateSpan* best = nullptr;
    for (const DateSpan& d : sentences.dates(sent_idx)) {
      if (best == nullptr ||
          (d.begin <= tok_idx &&
           (best->begin > tok_idx || d.begin >= best->begin))) {
        best = &d;
      }
    }
    if (best != nullptr) return best;
    for (size_t i = sent_idx; i-- > 0;) {
      if (!sentences.dates(i).empty()) return &sentences.dates(i).back();
    }
    return nullptr;
  };

  // The city a sentence names: its first proper noun with a city sense.
  // Resolved lazily, at most once per sentence of the passage.
  std::string city_key;  // A proper noun's lowercased text, reused.
  std::vector<std::optional<const std::string*>> sentence_city(
      sentences.size());
  auto city_in = [&](size_t i) -> const std::string* {
    if (!pq.city.has_value()) return nullptr;
    if (sentence_city[i].has_value()) return *sentence_city[i];
    sentence_city[i] = nullptr;
    for (const text::MentionSpan& pn : sentences.proper_nouns(i)) {
      EntityRecognizer::ProperNounText(sentences[i].tokens, pn,
                                       /*lowercase=*/true, &city_key);
      for (ontology::ConceptId id : onto_->Find(city_key)) {
        if (onto_->IsA(id, *pq.city)) {
          return *(sentence_city[i] = &onto_->GetConcept(id).name);
        }
      }
    }
    return nullptr;
  };
  auto resolve_location = [&](size_t sent_idx) -> const std::string& {
    // A city named in this sentence (or one of the two before it);
    // otherwise the question's resolved city.
    for (size_t i = sent_idx + 1; i-- > 0;) {
      if (const std::string* city = city_in(i)) return *city;
      if (sent_idx - i >= 2) break;  // Look back at most two sentences.
    }
    return q.resolved_city.empty() ? q.location : q.resolved_city;
  };

  std::string lower;  // A proper-noun candidate's lowercased text, reused.
  for (size_t si = 0; si < sentences.size(); ++si) {
    const TokenSequence& toks = sentences[si].tokens;
    const std::span<const DateSpan> dates = sentences.dates(si);
    double base =
        2.0 * SbCoverage(pq, masks.data() + si * words) + passage_cov;

    auto push = [&](AnswerCandidate cand) {
      cand.type = q.answer_type;
      cand.passage_index = static_cast<uint32_t>(passage);
      cand.sentence_index = static_cast<uint32_t>(si);
      cand.doc = doc;
      out->push_back(std::move(cand));
    };

    switch (q.answer_type) {
      case AnswerType::kNumericalMeasure: {
        for (const text::TemperatureSpan& m : sentences.temperatures(si)) {
          AnswerCandidate c;
          c.answer_text =
              FormatDouble(m.value, m.value == std::floor(m.value) ? 0 : 1);
          c.answer_text += m.scale == 'F' ? "F" : "\xC2\xBA\x43";
          c.has_value = true;
          c.value = m.value;
          c.unit = m.scale == 'F' ? "F" : (m.scale == 'C' ? "\xC2\xBA\x43"
                                                          : "");
          c.score = base + 1.0;
          if (m.scale != '?') c.score += 2.0;  // Unit associated.
          // Canonical-unit preference: the Step-4 axiom lists ºC first, so
          // of two renderings of the same reading ("8º C around 46.4 F",
          // Table 1) the Celsius one is extracted.
          if (m.scale == 'C') c.score += 0.25;
          double celsius =
              m.scale == 'F' ? FahrenheitToCelsius(m.value) : m.value;
          if (!(celsius >= pq.min_celsius && celsius <= pq.max_celsius)) {
            c.score -= 5.0;
          }
          if (const DateSpan* d = nearest_date(si, m.begin)) {
            c.date = d->date;
            c.date_complete = d->IsComplete();
            c.score += d->IsComplete() ? 1.0 : 0.5;
            if (DateCompatible(*d, q)) {
              c.score += 2.0;
            } else {
              c.score -= 3.0;
            }
          }
          c.location = resolve_location(si);
          if (!q.resolved_city.empty() &&
              EqualsIgnoreCase(c.location, q.resolved_city)) {
            c.score += 1.0;
          }
          push(std::move(c));
        }
        break;
      }
      case AnswerType::kNumericalEconomic: {
        for (const auto& m : EntityRecognizer::FindMoney(toks)) {
          AnswerCandidate c;
          c.answer_text = m.text;
          c.has_value = true;
          c.value = m.value;
          c.unit = m.currency;
          c.score = base + 2.0;
          if (const DateSpan* d = nearest_date(si, m.begin)) {
            c.date = d->date;
            c.date_complete = d->IsComplete();
            if (DateCompatible(*d, q)) c.score += 1.0;
          }
          c.location = resolve_location(si);
          push(std::move(c));
        }
        break;
      }
      case AnswerType::kNumericalPercentage: {
        for (const auto& m : EntityRecognizer::FindPercents(toks)) {
          AnswerCandidate c;
          c.answer_text = m.text;
          c.has_value = true;
          c.value = m.value;
          c.unit = '%';
          c.score = base + 2.0;
          push(std::move(c));
        }
        break;
      }
      case AnswerType::kNumericalAge: {
        for (const auto& m : EntityRecognizer::FindNumbers(toks)) {
          // "N years old" / "aged N".
          bool age_context = false;
          if (m.end < toks.size() && toks[m.end].lemma == "year" &&
              m.end + 1 < toks.size() && toks[m.end + 1].lemma == "old") {
            age_context = true;
          }
          if (m.begin > 0 && toks[m.begin - 1].lower == "aged") {
            age_context = true;
          }
          if (!age_context) continue;
          AnswerCandidate c;
          c.answer_text = m.text;
          c.has_value = true;
          c.value = m.value;
          c.unit = "years";
          c.score = base + 3.0;
          push(std::move(c));
        }
        break;
      }
      case AnswerType::kNumericalPeriod: {
        for (const auto& m : EntityRecognizer::FindNumbers(toks)) {
          if (m.end >= toks.size()) continue;
          const std::string& unit = toks[m.end].lemma;
          bool duration = unit == "day" || unit == "hour" ||
                          unit == "minute" || unit == "week" ||
                          unit == "month" || unit == "year";
          // "N years old" is an age, not a period.
          if (duration && m.end + 1 < toks.size() &&
              toks[m.end + 1].lemma == "old") {
            duration = false;
          }
          if (!duration) continue;
          AnswerCandidate c;
          c.answer_text = m.text + " " + toks[m.end].text;
          c.has_value = true;
          c.value = m.value;
          c.unit = unit + "s";
          c.score = base + 2.0;
          push(std::move(c));
        }
        break;
      }
      case AnswerType::kNumericalQuantity: {
        // Plain cardinals not consumed by a more specific recognizer.
        std::vector<bool> taken(toks.size(), false);
        auto take = [&](const auto& m) {
          for (size_t i = m.begin; i < m.end; ++i) taken[i] = true;
        };
        for (const auto& m : sentences.temperatures(si)) take(m);
        for (const auto& m : EntityRecognizer::FindMoney(toks)) take(m);
        for (const auto& m : EntityRecognizer::FindPercents(toks)) take(m);
        for (const auto& d : dates) take(d);
        for (const auto& m : EntityRecognizer::FindNumbers(toks)) {
          if (taken[m.begin]) continue;
          AnswerCandidate c;
          c.answer_text = m.text;
          c.has_value = true;
          c.value = m.value;
          c.score = base + 1.0;
          push(std::move(c));
        }
        break;
      }
      case AnswerType::kTemporalDate: {
        for (const DateSpan& d : dates) {
          AnswerCandidate c;
          c.answer_text = text::TokensToText(toks, d.begin, d.end);
          c.date = d.date;
          c.date_complete = d.IsComplete();
          c.score = base + (d.IsComplete() ? 3.0 : 1.0);
          c.location = resolve_location(si);
          push(std::move(c));
        }
        // A bare year is an acceptable (weaker) date answer: "When did
        // Iraq invade Kuwait?" → "1990".
        std::vector<bool> in_date(toks.size(), false);
        for (const auto& d : dates) {
          for (size_t i = d.begin; i < d.end; ++i) in_date[i] = true;
        }
        for (size_t i = 0; i < toks.size(); ++i) {
          if (in_date[i]) continue;
          if (!EntityRecognizer::LooksLikeYear(toks[i])) continue;
          AnswerCandidate c;
          c.answer_text = toks[i].text;
          c.has_value = true;
          c.value = std::atof(toks[i].lower.c_str());
          c.score = base + 0.5;
          push(std::move(c));
        }
        break;
      }
      case AnswerType::kTemporalYear: {
        for (const text::Token& t : toks) {
          if (EntityRecognizer::LooksLikeYear(t)) {
            AnswerCandidate c;
            c.answer_text = t.text;
            c.has_value = true;
            c.value = std::atof(t.lower.c_str());
            c.score = base + 2.0;
            push(std::move(c));
          }
        }
        break;
      }
      case AnswerType::kTemporalMonth: {
        for (const text::Token& t : toks) {
          if (EntityRecognizer::IsMonthName(t.lower)) {
            AnswerCandidate c;
            c.answer_text = t.text;
            c.score = base + 2.0;
            push(std::move(c));
          }
        }
        break;
      }
      case AnswerType::kDefinition: {
        // "<focus> is/are <defining clause>".
        for (size_t i = 0; i + 1 < toks.size(); ++i) {
          if (toks[i].lemma != q.focus_lemma || q.focus_lemma.empty()) {
            continue;
          }
          size_t j = i + 1;
          if (j < toks.size() && toks[j].lemma == "be") {
            std::string rest = text::TokensToText(toks, j + 1, toks.size());
            if (!rest.empty() && rest != "?") {
              AnswerCandidate c;
              c.answer_text = rest;
              c.score = base + 3.0;
              push(std::move(c));
            }
          }
        }
        break;
      }
      case AnswerType::kAbbreviation: {
        // "<expansion> (<ABBR>)" and "<ABBR> stands for <expansion>".
        for (size_t i = 0; i + 4 < toks.size(); ++i) {
          if (toks[i + 1].lemma == "stand" && toks[i + 2].lower == "for") {
            AnswerCandidate c;
            c.answer_text =
                text::TokensToText(toks, i + 3, toks.size());
            c.score = base + 2.0;
            push(std::move(c));
          }
        }
        for (size_t i = 2; i + 1 < toks.size(); ++i) {
          if (toks[i - 1].text == "(" && toks[i + 1].text == ")" &&
              toks[i].text == ToUpper(toks[i].text) &&
              toks[i].text.size() >= 2) {
            AnswerCandidate c;
            c.answer_text = toks[i].text;
            c.score = base + 2.0;
            push(std::move(c));
          }
        }
        break;
      }
      default: {
        // Professions are common nouns ("actor"), checked against the
        // profession subtree of the ontology.
        if (q.answer_type == AnswerType::kProfession) {
          for (const text::Token& t : toks) {
            if (t.tag != "NN" && t.tag != "NNS") continue;
            if (!SatisfiesTypeConcept(pq, t.lemma)) continue;
            if (t.lemma == "profession") continue;
            AnswerCandidate c;
            c.answer_text = t.text;
            c.score = base + 3.0;
            push(std::move(c));
          }
        }
        // Person / profession / group / object / place* / event: proper
        // nouns with a semantic preference for the type's subtree.
        for (const text::MentionSpan& pn : sentences.proper_nouns(si)) {
          EntityRecognizer::ProperNounText(toks, pn, /*lowercase=*/true,
                                           &lower);
          if (MentionEqualsAnyQuestionTerm(lower, pq)) continue;
          AnswerCandidate c;
          EntityRecognizer::ProperNounText(toks, pn, /*lowercase=*/false,
                                           &c.answer_text);
          c.score = base;
          if (SatisfiesTypeConcept(pq, lower)) {
            c.score += 3.0;  // The paper's "semantic preference".
          } else if (IsPlace(q.answer_type) ||
                     q.answer_type == AnswerType::kPerson ||
                     q.answer_type == AnswerType::kGroup) {
            c.score -= 1.0;  // Off-type proper noun: weak candidate.
          }
          if (const DateSpan* d = nearest_date(si, pn.begin)) {
            if (DateCompatible(*d, q)) c.score += 0.5;
          }
          push(std::move(c));
        }
        break;
      }
    }
  }
}

std::vector<AnswerCandidate> AnswerExtractor::Rank(
    std::vector<AnswerCandidate> candidates, size_t max_answers) {
  // Deduplicate by normalized answer text + date, keeping the best score
  // at the first-seen position (so the unstable sort below always sees the
  // same input order).
  struct Key {
    std::string lower;
    std::optional<Date> date;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<std::string>{}(k.lower) * 31 +
             (k.date ? std::hash<int64_t>{}(k.date->ToEpochDays()) : 0);
    }
  };
  // `merged` holds candidate indices; only the answers kept are moved.
  std::vector<uint32_t> merged;
  std::unordered_map<Key, size_t, KeyHash> position;
  position.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const AnswerCandidate& c = candidates[i];
    auto [it, inserted] = position.try_emplace(
        Key{ToLower(c.answer_text), c.date}, merged.size());
    if (inserted) {
      merged.push_back(static_cast<uint32_t>(i));
    } else if (c.score > candidates[merged[it->second]].score) {
      merged[it->second] = static_cast<uint32_t>(i);
    }
  }
  // Sorting the indices makes the same comparisons and moves as sorting
  // the candidates themselves would, so ties land in the same order.
  std::sort(merged.begin(), merged.end(), [&](uint32_t a, uint32_t b) {
    const AnswerCandidate& x = candidates[a];
    const AnswerCandidate& y = candidates[b];
    if (x.score != y.score) return x.score > y.score;
    return x.answer_text < y.answer_text;
  });
  if (merged.size() > max_answers) merged.resize(max_answers);
  std::vector<AnswerCandidate> ranked;
  ranked.reserve(merged.size());
  for (uint32_t i : merged) ranked.push_back(std::move(candidates[i]));
  return ranked;
}

void AnswerExtractor::AttachSources(const std::vector<ir::Passage>& passages,
                                    const text::AnalyzedCorpus& corpus,
                                    const ir::DocumentStore* docs,
                                    std::vector<AnswerCandidate>* answers) {
  for (AnswerCandidate& a : *answers) {
    const ir::Passage& p = passages[a.passage_index];
    a.passage_text = p.text;
    if (a.sentence_index != AnswerCandidate::kNoSentence) {
      a.sentence =
          corpus.Find(p.doc)->sentences[p.first_sentence + a.sentence_index]
              .text;
    }
    if (docs != nullptr && docs->IsValid(a.doc)) a.url = docs->Get(a.doc).url;
  }
}

}  // namespace qa
}  // namespace dwqa
