#include "text/entities.h"

#include <cstdlib>

#include "common/string_util.h"

namespace dwqa {
namespace text {

namespace {

bool IsIntBetween(const Token& t, int lo, int hi) {
  if (t.tag != "CD" && t.tag != "OD") return false;
  std::string digits = t.tag == "OD" ? t.lemma : t.lower;
  if (!IsDigits(digits)) return false;
  int v = std::atoi(digits.c_str());
  return v >= lo && v <= hi;
}

int TokenInt(const Token& t) {
  std::string digits = t.tag == "OD" ? t.lemma : t.lower;
  return std::atoi(digits.c_str());
}

double TokenDouble(const Token& t) { return std::atof(t.lower.c_str()); }

std::string SpanText(const TokenSequence& toks, size_t b, size_t e) {
  return TokensToText(toks, b, e);
}

bool IsScaleLetter(const Token& t, char* scale) {
  if (t.lower == "c" || t.lower == "celsius" || t.lower == "centigrade") {
    *scale = 'C';
    return true;
  }
  if (t.lower == "f" || t.lower == "fahrenheit") {
    *scale = 'F';
    return true;
  }
  return false;
}

}  // namespace

bool EntityRecognizer::IsMonthName(std::string_view lower) {
  return Date::MonthFromName(lower) != 0;
}

bool EntityRecognizer::IsWeekdayName(std::string_view lower) {
  // Dispatch on the first letter; each compare checks the length first.
  if (lower.empty()) return false;
  switch (lower[0]) {
    case 's':
      return lower == "sunday" || lower == "saturday";
    case 'm':
      return lower == "monday";
    case 't':
      return lower == "tuesday" || lower == "thursday";
    case 'w':
      return lower == "wednesday";
    case 'f':
      return lower == "friday";
    default:
      return false;
  }
}

bool EntityRecognizer::LooksLikeYear(const Token& token) {
  return token.tag == "CD" && IsDigits(token.lower) &&
         token.lower.size() == 4 && IsIntBetween(token, 1000, 2999);
}

std::vector<DateMention> EntityRecognizer::FindDates(
    const TokenSequence& toks) {
  std::vector<DateSpan> spans;
  AppendDateSpans(toks, &spans);
  std::vector<DateMention> out;
  out.reserve(spans.size());
  for (const DateSpan& span : spans) {
    out.push_back({span, SpanText(toks, span.begin, span.end)});
  }
  return out;
}

void EntityRecognizer::AppendDateSpans(const TokenSequence& toks,
                                       std::vector<DateSpan>* out) {
  size_t i = 0;
  auto push = [&](size_t b, size_t e, int year, int month, int day, bool hy,
                  bool hm, bool hd) {
    DateSpan m;
    m.begin = static_cast<uint32_t>(b);
    m.end = static_cast<uint32_t>(e);
    m.has_year = hy;
    m.has_month = hm;
    m.has_day = hd;
    int y = hy ? year : 2000;
    int mth = hm ? month : 1;
    int d = hd ? day : 1;
    // Reject impossible complete dates (e.g. "February 30, 2004").
    if (hd && hm && d > Date::DaysInMonth(hy ? year : 2000, mth)) return;
    m.date = Date(y, mth, d);
    out->push_back(m);
  };
  while (i < toks.size()) {
    const std::string& lw = toks[i].lower;
    // Pattern A: Month [day][,] [of] [year]  — "January 31, 2004",
    // "January of 2004", "January 2004", "January 31".
    if (int month = Date::MonthFromName(lw); month != 0) {
      size_t j = i + 1;
      int day = 0, year = 0;
      bool has_day = false, has_year = false;
      if (j < toks.size() && IsIntBetween(toks[j], 1, 31) &&
          !LooksLikeYear(toks[j])) {
        day = TokenInt(toks[j]);
        has_day = true;
        ++j;
      }
      if (j < toks.size() && (toks[j].lower == "," || toks[j].lower == "of")) {
        if (j + 1 < toks.size() && LooksLikeYear(toks[j + 1])) {
          year = TokenInt(toks[j + 1]);
          has_year = true;
          j += 2;
        }
      } else if (j < toks.size() && LooksLikeYear(toks[j])) {
        year = TokenInt(toks[j]);
        has_year = true;
        ++j;
      }
      push(i, j, year, month, day, has_year, true, has_day);
      i = j;
      continue;
    }
    // Pattern B: [the] DAYth of Month[,] [year] — "the 12th of May, 1997".
    if ((toks[i].tag == "OD" || toks[i].tag == "CD") &&
        IsIntBetween(toks[i], 1, 31) && i + 2 < toks.size() &&
        toks[i + 1].lower == "of" && IsMonthName(toks[i + 2].lower)) {
      int day = TokenInt(toks[i]);
      int month = Date::MonthFromName(toks[i + 2].lower);
      size_t j = i + 3;
      int year = 0;
      bool has_year = false;
      if (j < toks.size() && toks[j].lower == ",") ++j;
      if (j < toks.size() && LooksLikeYear(toks[j])) {
        year = TokenInt(toks[j]);
        has_year = true;
        ++j;
      } else if (!has_year) {
        // No year: roll back a consumed comma.
        j = i + 3;
      }
      push(i, j, year, month, day, has_year, true, true);
      i = j;
      continue;
    }
    ++i;
  }
}

std::vector<TemperatureMention> EntityRecognizer::FindTemperatures(
    const TokenSequence& toks) {
  std::vector<TemperatureSpan> spans;
  AppendTemperatureSpans(toks, &spans);
  std::vector<TemperatureMention> out;
  out.reserve(spans.size());
  for (const TemperatureSpan& span : spans) {
    out.push_back({span, SpanText(toks, span.begin, span.end)});
  }
  return out;
}

void EntityRecognizer::AppendTemperatureSpans(
    const TokenSequence& toks, std::vector<TemperatureSpan>* out) {
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].tag != "CD" || !IsNumber(toks[i].lower)) continue;
    size_t j = i + 1;
    char scale = '?';
    bool matched = false;
    if (j < toks.size() && toks[j].text == "\xC2\xBA") {
      // "8 º C" or bare "8º".
      ++j;
      matched = true;
      if (j < toks.size() && IsScaleLetter(toks[j], &scale)) ++j;
    } else if (j < toks.size() &&
               (toks[j].lower == "degree" || toks[j].lower == "degrees")) {
      ++j;
      matched = true;
      if (j < toks.size() && IsScaleLetter(toks[j], &scale)) ++j;
    } else if (j < toks.size() && IsScaleLetter(toks[j], &scale) &&
               toks[j].text.size() == 1) {
      // "46.4 F": single capital letter right after a number.
      ++j;
      matched = true;
    } else if (j < toks.size() &&
               (toks[j].lower == "celsius" || toks[j].lower == "fahrenheit")) {
      IsScaleLetter(toks[j], &scale);
      ++j;
      matched = true;
    }
    if (!matched) continue;
    TemperatureSpan m;
    m.begin = static_cast<uint32_t>(i);
    m.end = static_cast<uint32_t>(j);
    m.value = TokenDouble(toks[i]);
    m.scale = scale;
    out->push_back(m);
  }
}

std::vector<NumberMention> EntityRecognizer::FindNumbers(
    const TokenSequence& toks) {
  std::vector<NumberMention> out;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].tag == "CD" && IsNumber(toks[i].lower)) {
      NumberMention m;
      m.begin = i;
      m.end = i + 1;
      m.text = toks[i].text;
      m.value = TokenDouble(toks[i]);
      out.push_back(std::move(m));
    }
  }
  return out;
}

std::vector<MoneyMention> EntityRecognizer::FindMoney(
    const TokenSequence& toks) {
  std::vector<MoneyMention> out;
  auto currency_of = [](const std::string& lw) -> std::string {
    if (lw == "euro" || lw == "euros" || lw == "\xE2\x82\xAC") return "EUR";
    if (lw == "dollar" || lw == "dollars" || lw == "$") return "USD";
    if (lw == "pound" || lw == "pounds") return "GBP";
    return "";
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].tag == "CD" && i + 1 < toks.size()) {
      std::string cur = currency_of(toks[i + 1].lower);
      if (!cur.empty()) {
        MoneyMention m;
        m.begin = i;
        m.end = i + 2;
        m.text = SpanText(toks, i, i + 2);
        m.value = TokenDouble(toks[i]);
        m.currency = cur;
        out.push_back(std::move(m));
        continue;
      }
    }
    // "$ 99" (the tokenizer splits the sign off).
    if (toks[i].text == "$" && i + 1 < toks.size() &&
        toks[i + 1].tag == "CD") {
      MoneyMention m;
      m.begin = i;
      m.end = i + 2;
      m.text = SpanText(toks, i, i + 2);
      m.value = TokenDouble(toks[i + 1]);
      m.currency = "USD";
      out.push_back(std::move(m));
    }
  }
  return out;
}

std::vector<PercentMention> EntityRecognizer::FindPercents(
    const TokenSequence& toks) {
  std::vector<PercentMention> out;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].tag != "CD") continue;
    if (i + 1 < toks.size() &&
        (toks[i + 1].text == "%" || toks[i + 1].lower == "percent" ||
         toks[i + 1].lower == "per-cent")) {
      PercentMention m;
      m.begin = i;
      m.end = i + 2;
      m.text = SpanText(toks, i, i + 2);
      m.value = TokenDouble(toks[i]);
      out.push_back(std::move(m));
    }
  }
  return out;
}

std::vector<ProperNounMention> EntityRecognizer::FindProperNouns(
    const TokenSequence& toks) {
  std::vector<MentionSpan> spans;
  AppendProperNounSpans(toks, &spans);
  std::vector<ProperNounMention> out;
  out.reserve(spans.size());
  for (const MentionSpan& span : spans) {
    ProperNounMention m{span, {}};
    ProperNounText(toks, span, /*lowercase=*/false, &m.text);
    out.push_back(std::move(m));
  }
  return out;
}

void EntityRecognizer::AppendProperNounSpans(const TokenSequence& toks,
                                             std::vector<MentionSpan>* out) {
  auto is_np = [&](size_t k) {
    return k < toks.size() && toks[k].tag == "NP" &&
           !IsMonthName(toks[k].lower) && !IsWeekdayName(toks[k].lower);
  };
  size_t i = 0;
  while (i < toks.size()) {
    if (!is_np(i)) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < toks.size()) {
      if (is_np(j)) {
        ++j;
        continue;
      }
      // A middle initial keeps the run together: "John F. Kennedy" is one
      // mention ("F" NP, "." attaching to it, "Kennedy" NP).
      if (toks[j].text == "." && toks[j - 1].tag == "NP" &&
          toks[j - 1].text.size() == 1 && is_np(j + 1)) {
        ++j;
        continue;
      }
      break;
    }
    out->push_back(MentionSpan{static_cast<uint32_t>(i),
                               static_cast<uint32_t>(j)});
    i = j;
  }
}

void EntityRecognizer::ProperNounText(const TokenSequence& toks,
                                      MentionSpan span, bool lowercase,
                                      std::string* out) {
  out->clear();
  for (size_t k = span.begin; k < span.end; ++k) {
    // Inside a span every token is a proper noun but the period of a
    // middle initial, which attaches without a space. (A "." tagged NP is
    // a proper noun of its own.)
    if (toks[k].text == "." && toks[k].tag != "NP") {
      *out += '.';
      continue;
    }
    if (!out->empty()) *out += ' ';
    *out += lowercase ? toks[k].lower : toks[k].text;
  }
}

}  // namespace text
}  // namespace dwqa
