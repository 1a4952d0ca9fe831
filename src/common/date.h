#ifndef DWQA_COMMON_DATE_H_
#define DWQA_COMMON_DATE_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace dwqa {

/// \brief Calendar date (proleptic Gregorian).
///
/// Shared by the Date dimension of the warehouse, the temporal entity
/// recognizers of the NLP substrate, and the synthetic weather model.
class Date {
 public:
  /// All-zero sentinel date; IsValid() is false.
  Date() = default;
  /// Unvalidated construction; use Make() for checked input.
  Date(int year, int month, int day) : year_(year), month_(month), day_(day) {}

  /// Validating factory. Fails on out-of-range month/day (leap years
  /// respected).
  static Result<Date> Make(int year, int month, int day);

  int year() const { return year_; }    ///< Calendar year.
  int month() const { return month_; }  ///< 1..12.
  int day() const { return day_; }      ///< 1..31.

  /// True if the fields form a real calendar date.
  bool IsValid() const;

  /// 0 = Sunday ... 6 = Saturday (Zeller's congruence).
  int DayOfWeek() const;

  /// "Monday", "Tuesday", ...
  std::string DayOfWeekName() const;

  /// "January", "February", ...
  std::string MonthName() const;

  /// Day count since 1970-01-01 (may be negative).
  int64_t ToEpochDays() const;

  /// Inverse of ToEpochDays().
  static Date FromEpochDays(int64_t days);

  /// Next calendar day.
  Date NextDay() const;

  /// "2004-01-31".
  std::string ToIsoString() const;

  /// Inverse of ToIsoString(): parses "YYYY-MM-DD" (validated via Make).
  static Result<Date> FromIsoString(const std::string& iso);

  /// Paper style: "Monday, January 31, 2004".
  std::string ToLongString() const;

  /// 28..31; leap Februaries respected.
  static int DaysInMonth(int year, int month);
  /// Gregorian leap-year rule.
  static bool IsLeapYear(int year);

  /// Month name (full, ASCII case-insensitive) -> 1..12; 0 if unknown.
  /// Compares in place; allocates nothing.
  static int MonthFromName(std::string_view name);

  /// Lexicographic (year, month, day) ordering.
  auto operator<=>(const Date&) const = default;

 private:
  int year_ = 1970;
  int month_ = 1;
  int day_ = 1;
};

}  // namespace dwqa

#endif  // DWQA_COMMON_DATE_H_
