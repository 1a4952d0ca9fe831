#include "common/date.h"

#include <array>
#include <cstdint>
#include <string_view>

#include "common/string_util.h"

namespace dwqa {

namespace {
constexpr std::array<std::string_view, 12> kMonthNames = {
    "January", "February", "March",     "April",   "May",      "June",
    "July",    "August",   "September", "October", "November", "December"};

constexpr std::array<const char*, 7> kDayNames = {
    "Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
    "Saturday"};

/// Month numbers by name length: "May" is the only 3-letter name, and no
/// length has more than three names.
constexpr std::array<std::array<uint8_t, 3>, 10> kMonthsByLength = {{
    {}, {}, {}, {5}, {6, 7}, {3, 4}, {8}, {1, 10}, {2, 11, 12}, {9}}};
}  // namespace

bool Date::IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int Date::DaysInMonth(int year, int month) {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[static_cast<size_t>(month - 1)];
}

bool Date::IsValid() const {
  return month_ >= 1 && month_ <= 12 && day_ >= 1 &&
         day_ <= DaysInMonth(year_, month_);
}

Result<Date> Date::Make(int year, int month, int day) {
  Date d(year, month, day);
  if (!d.IsValid()) {
    return Status::InvalidArgument("invalid date " + std::to_string(year) +
                                   "-" + std::to_string(month) + "-" +
                                   std::to_string(day));
  }
  return d;
}

int Date::DayOfWeek() const {
  // Zeller's congruence adapted to return 0=Sunday.
  int y = year_;
  int m = month_;
  if (m < 3) {
    m += 12;
    --y;
  }
  int k = y % 100;
  int j = y / 100;
  int h = (day_ + 13 * (m + 1) / 5 + k + k / 4 + j / 4 + 5 * j) % 7;
  // h: 0=Saturday, 1=Sunday, ...
  return (h + 6) % 7;
}

std::string Date::DayOfWeekName() const {
  return kDayNames[static_cast<size_t>(DayOfWeek())];
}

std::string Date::MonthName() const {
  if (month_ < 1 || month_ > 12) return "?";
  return std::string(kMonthNames[static_cast<size_t>(month_ - 1)]);
}

int64_t Date::ToEpochDays() const {
  // Howard Hinnant's days_from_civil algorithm.
  int y = year_;
  int m = month_;
  int d = day_;
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097LL + static_cast<int64_t>(doe) - 719468LL;
}

Date Date::FromEpochDays(int64_t z) {
  // Howard Hinnant's civil_from_days algorithm.
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  return Date(static_cast<int>(y + (m <= 2)), static_cast<int>(m),
              static_cast<int>(d));
}

Date Date::NextDay() const { return FromEpochDays(ToEpochDays() + 1); }

std::string Date::ToIsoString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year_, month_, day_);
  return buf;
}

Result<Date> Date::FromIsoString(const std::string& iso) {
  std::vector<std::string> parts = Split(iso, '-');
  if (parts.size() != 3 || parts[0].size() != 4 || !IsDigits(parts[0]) ||
      parts[1].size() != 2 || !IsDigits(parts[1]) || parts[2].size() != 2 ||
      !IsDigits(parts[2])) {
    return Status::InvalidArgument("not an ISO date (YYYY-MM-DD): '" + iso +
                                   "'");
  }
  return Make(std::stoi(parts[0]), std::stoi(parts[1]), std::stoi(parts[2]));
}

std::string Date::ToLongString() const {
  return DayOfWeekName() + ", " + MonthName() + " " + std::to_string(day_) +
         ", " + std::to_string(year_);
}

int Date::MonthFromName(std::string_view name) {
  // Dispatch on length, then on the first letter: `| 0x20` maps exactly
  // the two cases of a letter onto its lowercase form, so only a name
  // that can match reaches the full compare.
  if (name.empty() || name.size() >= kMonthsByLength.size()) return 0;
  const char first = static_cast<char>(name[0] | 0x20);
  for (uint8_t month : kMonthsByLength[name.size()]) {
    if (month == 0) break;
    std::string_view candidate = kMonthNames[month - 1];
    if ((candidate[0] | 0x20) == first &&
        EqualsIgnoreCase(name.substr(1), candidate.substr(1))) {
      return month;
    }
  }
  return 0;
}

}  // namespace dwqa
