// Seeded differential test of the ordinal grouping kernel (dw/grouping.h).
//
// Every seed builds small random warehouses — level values shared across
// members, null coarse levels, mixed-case spellings — grows them with
// interleaved AddMember/InsertFact calls, and checks three oracles, each
// byte-identical on OlapResult:
//   1. the kernel (OlapEngine::Execute, and GroupFacts with a conflict
//      exclusion set) against a minimal string-keyed reference that lives
//      only here;
//   2. every materialized view against the recompute, after every batch;
//   3. the FederatedEngine against a query over the MergeWarehouses oracle,
//      under every conflict policy.
// Queries draw random axes, measures and aggregate functions, mixed-case
// filter values and HAVING predicates over every AggFn.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "dw/federation/federated_engine.h"
#include "dw/federation/merge_warehouses.h"
#include "dw/grouping.h"
#include "dw/materialized_view.h"
#include "dw/olap.h"

namespace dwqa {
namespace dw {
namespace {

constexpr uint64_t kSeeds = 200;

/// Byte identity: headers, group order, every cell's type and value and,
/// unless `counters` is false, the scan counters.
void ExpectSame(const OlapResult& want, const OlapResult& got,
                const std::string& context, bool counters = true) {
  ASSERT_EQ(want.headers, got.headers) << context;
  ASSERT_EQ(want.rows.size(), got.rows.size()) << context;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_TRUE(want.rows[r] == got.rows[r])
        << context << " row " << r << "\nwant:\n"
        << want.ToDisplayString() << "got:\n"
        << got.ToDisplayString();
  }
  if (counters) {
    EXPECT_EQ(want.facts_scanned, got.facts_scanned) << context;
    EXPECT_EQ(want.facts_matched, got.facts_matched) << context;
  }
}

/// The string-keyed reference: resolves every row's level values to
/// strings and groups them in a std::map over the key vector.
OlapResult Reference(const Warehouse& wh, const OlapQuery& q,
                     const std::set<size_t>& excluded = {}) {
  const FactDef* fact = *wh.schema().FindFact(q.fact);
  const Table* tab = *wh.FactTable(q.fact);
  auto level_value = [&](size_t r, const std::string& role,
                         const std::string& level) {
    const size_t ri = *fact->RoleIndex(role);
    return *wh.MemberLevelValue(fact->roles[ri].dimension,
                                MemberId(tab->Get(r, ri).as_int()), level);
  };
  std::map<std::vector<std::string>, std::vector<AggState>> groups;
  OlapResult out;
  out.facts_scanned = tab->row_count() - excluded.size();
  for (size_t r = 0; r < tab->row_count(); ++r) {
    if (excluded.count(r)) continue;
    bool keep = true;
    for (const Filter& f : q.filters) {
      bool any = false;
      for (const std::string& v : f.values) {
        any = any || ToLower(v) == ToLower(level_value(r, f.role, f.level));
      }
      keep = keep && any;
    }
    if (!keep) continue;
    ++out.facts_matched;
    std::vector<std::string> key;
    for (const GroupBy& g : q.group_by) {
      key.push_back(level_value(r, g.role, g.level));
    }
    auto& states = groups[key];
    states.resize(q.measures.size());
    for (size_t m = 0; m < q.measures.size(); ++m) {
      const size_t col =
          fact->roles.size() + *fact->MeasureIndex(q.measures[m].measure);
      states[m].Add(tab->column(col).GetDouble(r));
    }
  }
  for (const GroupBy& g : q.group_by) {
    out.headers.push_back(g.role + "." + g.level);
  }
  for (const QueryMeasure& qm : q.measures) {
    out.headers.push_back(std::string(AggFnName(qm.agg)) + "(" +
                          qm.measure + ")");
  }
  for (const auto& [key, states] : groups) {
    bool keep = true;
    for (const Having& h : q.having) {
      keep = keep &&
             EvalCompare(states[h.measure_index]
                             .Finish(q.measures[h.measure_index].agg)
                             .ToDouble(),
                         h.op, h.value);
    }
    if (!keep) continue;
    std::vector<Value> row(key.begin(), key.end());
    for (size_t m = 0; m < states.size(); ++m) {
      row.push_back(states[m].Finish(q.measures[m].agg));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// Shared vocabularies: coarse values recur across members, differ only in
/// case ("Roma"/"roma"), or are missing (null coarse levels).
const std::vector<std::string> kCities = {"Paris", "PARIS", "Lyon", "Roma",
                                          "roma", ""};
const std::vector<std::string> kCountries = {"France", "Italy", "france",
                                             ""};
const std::vector<std::string> kMonths = {"2004-01", "2004-02", "2004-03"};

std::string Pick(Rng* rng, const std::vector<std::string>& pool) {
  return pool[rng->NextIndex(pool.size())];
}

/// Random ASCII case of `s` ("Paris" → "pARis").
std::string Mangle(Rng* rng, const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (rng->NextBool(0.3)) c = static_cast<char>(std::toupper(c));
    if (rng->NextBool(0.3)) c = static_cast<char>(std::tolower(c));
  }
  return out;
}

/// A coarse-level path below `base`: missing trailing levels stay null.
std::vector<std::string> PlacePath(Rng* rng, const std::string& base,
                                   size_t levels) {
  std::vector<std::string> path = {base, Pick(rng, kCities),
                                   Pick(rng, kCountries)};
  path.resize(std::min(levels, 1 + rng->NextIndex(levels)));
  return path;
}

/// Sales(dest: Place, orig: Place, day: Day; Amount double, Units int64),
/// Place = Site → City → Country, Day = Date → Month.
Warehouse MakeLocal() {
  MdSchema s;
  EXPECT_TRUE(
      s.AddDimension({"Place", {{"Site"}, {"City"}, {"Country"}}}).ok());
  EXPECT_TRUE(s.AddDimension({"Day", {{"Date"}, {"Month"}}}).ok());
  FactDef f;
  f.name = "Sales";
  f.measures = {{"Amount", ColumnType::kDouble, AggFn::kSum},
                {"Units", ColumnType::kInt64, AggFn::kSum}};
  f.roles = {{"dest", "Place"}, {"orig", "Place"}, {"day", "Day"}};
  EXPECT_TRUE(s.AddFact(std::move(f)).ok());
  return Warehouse::Create(std::move(s)).ValueOrDie();
}

/// A random query over the local Sales vocabulary. `filter_values` holds,
/// per "role.level", the values filters draw from.
OlapQuery RandomQuery(Rng* rng,
                      const std::map<std::string,
                                     std::vector<std::string>>& filter_values) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> roles =
      {{"dest", {"Site", "City", "Country"}},
       {"orig", {"Site", "City", "Country"}},
       {"day", {"Date", "Month"}}};
  OlapQuery q;
  q.fact = rng->NextBool(0.5) ? "Sales" : "sales";
  std::vector<size_t> order = {0, 1, 2};
  rng->Shuffle(&order);
  for (size_t i = 0, n = rng->NextIndex(4); i < n; ++i) {
    const auto& [role, levels] = roles[order[i]];
    q.group_by.push_back({Mangle(rng, role), Pick(rng, levels)});
  }
  const AggFn fns[] = {AggFn::kSum, AggFn::kCount, AggFn::kAvg, AggFn::kMin,
                       AggFn::kMax};
  for (size_t i = 0, n = 1 + rng->NextIndex(3); i < n; ++i) {
    q.measures.push_back({rng->NextBool(0.5) ? "Amount" : "units",
                          fns[rng->NextIndex(5)]});
  }
  for (size_t i = 0, n = rng->NextIndex(3); i < n; ++i) {
    const auto& [role, levels] = roles[rng->NextIndex(roles.size())];
    Filter f{role, Pick(rng, levels), {}};
    const auto& pool = filter_values.at(role + "." + f.level);
    for (size_t v = 0, nv = 1 + rng->NextIndex(3); v < nv; ++v) {
      f.values.push_back(Mangle(rng, Pick(rng, pool)));
    }
    q.filters.push_back(std::move(f));
  }
  const CompareOp ops[] = {CompareOp::kLess, CompareOp::kLessEqual,
                           CompareOp::kGreater, CompareOp::kGreaterEqual,
                           CompareOp::kEqual};
  const double thresholds[] = {-1.0, 0.0, 1.0, 2.5, 4.0, 10.0};
  for (size_t i = 0, n = rng->NextIndex(3); i < n; ++i) {
    q.having.push_back({rng->NextIndex(q.measures.size()),
                        ops[rng->NextIndex(5)],
                        thresholds[rng->NextIndex(6)]});
  }
  return q;
}

/// A dyadic-rational amount, so federated re-association stays exact.
Value Amount(Rng* rng) { return Value(double(rng->NextInRange(-8, 40)) / 4); }
Value Units(Rng* rng) { return Value(int64_t(rng->NextInRange(0, 5))); }

/// One growing local warehouse with the derived view catalog attached.
struct World {
  explicit World(uint64_t seed) : rng(seed), wh(MakeLocal()) {
    for (const char* level : {"Site", "City", "Country"}) {
      values[std::string("dest.") + level] = {};
      values[std::string("orig.") + level] = {};
    }
    for (size_t i = 0; i < 3; ++i) AddPlace();
    for (size_t i = 0; i < 2; ++i) AddDay();
    for (auto& [axis, pool] : values) pool.push_back("nowhere");
  }

  void AddPlace() {
    const std::string site = "S" + std::to_string(places.size());
    auto path = PlacePath(&rng, site, 3);
    places.push_back(wh.AddMember("Place", path).ValueOrDie());
    path.resize(3);
    const char* levels[] = {"Site", "City", "Country"};
    for (size_t l = 0; l < 3; ++l) {
      for (const char* role : {"dest.", "orig."}) {
        values[role + std::string(levels[l])].push_back(path[l]);
      }
    }
  }

  void AddDay() {
    const std::string date = "2004-0" + std::to_string(1 + days.size() % 3) +
                             "-" + std::to_string(10 + days.size());
    std::vector<std::string> path = {date, Pick(&rng, kMonths)};
    if (rng.NextBool(0.2)) path.pop_back();  // null Month
    days.push_back(wh.AddMember("Day", path).ValueOrDie());
    values["day.Date"].push_back(date);
    values["day.Month"].push_back(path.size() > 1 ? path[1] : "");
  }

  void InsertFact() {
    ASSERT_TRUE(wh.InsertFact("Sales",
                              {places[rng.NextIndex(places.size())],
                               places[rng.NextIndex(places.size())],
                               days[rng.NextIndex(days.size())]},
                              {Amount(&rng), Units(&rng)})
                    .ok());
  }

  Rng rng;
  Warehouse wh;
  std::vector<MemberId> places, days;
  /// Per "role.level": the values filters draw from, plus misses.
  std::map<std::string, std::vector<std::string>> values;
};

TEST(GroupingDifferentialTest, KernelAndViewsMatchTheStringReference) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    World w(seed);
    for (size_t i = 0, n = w.rng.NextIndex(8); i < n; ++i) w.InsertFact();
    ViewCatalog catalog;
    ASSERT_TRUE(catalog.DefineAll(DeriveViewsFromSchema(w.wh.schema())).ok());
    ASSERT_TRUE(catalog
                    .Define({"", "Sales", {{"dest", "City"}, {"day", "Month"}},
                             {}})
                    .ok());
    ASSERT_TRUE(catalog
                    .Define({"", "Sales",
                             {{"orig", "Country"}, {"dest", "Site"}},
                             {"Units"}})
                    .ok());
    w.wh.AttachViews(&catalog);
    ASSERT_TRUE(catalog.Bind(w.wh).ok());
    const std::vector<ViewStats> views = catalog.StatsSnapshot();
    OlapEngine engine(&w.wh);

    for (int batch = 0; batch < 3; ++batch) {
      // Interleaved member registrations and inserts: new members bring new
      // level values the views must pick up mid-stream.
      for (size_t i = 0, n = 2 + w.rng.NextIndex(8); i < n; ++i) {
        const double u = w.rng.NextDouble();
        if (u < 0.15) {
          w.AddPlace();
        } else if (u < 0.25) {
          w.AddDay();
        } else {
          w.InsertFact();
        }
      }
      const std::string ctx = "seed " + std::to_string(seed) + " batch " +
                              std::to_string(batch);
      for (int i = 0; i < 3; ++i) {
        OlapQuery q = RandomQuery(&w.rng, w.values);
        ExpectSame(Reference(w.wh, q), engine.Execute(q).ValueOrDie(),
                   ctx + " recompute");
        std::set<size_t> excluded;
        const size_t rows = w.wh.FactRowCount("Sales").ValueOrDie();
        for (size_t r = 0; r < rows; ++r) {
          if (w.rng.NextBool(0.3)) excluded.insert(r);
        }
        ExpectSame(Reference(w.wh, q, excluded),
                   Render(q, GroupFacts(w.wh, q, excluded).ValueOrDie())
                       .ValueOrDie(),
                   ctx + " exclusions");
      }
      // Every view answers like the recompute, HAVING and all.
      for (const ViewStats& view : views) {
        OlapQuery q = RandomQuery(&w.rng, w.values);
        q.filters.clear();
        q.group_by.clear();
        const std::string axes = view.name.substr(view.name.find('/') + 1);
        for (const std::string& axis : Split(axes, '+')) {
          const auto parts = Split(axis, '.');
          q.group_by.push_back({parts[0], parts[1]});
        }
        if (view.name.find("orig.Country+dest.Site") != std::string::npos) {
          for (QueryMeasure& qm : q.measures) qm.measure = "Units";
        }
        auto viewed = catalog.Answer(q);
        ASSERT_TRUE(viewed.ok()) << ctx << " " << view.name << ": "
                                 << viewed.status().ToString();
        ExpectSame(engine.Execute(q).ValueOrDie(), *viewed,
                   ctx + " view " + view.name);
      }
    }
  }
}

/// The three federation shapes the generator cycles through.
enum class Shape {
  kKeyComplete,   ///< Every role maps: conflicts resolve per policy.
  kSentinelRole,  ///< "orig" has no remote role: the sentinel axis.
  kNullLevel,     ///< Remote places have no Country level: null axis.
};

/// One seed of the federated ≡ merged check. With `case_variants`, a shared
/// remote member may also be spelled like its local member up to case
/// ("s1" for "S1") and be absent from the member map: MergeWarehouses folds
/// it into the local member, because AddMember and FindMember ignore case,
/// so it is a shared member at every level — it carries the local coarse
/// values and stays out of the null-level shape, like an alias. Without
/// the flag the draws are the ones this check always made.
void CheckFederatedAgainstMerged(uint64_t seed, bool case_variants) {
  const Shape shape = static_cast<Shape>(seed % 3);
  World w(seed);
  for (size_t i = 0; i < 3; ++i) w.AddPlace();
  for (size_t i = 0; i < 3; ++i) w.AddDay();
  for (size_t i = 0; i < 20; ++i) w.InsertFact();
  Rng& rng = w.rng;
  const std::string ctx = "seed " + std::to_string(seed) +
                          (case_variants ? " case variants" : "");

  // The partner: Bookings(to, [from,] on; Total, Qty) over Location =
  // Airport → Town [→ Nation] and When = Day → Month.
  const size_t remote_place_levels = shape == Shape::kNullLevel ? 2 : 3;
  MdSchema rs;
  std::vector<LevelDef> location = {{"Airport"}, {"Town"}, {"Nation"}};
  location.resize(remote_place_levels);
  ASSERT_TRUE(rs.AddDimension({"Location", location}).ok());
  ASSERT_TRUE(rs.AddDimension({"When", {{"Day"}, {"Month"}}}).ok());
  FactDef rf;
  rf.name = "Bookings";
  rf.measures = {{"Total", ColumnType::kDouble, AggFn::kSum},
                 {"Qty", ColumnType::kInt64, AggFn::kSum}};
  rf.roles = {{"to", "Location"}, {"on", "When"}};
  if (shape != Shape::kSentinelRole) rf.roles.push_back({"from", "Location"});
  ASSERT_TRUE(rs.AddFact(rf).ok());
  Warehouse remote = Warehouse::Create(std::move(rs)).ValueOrDie();

  fed::SchemaMapping mapping;
  fed::DimensionMapping place{"Place", "Location",
                              {{"Site", "Airport"}, {"City", "Town"}}, {}};
  if (shape != Shape::kNullLevel) {
    place.levels.push_back({"Country", "Nation"});
  }
  fed::DimensionMapping day{"Day", "When",
                            {{"Date", "Day"}, {"Month", "Month"}}, {}};
  const double conversion = rng.NextBool(0.5) ? 0.5 : 2.0;
  fed::FactMapping fm;
  fm.local_fact = "Sales";
  fm.remote_fact = "Bookings";
  fm.roles = {{"dest", "to"}, {"day", "on"}};
  if (shape == Shape::kSentinelRole) {
    fm.unmapped_local_roles = {"orig"};
  } else {
    fm.roles.push_back({"orig", "from"});
  }
  for (auto [local, remote] : {std::pair{"Amount", "Total"},
                               std::pair{"Units", "Qty"}}) {
    fed::MeasureMapping mm;
    mm.local_measure = local;
    mm.remote_measure = remote;
    fm.measures.push_back(mm);
  }
  fm.measures[0].conversion = conversion;
  fm.key_complete = shape != Shape::kSentinelRole;

  // Remote members: shared ones (an alias, the same spelling or a case
  // variant; same coarse values) and remote-only ones. A local level with
  // no remote counterpart only meets remote-only members: a shared member
  // would carry its local value there in the oracle but a null in the
  // federation, which the mapping model does not reconcile.
  const Table* places = *w.wh.DimensionTable("Place");
  std::vector<MemberId> remote_places;
  std::map<MemberId, MemberId> shared_place;  // local -> remote
  for (size_t p = 0; p < w.places.size(); ++p) {
    if (shape == Shape::kNullLevel || rng.NextBool(0.4)) continue;
    const std::string site = places->Get(p, 0).ToString();
    std::string spelling = rng.NextBool(0.5) ? site : "Alias of " + site;
    const bool variant = case_variants && rng.NextBool(0.5);
    if (variant) spelling = ToLower(site);  // Sites are "S<n>".
    std::vector<std::string> path = {spelling};
    for (size_t l = 1; l < 3; ++l) {
      path.push_back(places->Get(p, l).ToString());
    }
    while (!path.empty() && path.back().empty()) path.pop_back();
    MemberId id = remote.AddMember("Location", path).ValueOrDie();
    if (!variant) place.member_map[ToLower(spelling)] = site;
    shared_place[w.places[p]] = id;
    remote_places.push_back(id);
    for (const char* role : {"dest.Site", "orig.Site"}) {
      w.values[role].push_back(spelling);
    }
  }
  for (size_t i = 0; i < 3; ++i) {
    const std::string site = "R" + std::to_string(i);
    remote_places.push_back(
        remote
            .AddMember("Location",
                       PlacePath(&rng, site, remote_place_levels))
            .ValueOrDie());
    for (const char* role : {"dest.Site", "orig.Site"}) {
      w.values[role].push_back(site);
    }
  }
  const Table* local_days = *w.wh.DimensionTable("Day");
  std::vector<MemberId> remote_days;
  std::map<MemberId, MemberId> shared_day;
  for (size_t d = 0; d < w.days.size(); ++d) {
    if (rng.NextBool(0.3)) continue;
    std::vector<std::string> path = {local_days->Get(d, 0).ToString(),
                                     local_days->Get(d, 1).ToString()};
    if (path[1].empty()) path.pop_back();
    MemberId id = remote.AddMember("When", path).ValueOrDie();
    day.member_map[ToLower(path[0])] = path[0];
    shared_day[w.days[d]] = id;
    remote_days.push_back(id);
  }
  remote_days.push_back(
      remote.AddMember("When", {"2004-09-30", "2004-09"}).ValueOrDie());
  w.values["day.Date"].push_back("2004-09-30");
  w.values["day.Month"].push_back("2004-09");
  mapping.dimensions = {place, day};
  mapping.facts = {fm};

  // Remote facts, plus copies of local fact keys (same or different
  // measures) so every conflict policy has work to do.
  auto insert_remote = [&](MemberId to, MemberId from, MemberId on,
                           Value total, Value qty) {
    std::vector<MemberId> members = {to, on};
    if (shape != Shape::kSentinelRole) members.push_back(from);
    ASSERT_TRUE(remote.InsertFact("Bookings", members, {total, qty}).ok());
  };
  for (size_t i = 0; i < 15; ++i) {
    insert_remote(remote_places[rng.NextIndex(remote_places.size())],
                  remote_places[rng.NextIndex(remote_places.size())],
                  remote_days[rng.NextIndex(remote_days.size())],
                  Amount(&rng), Units(&rng));
  }
  const Table* sales = *w.wh.FactTable("Sales");
  for (size_t r = 0; r < sales->row_count(); ++r) {
    auto to = shared_place.find(MemberId(sales->Get(r, 0).as_int()));
    auto from = shared_place.find(MemberId(sales->Get(r, 1).as_int()));
    auto on = shared_day.find(MemberId(sales->Get(r, 2).as_int()));
    if (to == shared_place.end() || from == shared_place.end() ||
        on == shared_day.end() || !rng.NextBool(0.6)) {
      continue;
    }
    const bool same = rng.NextBool(0.5);
    insert_remote(to->second, from->second, on->second,
                  Value(sales->Get(r, 3).as_double() / conversion +
                        (same ? 0.0 : 0.25)),
                  sales->Get(r, 4));
  }

  ViewCatalog local_views, remote_views;
  for (auto [wh, catalog] : {std::pair{&w.wh, &local_views},
                             std::pair{&remote, &remote_views}}) {
    if (!rng.NextBool(0.5)) continue;
    ASSERT_TRUE(catalog->DefineAll(DeriveViewsFromSchema(wh->schema())).ok());
    wh->AttachViews(catalog);
    ASSERT_TRUE(catalog->Bind(*wh).ok());
  }

  fed::MergePolicy policy;
  policy.conflicts = static_cast<fed::ConflictPolicy>(rng.NextIndex(3));
  policy.remote_refresh_iso = rng.NextBool(0.5) ? "2004-06-01" : "1970-01-01";
  Warehouse merged =
      fed::MergeWarehouses(w.wh, remote, mapping, policy).ValueOrDie();
  fed::FederatedEngine engine(&w.wh);
  ASSERT_TRUE(engine.AddRemote("partner", &remote, mapping).ok());
  engine.set_policy(policy);
  OlapEngine oracle(&merged);
  for (const char* sentinel : {"dest.Site", "orig.Site", "orig.City"}) {
    w.values[sentinel].push_back(fed::kUnattributedMember);
  }
  for (int i = 0; i < 6; ++i) {
    OlapQuery q = RandomQuery(&rng, w.values);
    auto fed = engine.Execute(q);
    ASSERT_TRUE(fed.ok()) << ctx << ": " << fed.status().ToString();
    EXPECT_TRUE(fed->coverage.full()) << ctx;
    ExpectSame(oracle.Execute(q).ValueOrDie(), fed->result,
               ctx + " query " + std::to_string(i), /*counters=*/false);
  }
}

TEST(GroupingDifferentialTest, FederatedMatchesTheMergedOracle) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    CheckFederatedAgainstMerged(seed, /*case_variants=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(GroupingDifferentialTest, CaseVariantMembersFederateLikeTheMerge) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    CheckFederatedAgainstMerged(seed, /*case_variants=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace dw
}  // namespace dwqa
