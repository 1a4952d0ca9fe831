// Durability cost study — what the crash-safety layer charges at feed time
// and what it pays back at restart time.
//
// Series: N facts fed through the WAL in commit groups of five (a Step-5
// question's worth), with an explicit Sync per fact vs one per commit, then
// three restart paths measured on the same log: cold replay of the full
// WAL, snapshot-only load, and snapshot + WAL-tail replay (the steady
// state of a deployed feed). Shape check: recovery must restore the exact
// row count for every path — a durability layer that is fast but lossy
// benches as a failure, not a number.
//
// `--smoke` shrinks the series for the `perf`-labeled ctest smoke.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "dw/etl.h"
#include "dw/recovery.h"
#include "dw/snapshot.h"
#include "dw/wal.h"
#include "integration/last_minute_sales.h"

using namespace dwqa;
using integration::LastMinuteSales;

namespace {

namespace stdfs = std::filesystem;

dw::WalFact MakeFact(int i) {
  static const char* kCities[] = {"Barcelona", "Madrid", "Valencia",
                                  "Seville"};
  const std::string city = kCities[i % 4];
  Date date(2004, 1 + (i / 28) % 12, 1 + i % 28);
  dw::WalFact fact;
  fact.fact_name = "Weather";
  fact.attribute = "temperature";
  fact.value = 5.0 + (i % 30);
  fact.unit = "\xC2\xBA\x43";
  fact.date_iso = date.ToIsoString();
  fact.location = city;
  fact.url = "http://weather.example/" + city + "/" + fact.date_iso;
  fact.confidence = 0.9;
  fact.dedup_key = "temperature|" + city + "|" + fact.date_iso;
  fact.record.role_paths = {{city}, dw::DateMemberPath(date), {fact.url}};
  fact.record.measures = {dw::Value(fact.value)};
  return fact;
}

/// Facts per commit group: about one Step-5 question's worth.
constexpr int kFactsPerCommit = 5;

struct FeedCost {
  double append_ms = 0.0;
  double snapshot_ms = 0.0;
};

/// Feeds `n` facts through a fresh WAL at `dir` in commit groups, syncing
/// after every fact (`sync_per_fact`) or only after each group's commit,
/// then snapshots.
FeedCost Feed(const std::string& dir, int n, bool sync_per_fact) {
  FeedCost cost;
  auto wal = dw::WalWriter::Open(dir).ValueOrDie();
  dw::Warehouse wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  dw::EtlLoader loader(&wh);
  dw::CommitSet commits;
  {
    bench::Timer timer;
    for (int begin = 0; begin < n; begin += kFactsPerCommit) {
      dw::WalCommit commit;
      commit.question = "group-" + std::to_string(begin / kFactsPerCommit);
      for (int i = begin; i < std::min(n, begin + kFactsPerCommit); ++i) {
        dw::WalFact fact = MakeFact(i);
        dw::Lsn lsn = wal->AppendFact(fact).ValueOrDie();
        if (commit.first_lsn == 0) commit.first_lsn = lsn;
        commit.last_lsn = lsn;
        if (sync_per_fact) DWQA_CHECK(wal->Sync().ok());
        DWQA_CHECK(loader.LoadRecord(fact.fact_name, fact.record).ok());
        commits.fed_keys.insert(fact.dedup_key);
      }
      DWQA_CHECK(wal->AppendCommit(commit).ok());
      DWQA_CHECK(wal->Sync().ok());
      commits.questions.insert(commit.question);
    }
    cost.append_ms = timer.ElapsedMs();
  }
  {
    bench::Timer timer;
    DWQA_CHECK(
        dw::SnapshotWriter::Write(dir, wh, commits, wal->last_lsn()).ok());
    cost.snapshot_ms = timer.ElapsedMs();
  }
  return cost;
}

double MeasureOpen(const std::string& dir, size_t expect_rows) {
  dw::RecoveryOptions options;
  options.bootstrap_schema = LastMinuteSales::MakeSchema();
  bench::Timer timer;
  auto recovered = dw::Recovery::Open(dir, options).ValueOrDie();
  double ms = timer.ElapsedMs();
  size_t rows = recovered.warehouse.FactRowCount("Weather").ValueOrDie();
  if (rows != expect_rows) {
    std::cerr << "bench_recovery: recovery LOST DATA — expected "
              << expect_rows << " rows, got " << rows << "\n";
    std::exit(1);
  }
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  PrintBanner(std::cout,
              "Durability cost — WAL feed overhead and the three restart "
              "paths");

  const std::vector<int> series =
      smoke ? std::vector<int>{200} : std::vector<int>{200, 1000, 5000};
  const stdfs::path base =
      stdfs::temp_directory_path() / "dwqa_bench_recovery";

  TablePrinter table({"facts", "sync per fact (ms)", "sync per commit (ms)",
                      "snapshot (ms)", "cold replay (ms)",
                      "snap+tail open (ms)"});
  bench::JsonSectionWriter json("bench_recovery");

  for (int n : series) {
    // A Sync after every fact: the price of per-record durability.
    stdfs::remove_all(base);
    double per_fact_ms = Feed(base.string(), n, true).append_ms;

    // One Sync per commit (the feed's durability contract), snapshotted at
    // the end — this directory then serves the restart measurements.
    stdfs::remove_all(base);
    FeedCost cost = Feed(base.string(), n, false);

    // Steady state: snapshot + empty tail.
    double open_ms = MeasureOpen(base.string(), size_t(n));

    // Cold start: same log, snapshots removed, full replay.
    for (const auto& entry : stdfs::directory_iterator(base)) {
      if (entry.path().filename().string().rfind("snap-", 0) == 0) {
        stdfs::remove_all(entry.path());
      }
    }
    double replay_ms = MeasureOpen(base.string(), size_t(n));

    table.AddRow({std::to_string(n), FormatDouble(per_fact_ms, 1),
                  FormatDouble(cost.append_ms, 1),
                  FormatDouble(cost.snapshot_ms, 1),
                  FormatDouble(replay_ms, 1), FormatDouble(open_ms, 1)});
    const std::string tag = std::to_string(n);
    json.Add("feed_sync_per_fact_" + tag + "_ms", per_fact_ms, "ms");
    json.Add("feed_sync_per_commit_" + tag + "_ms", cost.append_ms, "ms");
    json.Add("snapshot_" + tag + "_ms", cost.snapshot_ms, "ms");
    json.Add("cold_replay_" + tag + "_ms", replay_ms, "ms");
    json.Add("snapshot_open_" + tag + "_ms", open_ms, "ms");
  }
  stdfs::remove_all(base);

  table.Print(std::cout);
  if (!json.Flush()) {
    std::cerr << "bench_recovery: bench-JSON flush failed\n";
    return 1;
  }
  return 0;
}
