// Request generation (seeded, per client) and the untraced closed loop.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/rng.h"
#include "perfbench.h"

namespace perfbench {

namespace {

/// feed_bi: questions per `feed` request, and feed requests between two
/// `bi` reads.
constexpr size_t kFeedBatch = 1;
constexpr size_t kFeedsPerBi = 4;

/// serve_mix request mix (cumulative thresholds over a uniform draw).
constexpr double kMixFeed = 0.001;
constexpr double kMixBi = 0.002;
constexpr double kMixLiveAsk = 0.012;  // the rest are cached asks
/// serve_mix: seeds the popularity order of the ask pool.
constexpr uint64_t kPopularitySeed = 20040101;
/// serve_mix ingest schedule (see Traffic).
constexpr double kIngestPeriodS = 0.04;
constexpr uint64_t kTracedIngestEvery = 100;
/// feed_bi runs its whole plan unless it takes longer than this.
constexpr double kFeedBiCapS = 120.0;

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBelow(i)]);
  }
}

uint64_t StreamSeed(uint64_t seed, size_t client) {
  return seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL * (client + 1);
}

}  // namespace

Traffic::Traffic(Fixture* fixture, uint64_t seed, size_t client,
                 std::optional<Clock::time_point> start)
    : fixture_(fixture),
      state_(StreamSeed(seed, client)),
      client_(client),
      start_(start) {
  Rng rng(state_);
  const size_t pool = fixture_->questions.size();
  switch (fixture_->spec.workload) {
    case Workload::kAskLive:
      for (size_t t = 0; t < fixture_->tenants.size(); ++t) {
        for (size_t q = 0; q < pool; ++q) cycle_.push_back({t, q});
      }
      Shuffle(&cycle_, &rng);
      break;
    case Workload::kFeedBi:
      PlanFeedBi(seed);
      break;
    case Workload::kServeMix: {
      // Skewed repetition: Zipf(1) over one popularity order for every
      // client and seed. Which questions are hot decides how many asks the
      // cache cannot serve (it keeps no unanswered answer), so an order
      // drawn from the seed would change the workload's cost, not only its
      // draws.
      std::vector<size_t> order(pool);
      for (size_t i = 0; i < pool; ++i) order[i] = i;
      Rng popularity(kPopularitySeed);
      Shuffle(&order, &popularity);
      std::vector<double> weight(pool);
      for (size_t rank = 0; rank < pool; ++rank) {
        weight[order[rank]] = 1.0 / static_cast<double>(rank + 1);
      }
      double total = 0.0;
      for (double w : weight) zipf_.push_back(total += w);
      for (double& c : zipf_) c /= total;
      break;
    }
  }
  state_ = rng.Next();
}

void Traffic::PlanFeedBi(uint64_t seed) {
  Rng rng(StreamSeed(seed, 1000));
  for (const FedTenant& fed : fixture_->fed_tenants) {
    size_t bi_reads = 0;
    std::vector<std::string> questions = fixture_->feed_questions;
    Shuffle(&questions, &rng);
    size_t batches = 0;
    for (size_t begin = 0; begin < questions.size(); begin += kFeedBatch) {
      Planned feed;
      feed.kind = Kind::kFeed;
      feed.request.endpoint = serve::Endpoint::kFeed;
      feed.request.tenant = fed.name;
      size_t end = std::min(questions.size(), begin + kFeedBatch);
      feed.request.questions.assign(questions.begin() + begin,
                                    questions.begin() + end);
      plan_.push_back(std::move(feed));
      if (++batches % kFeedsPerBi != 0) continue;
      // Rotate over the three read scopes; the fed tenant's own view read
      // comes last, once its Weather fact has some rows to join.
      switch (bi_reads++ % 3) {
        case 0:
          plan_.push_back(MakeBi(Kind::kBiRecompute, fixture_->archive, false));
          break;
        case 1:
          plan_.push_back(
              MakeBi(Kind::kBiFederated, fixture_->archive, false));
          break;
        default:
          plan_.push_back(MakeBi(Kind::kBiView, fed.name, false));
          break;
      }
    }
    // The tenant's feed is complete: the analyst's read of the result.
    plan_.push_back(MakeBi(Kind::kBiView, fed.name, true));
  }
}

Planned Traffic::MakeAsk(const std::string& tenant, size_t question,
                         bool no_cache) {
  Planned p;
  p.kind = Kind::kAsk;
  p.request.endpoint = serve::Endpoint::kAsk;
  p.request.tenant = tenant;
  p.gold = &fixture_->questions[question];
  p.request.questions = {p.gold->question};
  p.request.no_cache = no_cache;
  return p;
}

Planned Traffic::MakeBi(Kind kind, const std::string& tenant,
                        bool final_read) {
  Planned p;
  p.kind = kind;
  p.request.endpoint = serve::Endpoint::kBi;
  p.request.tenant = tenant;
  if (kind == Kind::kBiFederated) p.request.scope = "federated";
  p.final_read = final_read;
  return p;
}

bool Traffic::NextIngest(uint64_t index, Planned* out) {
  size_t due = 0;
  if (start_.has_value()) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - *start_).count();
    due = static_cast<size_t>(elapsed / kIngestPeriodS);
  } else if ((index + 1) % kTracedIngestEvery == 0) {
    due = static_cast<size_t>((index + 1) / kTracedIngestEvery);
  }
  due = std::min(due, fixture_->withheld.size());
  size_t page = fixture_->ingest_cursor.load();
  do {
    if (page >= due) return false;
  } while (!fixture_->ingest_cursor.compare_exchange_weak(page, page + 1));
  // Pages go to the tenants in turn, whatever the seed: which pages a
  // tenant indexes decides which of its answers stay cacheable, so a
  // seeded choice moved serve_mix's qps by a fifth between seeds.
  const ir::Document& doc = fixture_->withheld[page];
  Planned p;
  p.kind = Kind::kIngest;
  p.request.endpoint = serve::Endpoint::kIngest;
  p.request.tenant = fixture_->tenants[page % fixture_->tenants.size()];
  p.request.doc_url = doc.url;
  p.request.doc_title = doc.title;
  p.request.doc_content = doc.raw;
  *out = std::move(p);
  return true;
}

bool Traffic::Next(Planned* out) {
  const uint64_t index = issued_++;
  switch (fixture_->spec.workload) {
    case Workload::kAskLive: {
      const auto& [tenant, question] = cycle_[index % cycle_.size()];
      *out = MakeAsk(fixture_->tenants[tenant], question, true);
      break;
    }
    case Workload::kFeedBi:
      if (index >= plan_.size()) return false;
      *out = plan_[index];
      break;
    case Workload::kServeMix: {
      if (NextIngest(index, out)) break;
      Rng rng(state_ + index * 0xD1B54A32D192ED03ULL);
      const std::string& tenant =
          fixture_->tenants[rng.NextBelow(fixture_->tenants.size())];
      double u = rng.NextDouble();
      if (u < kMixFeed) {
        Planned p;
        p.kind = Kind::kFeed;
        p.request.endpoint = serve::Endpoint::kFeed;
        p.request.tenant = tenant;
        p.request.questions = {fixture_->feed_questions[rng.NextBelow(
            fixture_->feed_questions.size())]};
        *out = std::move(p);
      } else if (u < kMixBi) {
        *out = MakeBi(Kind::kBiView, tenant, false);
      } else if (u < kMixLiveAsk) {
        *out = MakeAsk(tenant, rng.NextBelow(fixture_->questions.size()), true);
      } else {
        double v = rng.NextDouble();
        size_t q = static_cast<size_t>(
            std::lower_bound(zipf_.begin(), zipf_.end(), v) - zipf_.begin());
        *out = MakeAsk(tenant, std::min(q, zipf_.size() - 1), false);
      }
      break;
    }
  }
  out->request.id = (uint64_t{client_} << 40) | index;
  return true;
}

size_t RunLog::Executed() const {
  size_t total = 0;
  for (size_t n : executed) total += n;
  return total;
}

void RunLog::Merge(RunLog&& other) {
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  for (size_t k = 0; k < kKinds; ++k) executed[k] += other.executed[k];
  work += other.work;
  handle_ms += other.handle_ms;
  attempted += other.attempted;
  failed += other.failed;
  finished = finished && other.finished;
  asks_gold += other.asks_gold;
  asks_correct += other.asks_correct;
  asks_answered += other.asks_answered;
  asks_cached += other.asks_cached;
  facts_extracted += other.facts_extracted;
  rows_loaded += other.rows_loaded;
  questions_fed += other.questions_fed;
  questions_answered += other.questions_answered;
  for (const auto& [tenant, facts] : other.facts_by_tenant) {
    facts_by_tenant[tenant] += facts;
  }
  for (std::string& p : other.problems) problems.push_back(std::move(p));
  for (std::string& a : other.federated_answers) {
    federated_answers.push_back(std::move(a));
  }
  probes.insert(probes.end(), other.probes.begin(), other.probes.end());
}

double RunBudget(Workload workload, double seconds) {
  return workload == Workload::kFeedBi ? kFeedBiCapS : seconds;
}

RunLog DriveClosedLoop(Fixture* fixture, uint64_t seed, size_t clients,
                       double seconds, bool ingest_on_wall_time,
                       const HostProbe* probe) {
  std::vector<RunLog> logs(clients);
  // Per client: the reservoir of kept samples and the requests offered to
  // it.
  std::vector<std::vector<Sample>> kept(clients);
  std::vector<uint64_t> seen(clients, 0);
  for (auto& reservoir : kept) reservoir.resize(kKeptSamples);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto window_of = [start](Clock::time_point t) {
    return static_cast<uint32_t>(
        std::chrono::duration<double>(t - start).count() / kProbeWindowS);
  };
  const auto probe_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kProbePeriodS));
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Traffic traffic(fixture, seed, c,
                        ingest_on_wall_time
                            ? std::optional<Clock::time_point>(start)
                            : std::nullopt);
        Rng sampler(StreamSeed(seed, 3000 + c));
        RunLog& log = logs[c];
        std::vector<Sample>& reservoir = kept[c];
        Planned planned;
        uint64_t probe_cursor = c;
        Clock::time_point next_probe = start;
        while (true) {
          if (Clock::now() >= deadline) {
            log.finished = false;
            break;
          }
          if (!traffic.Next(&planned)) break;
          if (probe != nullptr && Clock::now() >= next_probe) {
            const uint32_t window = window_of(Clock::now());
            log.probes.push_back({static_cast<uint32_t>(c), window,
                                  probe->RunMs(&probe_cursor)});
            next_probe = Clock::now() + probe_period;
          }
          Clock::time_point sent = Clock::now();
          serve::Response response = fixture->server->Handle(planned.request);
          const Clock::time_point done = Clock::now();
          ++log.attempted;
          const size_t work = CheckReply(planned, response, &log);
          if (response.status != "ok") continue;
          const Sample sample{
              planned.kind, response.cached, planned.request.no_cache,
              std::chrono::duration<double, std::milli>(done - sent).count(),
              work, static_cast<uint32_t>(c), window_of(sent)};
          ++log.executed[static_cast<size_t>(planned.kind)];
          log.work += work;
          log.handle_ms += sample.ms;
          const uint64_t n = seen[c]++;
          if (n < reservoir.size()) {
            reservoir[n] = sample;
          } else if (uint64_t slot = sampler.NextBelow(n + 1);
                     slot < reservoir.size()) {
            reservoir[slot] = sample;
          }
        }
      });
    }
  }
  RunLog merged;
  merged.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  // Keep the same share of every client's requests, so that the merged
  // sample is uniform over all of them.
  double rate = 1.0;
  for (size_t c = 0; c < clients; ++c) {
    if (seen[c] > kKeptSamples) {
      rate = std::min(rate, static_cast<double>(kKeptSamples) /
                                static_cast<double>(seen[c]));
    }
  }
  for (size_t c = 0; c < clients; ++c) {
    std::vector<Sample>& reservoir = kept[c];
    reservoir.resize(std::min<uint64_t>(seen[c], kKeptSamples));
    const size_t take = std::min(
        reservoir.size(),
        static_cast<size_t>(std::llround(rate * static_cast<double>(seen[c]))));
    if (take < reservoir.size()) {
      Rng rng(StreamSeed(seed, 4000 + c));
      Shuffle(&reservoir, &rng);
      reservoir.resize(take);
    }
    logs[c].samples = std::move(reservoir);
    merged.Merge(std::move(logs[c]));
  }
  return merged;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

}  // namespace perfbench
