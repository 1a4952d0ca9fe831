// Set-up of the three workloads: the synthetic web, the warehouses, the
// tenants (Steps 1-4 + IndexCorpus inside QaServer::AddTenant), the views
// and the federation. Everything here is deterministic and independent of
// the workload seed, so every run sets up the same state.

#include <filesystem>
#include <set>
#include <string_view>

#include "common/date.h"
#include "common/string_util.h"
#include "dw/etl.h"
#include "dw/federation/partner_warehouse.h"
#include "integration/last_minute_sales.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using integration::LastMinuteSales;

/// Distractor pages in the set-up corpus, and the extra ones serve_mix
/// withholds for `ingest`.
constexpr size_t kCorpusNoisePages = 40;
constexpr size_t kWithheldNoisePages = 600;
constexpr char kNoiseUrlPrefix[] = "web://news/";
/// The year the web publishes weather for (the questions ask about it).
constexpr int kWebYear = 2004;
/// Sales and Weather history of the archive tenant: three years, just over
/// 10k sales facts.
constexpr int kArchiveDays = 1096;
/// Memtable documents per sealed segment on serve_mix tenants, so that a
/// run's ingests seal segments and trigger merges.
constexpr size_t kServeMixSealEvery = 16;
constexpr size_t kFederationThreads = 2;

/// Moves a freshly built warehouse to the heap (Warehouse has no public
/// default constructor).
Result<std::unique_ptr<dw::Warehouse>> OnHeap(Result<dw::Warehouse> made) {
  DWQA_ASSIGN_OR_RETURN(dw::Warehouse wh, std::move(made));
  return std::make_unique<dw::Warehouse>(std::move(wh));
}

bool IsWithheld(const ir::Document& doc) {
  std::string_view url = doc.url;
  if (url.substr(0, sizeof(kNoiseUrlPrefix) - 1) != kNoiseUrlPrefix) {
    return false;
  }
  size_t index = std::stoul(std::string(url.substr(sizeof(kNoiseUrlPrefix) - 1)));
  return index >= kCorpusNoisePages;
}

serve::ServeTenantConfig BaseTenant(Fixture* fx, const std::string& name,
                                    dw::Warehouse* wh,
                                    const ir::DocumentStore* docs) {
  serve::ServeTenantConfig tenant;
  tenant.name = name;
  tenant.warehouse = wh;
  tenant.uml = &fx->uml;
  tenant.docs = docs;
  tenant.pipeline = LastMinuteSales::DefaultPipelineConfig();
  tenant.pipeline.trace_questions = fx->spec.traced;
  // Long enough that an entry outlives a run's traffic to it: the cache
  // holds the whole ask pool, so misses are first asks and no_cache asks.
  tenant.cache.ttl_ticks = uint64_t{1} << 40;
  return tenant;
}

/// A Weather history of `days` days for every airline city, loaded the way
/// the Step-5 feed loads a fact (city, date path, source URL; one Celsius
/// measure): the state of a warehouse fed in the past.
Status LoadWeatherHistory(dw::Warehouse* wh, const web::WeatherModel& weather,
                          const Date& start, int days) {
  dw::EtlLoader loader(wh);
  std::set<std::string> cities;
  for (const auto& airport : LastMinuteSales::Airports()) {
    cities.insert(airport.city);
  }
  for (const std::string& city : cities) {
    Date date = start;
    for (int d = 0; d < days; ++d, date = date.NextDay()) {
      auto celsius = weather.TemperatureCelsius(city, date);
      if (!celsius.ok()) continue;
      dw::FactRecord record;
      record.role_paths = {{city},
                           dw::DateMemberPath(date),
                           {"web://history/" + ToLower(city)}};
      record.measures = {dw::Value(*celsius)};
      DWQA_RETURN_NOT_OK(loader.LoadRecord("Weather", record));
    }
  }
  return Status::OK();
}

/// A tenant warehouse: a year of sales (plus, with `weather_history`, a
/// year of Weather facts) and its derived view catalog bound.
Result<dw::Warehouse*> AddSalesWarehouse(Fixture* fx,
                                         const web::WeatherModel& weather,
                                         bool weather_history) {
  DWQA_ASSIGN_OR_RETURN(std::unique_ptr<dw::Warehouse> wh,
                        OnHeap(LastMinuteSales::MakeWarehouse()));
  DWQA_RETURN_NOT_OK(LastMinuteSales::GenerateSales(
                         wh.get(), weather, Date(kWebYear, 1, 1), 366)
                         .status());
  if (weather_history) {
    DWQA_RETURN_NOT_OK(
        LoadWeatherHistory(wh.get(), weather, Date(kWebYear, 1, 1), 366));
  }
  auto catalog = std::make_unique<dw::ViewCatalog>();
  DWQA_RETURN_NOT_OK(
      catalog->DefineAll(dw::DeriveViewsFromSchema(wh->schema())));
  wh->AttachViews(catalog.get());
  DWQA_RETURN_NOT_OK(catalog->Bind(*wh));
  fx->catalogs.push_back(std::move(catalog));
  fx->warehouses.push_back(std::move(wh));
  return fx->warehouses.back().get();
}

Status SetUpFeedBi(Fixture* fx, const ir::DocumentStore* docs) {
  const web::WeatherModel& weather = fx->web->weather();
  for (size_t i = 0; i < fx->spec.fed_tenants; ++i) {
    FedTenant fed;
    fed.name = "fed" + std::to_string(i);
    fed.wal_dir = fx->spec.wal_root + "/" + fed.name;
    DWQA_ASSIGN_OR_RETURN(fed.warehouse,
                          AddSalesWarehouse(fx, weather, false));
    serve::ServeTenantConfig tenant =
        BaseTenant(fx, fed.name, fed.warehouse, docs);
    tenant.pipeline.resilience.durability.dir = fed.wal_dir;
    tenant.pipeline.resilience.durability.sync_each_append = true;
    DWQA_RETURN_NOT_OK(fx->server->AddTenant(tenant));
    fx->fed_tenants.push_back(fed);
  }

  // The archive: a long sales history, no views, and a federation reaching
  // the partner airline's independently designed warehouse.
  DWQA_ASSIGN_OR_RETURN(std::unique_ptr<dw::Warehouse> archive,
                        OnHeap(LastMinuteSales::MakeWarehouse()));
  DWQA_RETURN_NOT_OK(LastMinuteSales::GenerateSales(
                         archive.get(), weather, Date(kWebYear - 2, 1, 1),
                         kArchiveDays)
                         .status());
  DWQA_RETURN_NOT_OK(LoadWeatherHistory(
      archive.get(), weather, Date(kWebYear - 2, 1, 1), kArchiveDays));
  fx->archive_warehouse = archive.get();
  fx->warehouses.push_back(std::move(archive));

  DWQA_ASSIGN_OR_RETURN(fx->partner,
                        OnHeap(dw::fed::PartnerAirline::MakeWarehouse()));
  DWQA_RETURN_NOT_OK(dw::fed::PartnerAirline::GeneratePartnerSales(
                         fx->partner.get(), Date(kWebYear, 1, 1), 366)
                         .status());
  DWQA_RETURN_NOT_OK(dw::fed::PartnerAirline::GeneratePartnerWeather(
                         fx->partner.get(), Date(kWebYear, 1, 1), 366)
                         .status());
  dw::fed::SchemaMatcher matcher(
      dw::fed::PartnerAirline::DefaultMatcherOptions());
  DWQA_ASSIGN_OR_RETURN(fx->mapping,
                        matcher.Match(*fx->archive_warehouse, *fx->partner));
  fx->fed_pool = std::make_unique<ThreadPool>(kFederationThreads);
  fx->federation = std::make_unique<dw::fed::FederatedEngine>(
      fx->archive_warehouse, "archive");
  DWQA_RETURN_NOT_OK(
      fx->federation->AddRemote("partner", fx->partner.get(), fx->mapping));
  fx->federation->set_pool(fx->fed_pool.get());
  fx->federation->set_metrics(&fx->fed_metrics);

  // The archive takes no asks; a one-page corpus keeps its registration
  // cheap.
  auto archive_docs = std::make_unique<ir::DocumentStore>();
  const ir::Document& first = docs->Get(0);
  archive_docs->Add(first.url, first.title, first.format, first.raw);
  fx->archive = "archive";
  serve::ServeTenantConfig tenant = BaseTenant(
      fx, fx->archive, fx->archive_warehouse, archive_docs.get());
  tenant.federation = fx->federation.get();
  fx->stores.push_back(std::move(archive_docs));
  return fx->server->AddTenant(tenant);
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kAskLive:
      return "ask_live";
    case Workload::kFeedBi:
      return "feed_bi";
    case Workload::kServeMix:
      return "serve_mix";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kAskLive, Workload::kFeedBi,
                     Workload::kServeMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

size_t ClientCount(Workload workload) {
  switch (workload) {
    case Workload::kAskLive:
      return 2;
    case Workload::kFeedBi:
      return 1;
    case Workload::kServeMix:
      return 3;
  }
  return 1;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kAsk:
      return "ask";
    case Kind::kFeed:
      return "feed";
    case Kind::kBiView:
      return "bi_view";
    case Kind::kBiRecompute:
      return "bi_recompute";
    case Kind::kBiFederated:
      return "bi_fed";
    case Kind::kIngest:
      return "ingest";
  }
  return "?";
}

Result<std::unique_ptr<Fixture>> BuildFixture(const FixtureSpec& spec) {
  auto fx = std::make_unique<Fixture>();
  fx->spec = spec;

  // The full synthetic web: every city of the weather model x 12 months,
  // prose and table pages, price pages, encyclopedia and distractors.
  web::WebConfig config;
  config.year = kWebYear;
  config.months = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  config.noise_pages = kCorpusNoisePages + kWithheldNoisePages;
  DWQA_ASSIGN_OR_RETURN(web::SyntheticWeb built,
                        web::SyntheticWeb::Build(config));
  fx->web = std::make_unique<web::SyntheticWeb>(std::move(built));
  fx->uml = LastMinuteSales::MakeUmlModel();

  auto corpus = std::make_unique<ir::DocumentStore>();
  for (const ir::Document& doc : fx->web->documents().documents()) {
    if (IsWithheld(doc)) {
      fx->withheld.push_back(doc);
    } else {
      corpus->Add(doc.url, doc.title, doc.format, doc.raw);
    }
  }
  const ir::DocumentStore* docs = corpus.get();
  fx->stores.push_back(std::move(corpus));

  for (web::GoldQuestion& q : web::QuestionFactory::WeatherQuestions(*fx->web)) {
    fx->feed_questions.push_back(q.question);
    fx->questions.push_back(std::move(q));
  }
  std::vector<std::pair<std::string, std::string>> airport_of_city;
  for (const auto& airport : LastMinuteSales::Airports()) {
    airport_of_city.push_back({ToLower(airport.city), airport.name});
  }
  for (web::GoldQuestion& q : web::QuestionFactory::AirportWeatherQuestions(
           *fx->web, airport_of_city)) {
    fx->questions.push_back(std::move(q));
  }
  for (web::GoldQuestion& q : web::QuestionFactory::ClefStyleQuestions()) {
    fx->questions.push_back(std::move(q));
  }

  fx->server = std::make_unique<serve::QaServer>();
  const web::WeatherModel& weather = fx->web->weather();
  switch (spec.workload) {
    case Workload::kAskLive:
      for (size_t i = 0; i < 3; ++i) {
        DWQA_ASSIGN_OR_RETURN(std::unique_ptr<dw::Warehouse> wh,
                              OnHeap(LastMinuteSales::MakeWarehouse()));
        std::string name = "ask" + std::to_string(i);
        DWQA_RETURN_NOT_OK(
            fx->server->AddTenant(BaseTenant(fx.get(), name, wh.get(), docs)));
        fx->warehouses.push_back(std::move(wh));
        fx->tenants.push_back(name);
      }
      break;
    case Workload::kServeMix:
      for (size_t i = 0; i < 3; ++i) {
        DWQA_ASSIGN_OR_RETURN(dw::Warehouse * wh,
                              AddSalesWarehouse(fx.get(), weather, true));
        auto store = std::make_unique<ir::DocumentStore>(*docs);
        std::string name = "mix" + std::to_string(i);
        serve::ServeTenantConfig tenant =
            BaseTenant(fx.get(), name, wh, store.get());
        tenant.ingest_docs = store.get();
        tenant.pipeline.qa.index_options.seal_every = kServeMixSealEvery;
        DWQA_RETURN_NOT_OK(fx->server->AddTenant(tenant));
        fx->stores.push_back(std::move(store));
        fx->tenants.push_back(name);
      }
      break;
    case Workload::kFeedBi:
      std::filesystem::create_directories(spec.wal_root);
      DWQA_RETURN_NOT_OK(SetUpFeedBi(fx.get(), docs));
      break;
  }
  return fx;
}

}  // namespace perfbench
