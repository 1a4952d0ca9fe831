// serve — QA-as-a-service on stdin/stdout: a long-lived, multi-tenant
// serving loop speaking the framed DWQA1 protocol (docs/SERVING.md).
// Two tenants ("alpha" and "beta") are registered over the synthetic web,
// each with its own pipeline, answer cache and circuit breaker. Tenant
// alpha owns a mutable copy of the corpus, so its `ingest` endpoint is
// live: a document posted in the frame payload becomes searchable
// without a reindex (DESIGN.md §14). An ingest frame carries the
// document metadata as headers — `url=`, `title=`, and `format=` with
// one of `text` (default), `html` or `xml`; any other format value is
// rejected at parse time with "protocol: unknown format '...'" — and
// the document body after the blank line:
//
//   endpoint=ingest
//   id=9
//   tenant=alpha
//   url=http://example.test/new-page
//   format=html
//
//   <html>the body, verbatim — newlines welcome</html>
//
// Alpha also carries a materialized view catalog derived from the
// schema's conformed levels, so its `bi` responses answer from
// pre-aggregated views (`sales_from_view=1`,
// maintained incrementally as `feed` loads facts — DESIGN.md §15), while
// beta demonstrates the recompute fallback.
//
//   printf 'DWQA1 %s' "$(printf 'endpoint=ask\nid=1\ntenant=alpha\nq=What is the temperature in Barcelona in January of 2004?\n' | wc -c)" \
//     && printf '\nendpoint=ask\nid=1\ntenant=alpha\nq=...\n'
//
// or, much easier, pre-framed request files:
//
//   ./build/examples/serve < requests.dwqa > responses.dwqa
//
// SIGTERM/SIGINT request a graceful drain: in-flight requests finish,
// durable tenants are snapshotted, late arrivals get the typed Draining
// rejection, and the process exits 0.

#include <csignal>
#include <iostream>
#include <memory>
#include <string_view>
#include <vector>

#include "common/date.h"
#include "dw/materialized_view.h"
#include "integration/last_minute_sales.h"
#include "serve/server.h"
#include "web/synthetic_web.h"

using namespace dwqa;
using integration::LastMinuteSales;

namespace {

serve::QaServer* g_server = nullptr;

// Signal-safe: RequestDrain is a single atomic store.
void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main() {
  web::WebConfig web_config;
  web_config.months = {1, 7};
  auto webb = web::SyntheticWeb::Build(web_config).ValueOrDie();
  ontology::UmlModel uml = LastMinuteSales::MakeUmlModel();

  serve::ServerConfig config;
  config.admission.max_queue_depth = 32;
  config.admission.per_tenant_concurrency = 8;
  serve::QaServer server(config);

  // Alpha's corpus copy stays mutable so the ingest endpoint can append.
  ir::DocumentStore alpha_docs;
  for (const ir::Document& doc : webb.documents().documents()) {
    alpha_docs.Add(doc.url, doc.title, doc.format, doc.raw);
  }

  std::vector<std::unique_ptr<dw::Warehouse>> warehouses;
  std::vector<std::unique_ptr<dw::ViewCatalog>> catalogs;
  for (const char* name : {"alpha", "beta"}) {
    auto wh = std::make_unique<dw::Warehouse>(
        LastMinuteSales::MakeWarehouse().ValueOrDie());
    if (std::string_view(name) == "alpha") {
      auto views = std::make_unique<dw::ViewCatalog>();
      if (auto st = views->DefineAll(
              dw::DeriveViewsFromSchema(wh->schema()));
          !st.ok()) {
        std::cerr << st << std::endl;
        return 1;
      }
      wh->AttachViews(views.get());
      catalogs.push_back(std::move(views));
    }
    if (auto generated = LastMinuteSales::GenerateSales(
            wh.get(), webb.weather(), Date(2004, 1, 1), 59);
        !generated.ok()) {
      std::cerr << generated.status() << std::endl;
      return 1;
    }
    if (wh->views() != nullptr) {
      if (auto st = wh->views()->Bind(*wh); !st.ok()) {
        std::cerr << st << std::endl;
        return 1;
      }
    }
    serve::ServeTenantConfig tenant;
    tenant.name = name;
    tenant.warehouse = wh.get();
    tenant.uml = &uml;
    tenant.docs = &webb.documents();
    if (std::string_view(name) == "alpha") {
      tenant.docs = &alpha_docs;
      tenant.ingest_docs = &alpha_docs;
    }
    tenant.pipeline = LastMinuteSales::DefaultPipelineConfig();
    tenant.breaker.enabled = true;
    if (auto st = server.AddTenant(tenant); !st.ok()) {
      std::cerr << st << std::endl;
      return 1;
    }
    warehouses.push_back(std::move(wh));
  }

  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::cerr << "dwqa serve — tenants: alpha, beta; corpus: "
            << webb.documents().size()
            << " documents. Reading DWQA1 frames from stdin.\n"
            << "endpoints: ask feed bi ingest health metrics; ingest "
               "headers: url= title= format= (text|html|xml, payload = "
               "document body); see docs/SERVING.md\n";
  Status st = server.ServeStream(std::cin, std::cout);
  if (!st.ok()) {
    std::cerr << st << std::endl;
    return 1;
  }
  std::cerr << "drained cleanly after " << server.now_tick()
            << " requests\n";
  return 0;
}
