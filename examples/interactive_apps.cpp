// Application-level benefits (§7): what a speed-of-light network does for
// online gaming and web browsing, using the library's application models.
// Registered as the `interactive_apps` experiment.

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext&) {
  engine::ResultSet results;

  auto& gaming = results.add_table(
      "interactive_apps_gaming",
      "gaming (thin client with speculation, §7.1): frame time vs distance",
      {"route", "conv_rtt_ms", "conventional_ms", "augmented_ms"});
  struct Route {
    const char* name;
    double rtt_ms;
  };
  for (const Route& r : {Route{"same metro", 10.0},
                         Route{"NYC <-> Chicago", 60.0},
                         Route{"NYC <-> LA", 140.0},
                         Route{"transatlantic-ish", 240.0}}) {
    const auto conv = apps::conventional_frame_time(r.rtt_ms);
    const auto fast = apps::augmented_frame_time(r.rtt_ms);
    gaming.row({r.name, engine::Value::real(r.rtt_ms, 0),
                engine::Value::real(conv.mean_ms, 0),
                engine::Value::real(fast.mean_ms, 0)});
  }

  const auto corpus = apps::generate_corpus();
  Samples base_plt;
  Samples cisp_plt;
  Samples sel_plt;
  for (const auto& page : corpus) {
    apps::ReplayParams baseline;
    apps::ReplayParams both;
    both.up_scale = 0.33;
    both.down_scale = 0.33;
    apps::ReplayParams selective;
    selective.up_scale = 0.33;
    base_plt.add(apps::replay_page(page, baseline).page_load_time_ms);
    cisp_plt.add(apps::replay_page(page, both).page_load_time_ms);
    sel_plt.add(apps::replay_page(page, selective).page_load_time_ms);
  }
  auto& web = results.add_table(
      "interactive_apps_web",
      "web browsing (Mahimahi-style replay, §7.2): median page load",
      {"config", "median_plt_ms"});
  web.row({"baseline", engine::Value::real(base_plt.median(), 0)});
  web.row({"cISP", engine::Value::real(cisp_plt.median(), 0)});
  web.row({"cISP selective", engine::Value::real(sel_plt.median(), 0)});

  const auto ecom = apps::ecommerce_value_per_gb(200.0);
  auto& econ = results.add_table("interactive_apps_econ",
                                 "economics (§8): value per GB",
                                 {"application", "low", "high"});
  econ.row({"web search",
            engine::Value::money(apps::web_search_value_per_gb(200.0)),
            engine::Value::money(apps::web_search_value_per_gb(400.0))});
  econ.row({"e-commerce", engine::Value::money(ecom.low_usd_per_gb),
            engine::Value::money(ecom.high_usd_per_gb)});
  econ.row({"gaming", engine::Value::money(apps::gaming_value_per_gb()),
            "-"});
  results.note("vs cISP cost: ~$0.81 per GB (Fig. 3 design)");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "interactive_apps",
     .description = "§7/§8: gaming, web and economics application models",
     .tags = {"example", "apps", "economics"},
     .params = {}},
    run};

}  // namespace
