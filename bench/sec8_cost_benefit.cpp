// §8: the cost-benefit table. Value per GB for web search, e-commerce and
// gaming — each computed from the paper's cited constants — against the
// $0.81/GB cost estimate from Fig. 3's design.

#include "bench_common.hpp"

namespace {
using namespace cisp;

engine::ResultSet run(const engine::ExperimentContext&) {
  engine::ResultSet results;
  auto& table = results.add_table(
      "sec8_value", "§8: value per GB by application",
      {"application", "assumption", "value_per_gb", "paper"});
  table.row({"web search", "+200 ms PLT win",
             engine::Value::money(apps::web_search_value_per_gb(200.0)),
             "$1.84"});
  table.row({"web search", "+400 ms PLT win",
             engine::Value::money(apps::web_search_value_per_gb(400.0)),
             "$3.74"});
  const auto ecom = apps::ecommerce_value_per_gb(200.0);
  table.row({"e-commerce", "200 ms, 1%/100ms conversion",
             engine::Value::money(ecom.low_usd_per_gb), "$3.26"});
  table.row({"e-commerce", "200 ms, 7%/100ms conversion",
             engine::Value::money(ecom.high_usd_per_gb), "$22.82"});
  table.row({"gaming", "$4/mo VPN, 8 h/day at 10 Kbps",
             engine::Value::money(apps::gaming_value_per_gb()), ">= $3.70"});

  auto& detail = results.add_table("sec8_detail", "§8 supporting numbers",
                                   {"quantity", "measured", "paper"});
  detail.row({"search profit/yr at +200 ms",
              fmt_money(apps::web_search_profit_usd_per_year(200.0) / 1e6, 0) +
                  "M",
              "$87M"});
  detail.row({"search profit/yr at +400 ms",
              fmt_money(apps::web_search_profit_usd_per_year(400.0) / 1e6, 0) +
                  "M",
              "$177M"});
  detail.row({"gaming GB per player-month",
              engine::Value::real(apps::gaming_gb_per_month(), 2), "1.08"});

  results.note(
      "Bottom line (paper §8): every value estimate clears the $0.81/GB "
      "cost —\nthe economic argument for cISP-like designs holds with "
      "margin.");
  return results;
}

const engine::RegisterExperiment kRegistration{
    {.name = "sec8_cost_benefit",
     .description = "§8: value-per-GB vs cost-per-GB",
     .tags = {"bench", "economics"},
     .params = {}},
    run};

}  // namespace
