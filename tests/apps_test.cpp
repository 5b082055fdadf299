// Unit tests for the application models: gaming frame times (Fig. 12
// mechanism), the web replayer (Fig. 13 mechanism), and the §8
// cost-benefit arithmetic against the paper's published numbers.

#include <gtest/gtest.h>

#include <cmath>

#include "apps/econ.hpp"
#include "apps/gaming.hpp"
#include "apps/web.hpp"
#include "util/error.hpp"

namespace cisp::apps {
namespace {

TEST(Gaming, ConventionalGrowsLinearlyWithRtt) {
  const auto at100 = conventional_frame_time(100.0);
  const auto at300 = conventional_frame_time(300.0);
  EXPECT_NEAR(at300.mean_ms - at100.mean_ms, 200.0, 5.0);
}

TEST(Gaming, AugmentationFlattensFrameTime) {
  // Fig. 12: with the low-latency fast path, frame time grows at ~1/3 the
  // slope and stays far below conventional-only at high RTTs.
  const auto conv = conventional_frame_time(300.0);
  const auto fast = augmented_frame_time(300.0);
  EXPECT_LT(fast.mean_ms, conv.mean_ms - 150.0);
  const auto conv0 = conventional_frame_time(0.0);
  const auto fast0 = augmented_frame_time(0.0);
  // At zero network latency both reduce to processing + tick alignment.
  EXPECT_NEAR(conv0.mean_ms, fast0.mean_ms, 3.0);
  // Slope check.
  const double conv_slope =
      (conv.mean_ms - conv0.mean_ms) / 300.0;
  const double fast_slope =
      (fast.mean_ms - fast0.mean_ms) / 300.0;
  EXPECT_NEAR(conv_slope, 1.0, 0.05);
  EXPECT_NEAR(fast_slope, 1.0 / 3.0, 0.05);
}

TEST(Gaming, SpeculationMissesRaiseTail) {
  GamingParams hit_all;
  hit_all.speculation_hit_rate = 1.0;
  GamingParams miss_some;
  miss_some.speculation_hit_rate = 0.85;
  const auto clean = augmented_frame_time(240.0, hit_all);
  const auto missy = augmented_frame_time(240.0, miss_some);
  EXPECT_GT(missy.p95_ms, clean.p95_ms + 50.0);
}

TEST(Gaming, FatClientIsPureRttCut) {
  EXPECT_NEAR(fat_client_rtt_ms(120.0), 40.0, 1e-9);
}

TEST(Gaming, RejectsNegativeRtt) {
  EXPECT_THROW((void)conventional_frame_time(-1.0), cisp::Error);
}

TEST(Web, CorpusShapeAndDeterminism) {
  const auto corpus = generate_corpus();
  ASSERT_EQ(corpus.size(), 80u);
  const auto corpus2 = generate_corpus();
  EXPECT_EQ(corpus[0].objects.size(), corpus2[0].objects.size());
  for (const auto& page : corpus) {
    EXPECT_GE(page.objects.size(), 4u);
    EXPECT_LE(page.objects.size(), 220u);
    EXPECT_EQ(page.objects[0].depth, 0);
    EXPECT_GE(page.base_rtt_ms, 15.0);
    EXPECT_LE(page.base_rtt_ms, 250.0);
  }
}

TEST(Web, FullRttReductionCutsPltButLessThanProportionally) {
  const auto corpus = generate_corpus();
  Samples baseline;
  Samples cisp;
  for (const auto& page : corpus) {
    ReplayParams base;
    ReplayParams fast;
    fast.up_scale = 0.33;
    fast.down_scale = 0.33;
    baseline.add(replay_page(page, base).page_load_time_ms);
    cisp.add(replay_page(page, fast).page_load_time_ms);
  }
  const double reduction = 1.0 - cisp.median() / baseline.median();
  // Paper Fig 13(a): 31% median PLT reduction from a 66% RTT reduction —
  // well below 66% because of non-network time.
  EXPECT_GT(reduction, 0.18);
  EXPECT_LT(reduction, 0.48);
}

TEST(Web, SelectiveGivesMostOfTheBenefitForFewBytes) {
  const auto corpus = generate_corpus();
  Samples baseline;
  Samples selective;
  std::size_t up = 0;
  std::size_t down = 0;
  for (const auto& page : corpus) {
    ReplayParams base;
    ReplayParams sel;
    sel.up_scale = 0.33;  // client->server only
    baseline.add(replay_page(page, base).page_load_time_ms);
    const auto result = replay_page(page, sel);
    selective.add(result.page_load_time_ms);
    up += result.bytes_up;
    down += result.bytes_down;
  }
  const double reduction = 1.0 - selective.median() / baseline.median();
  EXPECT_GT(reduction, 0.08);
  // Bytes riding cISP: requests only — paper reports 8.5%.
  const double up_fraction =
      static_cast<double>(up) / static_cast<double>(up + down);
  EXPECT_LT(up_fraction, 0.15);
  EXPECT_GT(up_fraction, 0.002);
}

TEST(Web, ObjectLoadTimesImproveMoreThanPlt) {
  // Paper: OLTs drop ~49% for the same 66% RTT cut (less non-network
  // overhead per object than per page).
  const auto corpus = generate_corpus();
  Samples olt_base;
  Samples olt_cisp;
  Samples plt_base;
  Samples plt_cisp;
  for (const auto& page : corpus) {
    ReplayParams base;
    ReplayParams fast;
    fast.up_scale = 0.33;
    fast.down_scale = 0.33;
    auto rb = replay_page(page, base);
    auto rc = replay_page(page, fast);
    olt_base.add_all(rb.object_load_times_ms.values());
    olt_cisp.add_all(rc.object_load_times_ms.values());
    plt_base.add(rb.page_load_time_ms);
    plt_cisp.add(rc.page_load_time_ms);
  }
  const double olt_reduction = 1.0 - olt_cisp.median() / olt_base.median();
  const double plt_reduction = 1.0 - plt_cisp.median() / plt_base.median();
  EXPECT_GT(olt_reduction, plt_reduction);
  EXPECT_GT(olt_reduction, 0.35);
  EXPECT_LE(olt_reduction, 0.665);
}

TEST(Web, ReplayRejectsBadInput) {
  WebPage page;
  EXPECT_THROW(replay_page(page), cisp::Error);
}

TEST(Econ, WebSearchMatchesPaperNumbers) {
  // Paper §8: +200 ms -> $87M/yr and $1.84/GB; +400 ms -> $177M and $3.74.
  EXPECT_NEAR(web_search_profit_usd_per_year(200.0), 87e6, 10e6);
  EXPECT_NEAR(web_search_profit_usd_per_year(400.0), 177e6, 15e6);
  EXPECT_NEAR(web_search_value_per_gb(200.0), 1.84, 0.25);
  EXPECT_NEAR(web_search_value_per_gb(400.0), 3.74, 0.40);
}

TEST(Econ, EcommerceMatchesPaperRange) {
  // Paper §8: 200 ms saved, <10% of bytes on cISP -> $3.26-$22.82 per GB.
  const auto range = ecommerce_value_per_gb(200.0);
  EXPECT_NEAR(range.low_usd_per_gb, 3.26, 0.40);
  EXPECT_NEAR(range.high_usd_per_gb, 22.82, 2.0);
  EXPECT_LT(range.low_usd_per_gb, range.high_usd_per_gb);
}

TEST(Econ, GamingMatchesPaperNumbers) {
  // Paper §8: 8 h/day at 10 Kbps is 1.08 GB/month; $4/mo -> >= $3.7/GB.
  EXPECT_NEAR(gaming_gb_per_month(), 1.08, 0.05);
  EXPECT_NEAR(gaming_value_per_gb(), 3.7, 0.2);
}

TEST(Econ, ValueExceedsCost) {
  // The paper's bottom line: every per-GB value estimate clears the $0.81
  // cost estimate.
  const double cost = 0.81;
  EXPECT_GT(web_search_value_per_gb(200.0), cost);
  EXPECT_GT(ecommerce_value_per_gb(200.0).low_usd_per_gb, cost);
  EXPECT_GT(gaming_value_per_gb(), cost);
}

TEST(Econ, RejectsNegativeSpeedup) {
  EXPECT_THROW((void)web_search_profit_usd_per_year(-5.0), cisp::Error);
  EXPECT_THROW((void)ecommerce_value_per_gb(-5.0), cisp::Error);
}

}  // namespace
}  // namespace cisp::apps
