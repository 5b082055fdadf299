// Tests for the extension features beyond the paper's headline pipeline:
// technology profiles (§3.4 generality) and the ASCII map renderer used by
// the topology figures.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "rf/link_budget.hpp"
#include "rf/rain.hpp"
#include "rf/technology.hpp"
#include "util/ascii_map.hpp"
#include "util/error.hpp"

namespace cisp {
namespace {

TEST(Technology, ProfilesEncodeTheRangeBandwidthTradeoff) {
  const auto mw = rf::microwave();
  const auto mmw = rf::millimeter_wave();
  const auto fso = rf::free_space_optics();
  // Range ordering: MW >> MMW > FSO.
  EXPECT_GT(mw.max_range_km, 3.0 * mmw.max_range_km);
  EXPECT_GT(mmw.max_range_km, fso.max_range_km);
  // Bandwidth ordering is inverted.
  EXPECT_LT(mw.series_gbps, mmw.series_gbps);
  EXPECT_LT(mmw.series_gbps, fso.series_gbps);
  // Only FSO fears fog.
  EXPECT_DOUBLE_EQ(mw.fog_outage_probability, 0.0);
  EXPECT_GT(fso.fog_outage_probability, 0.0);
}

TEST(Technology, HigherBandsBreakAtLowerRainRates) {
  const auto mw = rf::microwave();
  const auto mmw = rf::millimeter_wave();
  // Same 12 km hop: the E-band hop dies at a far lower rain rate.
  const double mw_threshold = rf::outage_rain_rate_mm_h(12.0, mw.budget);
  const double mmw_threshold = rf::outage_rain_rate_mm_h(12.0, mmw.budget);
  EXPECT_LT(mmw_threshold, mw_threshold * 0.5);
}

TEST(Technology, FresnelNeedsShrinkWithBeamWidth) {
  EXPECT_LT(rf::free_space_optics().fresnel_fraction,
            rf::millimeter_wave().fresnel_fraction);
  EXPECT_LT(rf::millimeter_wave().fresnel_fraction,
            rf::microwave().fresnel_fraction + 1e-12);
}

TEST(AsciiMap, PlotsLinesAndLabelsInsideBox) {
  AsciiMap map(24.0, 50.0, -125.0, -66.0, 60, 20);
  map.line(40.7, -74.0, 34.05, -118.24, '*');
  map.plot(40.7, -74.0, 'O');
  map.label(45.0, -100.0, "HELLO");
  std::ostringstream os;
  map.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find('O'), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("HELLO"), std::string::npos);
  // 20 grid rows + 2 border rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 22);
}

TEST(AsciiMap, IgnoresOutOfBoxPoints) {
  AsciiMap map(24.0, 50.0, -125.0, -66.0, 60, 20);
  map.plot(60.0, -100.0, 'X');  // north of the box
  map.plot(40.0, -130.0, 'X');  // west of the box
  std::ostringstream os;
  map.print(os);
  EXPECT_EQ(os.str().find('X'), std::string::npos);
}

TEST(AsciiMap, RejectsDegenerateBox) {
  EXPECT_THROW(AsciiMap(10.0, 10.0, 0.0, 1.0), Error);
  EXPECT_THROW(AsciiMap(0.0, 1.0, 0.0, 1.0, 4, 4), Error);
}

}  // namespace
}  // namespace cisp
