#pragma once
// Aggregated city-pair demands — the flow backend's unit of work. Instead
// of one packet source per user, every ordered (src, dst) pair carries ONE
// fluid flow with a user count and an aggregate offered rate, so an
// instance with 10^6+ users costs O(site_pairs) memory, not O(users).
// The packet backend consumes the same matrix through to_demands(), which
// is what keeps the two backends loading identical traffic.

#include <cstdint>
#include <vector>

#include "net/routing.hpp"

namespace cisp::net::flow {

/// One aggregated ordered-pair demand: all users from src to dst fused
/// into a single fluid flow.
struct PairDemand {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  /// Users aggregated into this flow (1 when built from a raw traffic
  /// matrix without a user model).
  std::uint64_t users = 1;
  /// Aggregate offered rate of the pair, bps.
  double rate_bps = 0.0;
};

class DemandMatrix {
 public:
  /// Expands a traffic matrix into per-ordered-pair demands totalling
  /// `aggregate_gbps * rate_scale`; `.to_demands()` gives the flat demand
  /// list the routing and repair layers take. Each pair counts as one
  /// user.
  [[nodiscard]] static DemandMatrix from_traffic(
      const std::vector<std::vector<double>>& traffic, double aggregate_gbps,
      double rate_scale);

  /// Apportions `total_users` across ordered pairs proportionally to the
  /// traffic matrix (largest-remainder method, ties broken by pair index,
  /// so the split is deterministic and sums exactly to `total_users`).
  /// Each pair's offered rate is `users * per_user_bps * rate_scale`;
  /// pairs receiving zero users are dropped.
  [[nodiscard]] static DemandMatrix from_users(
      const std::vector<std::vector<double>>& traffic,
      std::uint64_t total_users, double per_user_bps, double rate_scale = 1.0);

  /// Rebuilds a matrix from explicit pair demands (totals recomputed).
  /// The scenario generators (src/net/scenario/) use this to return
  /// transformed copies — regional skew, diurnal phase — of a base matrix.
  /// Pairs with non-positive rate are dropped.
  [[nodiscard]] static DemandMatrix from_pairs(std::vector<PairDemand> pairs);

  [[nodiscard]] const std::vector<PairDemand>& pairs() const noexcept {
    return pairs_;
  }
  [[nodiscard]] std::size_t flow_count() const noexcept {
    return pairs_.size();
  }
  [[nodiscard]] std::uint64_t total_users() const noexcept { return users_; }
  [[nodiscard]] double total_rate_bps() const noexcept { return rate_bps_; }

  /// In-place rate rewrite for streaming timelines: pair i's offered rate
  /// becomes `rate_of(i, pairs()[i])` and the rate total is recomputed.
  /// Unlike from_pairs, zero-rate pairs are KEPT — pair indices (and thus
  /// flow ids, routes, and warm allocator state) stay stable across
  /// epochs — and users are never re-apportioned. Rates must be finite
  /// and non-negative.
  template <typename Fn>
  void update_rates(Fn&& rate_of) {
    double total = 0.0;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const double rate = rate_of(i, pairs_[i]);
      check_rate(rate);
      pairs_[i].rate_bps = rate;
      total += rate;
    }
    rate_bps_ = total;
  }

  /// Uniform in-place scaling (e.g. demand growth): every rate *= factor.
  void scale_rates(double factor);

  /// The packet layer's demand list, in pair order (flow ids there are
  /// indices into pairs()).
  [[nodiscard]] std::vector<TrafficDemand> to_demands() const;

 private:
  static void check_rate(double rate);

  std::vector<PairDemand> pairs_;
  std::uint64_t users_ = 0;
  double rate_bps_ = 0.0;
};

}  // namespace cisp::net::flow
