#include <gtest/gtest.h>

#include <cmath>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NullBelowTheSampleFloor) {
  // 216 samples: p99.9 has nothing beyond it (it is the maximum), p99 has 2.
  auto v = ramp(216);
  EXPECT_FALSE(percentile(v, 0.999).value.has_value());
  EXPECT_EQ(percentile(v, 0.999).count, 216u);
  EXPECT_FALSE(percentile(v, 0.99).value.has_value());
  EXPECT_TRUE(percentile(v, 0.50).value.has_value());
}

TEST(Percentile, FloorIsExactlyTenBeyond) {
  auto v = ramp(1000);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  ASSERT_TRUE(percentile(v, 0.99).value.has_value());
  EXPECT_DOUBLE_EQ(*percentile(v, 0.99).value, 990.0);
  auto w = ramp(999);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(percentile(w, 0.99).value.has_value());
}

TEST(Percentile, NearestRankMedianAndEmptySet) {
  std::vector<double> v = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10,
                           11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  ASSERT_TRUE(percentile(v, 0.5).value.has_value());
  EXPECT_DOUBLE_EQ(*percentile(v, 0.5).value, 10.0);
  std::vector<double> empty;
  EXPECT_FALSE(percentile(empty, 0.5).value.has_value());
  EXPECT_EQ(percentile(empty, 0.5).count, 0u);
}

TEST(Median, OddAndEven) {
  std::vector<double> odd = {3, 1, 2};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(StageClosure, WeighsTheUntracedMeansAtTheTracedHitShare) {
  StageMeans m;
  m.pre_engine_us = 100;
  m.engine_us = 20;
  m.upstream_us = 300;
  m.learn_us = 30;
  m.post_engine_us = 50;
  // Untraced: hits 200 us, misses 800 us; at a 50% hit share they average 500.
  const OutcomeMeans untraced{200, 800};
  const Closure exact = stage_closure(m, 0.5, untraced, 5.0);
  EXPECT_DOUBLE_EQ(exact.stage_sum_us, 500);
  EXPECT_DOUBLE_EQ(exact.end_to_end_us, 500);
  EXPECT_DOUBLE_EQ(exact.error_pct, 0);
  EXPECT_TRUE(exact.closes);
  // At a 40% hit share the untraced requests average 560 us: 60 us (10.7%) of
  // it is not in the traced stages.
  const Closure open = stage_closure(m, 0.4, untraced, 5.0);
  EXPECT_DOUBLE_EQ(open.end_to_end_us, 560);
  EXPECT_NEAR(open.error_pct, 60.0 / 560.0 * 100.0, 1e-9);
  EXPECT_FALSE(open.closes);
  EXPECT_TRUE(stage_closure(m, 0.4, untraced, 11.0).closes);
  EXPECT_FALSE(stage_closure(m, 0.5, OutcomeMeans{}, 5.0).closes);
}

EngineCall call(CallKind kind, std::uint64_t user, std::uint64_t target, std::int64_t start,
                std::int64_t end, bool served = false) {
  EngineCall c;
  c.kind = kind;
  c.user = user;
  c.target = target;
  c.start_ns = start;
  c.end_ns = end;
  c.served = served;
  return c;
}

TEST(MatchCalls, HitAndForwardedRequestsGetTheirStages) {
  const std::vector<ClientRequest> requests = {
      {1, 10, 1000, 2000},  // hit
      {2, 10, 1000, 9000},  // forwarded
  };
  const std::vector<EngineCall> calls = {
      call(CallKind::kRequest, 2, 10, 1200, 1300),
      call(CallKind::kRequest, 1, 10, 1100, 1150, /*served=*/true),
      call(CallKind::kResponse, 2, 10, 8000, 8500),
  };
  const auto matches = match_calls(requests, calls);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].request_call, 1u);
  EXPECT_FALSE(matches[0].response_call.has_value());
  EXPECT_EQ(matches[1].request_call, 0u);
  EXPECT_EQ(matches[1].response_call, 2u);

  const auto hit = stages_of(requests[0], matches[0], calls);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->forwarded);
  EXPECT_DOUBLE_EQ(hit->pre_engine_us + hit->engine_us + hit->post_engine_us, 1.0);

  const auto miss = stages_of(requests[1], matches[1], calls);
  ASSERT_TRUE(miss.has_value());
  EXPECT_TRUE(miss->forwarded);
  EXPECT_DOUBLE_EQ(miss->upstream_us, 6.7);
  EXPECT_DOUBLE_EQ(miss->learn_us, 0.5);
  EXPECT_DOUBLE_EQ(miss->pre_engine_us + miss->engine_us + miss->upstream_us + miss->learn_us +
                       miss->post_engine_us,
                   8.0);
}

TEST(MatchCalls, SameKeyRequestsClaimCallsInSendOrder) {
  // Two back-to-back identical requests of one user; each call is used once.
  const std::vector<ClientRequest> requests = {
      {7, 3, 5000, 6000},
      {7, 3, 1000, 2000},
  };
  const std::vector<EngineCall> calls = {
      call(CallKind::kRequest, 7, 3, 5100, 5200, true),
      call(CallKind::kRequest, 7, 3, 1100, 1200, true),
  };
  const auto matches = match_calls(requests, calls);
  EXPECT_EQ(matches[0].request_call, 0u);
  EXPECT_EQ(matches[1].request_call, 1u);
}

TEST(MatchCalls, CallsOutsideTheWindowOrOfAnotherKeyDoNotMatch) {
  const std::vector<ClientRequest> requests = {{1, 1, 1000, 2000}};
  const std::vector<EngineCall> calls = {
      call(CallKind::kRequest, 1, 1, 2500, 2600, true),  // after recv
      call(CallKind::kRequest, 1, 2, 1100, 1200, true),  // other target
      call(CallKind::kRequest, 2, 1, 1100, 1200, true),  // other user
  };
  const auto matches = match_calls(requests, calls);
  EXPECT_FALSE(matches[0].request_call.has_value());
  EXPECT_FALSE(stages_of(requests[0], matches[0], calls).has_value());
}

TEST(MatchCalls, ForwardedWithoutResponseHasNoStages) {
  const std::vector<ClientRequest> requests = {{1, 1, 1000, 2000}};
  const std::vector<EngineCall> calls = {call(CallKind::kRequest, 1, 1, 1100, 1200)};
  const auto matches = match_calls(requests, calls);
  ASSERT_TRUE(matches[0].request_call.has_value());
  EXPECT_FALSE(stages_of(requests[0], matches[0], calls).has_value());
}

}  // namespace
}  // namespace perfbench
