// Pure helpers of the repository benchmark: percentiles with a sample floor,
// the stage-closure check and the matching of client requests to engine
// calls. No I/O and no clocks, so each is tested
// on synthetic inputs (tests/test_stats.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// --- percentiles -------------------------------------------------------------

// A percentile is reported only when at least this many samples lie beyond
// it; below that it is just the maximum of a small set.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  std::optional<double> value;  // nullopt when the sample floor is not met
  std::size_t count = 0;        // samples the percentile was taken over
};

// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

// Nearest-rank percentile (q in (0, 1)) of `samples`; sorts them in place.
Percentile percentile(std::vector<double>& samples, double q);

// The median of a non-empty set (sorts in place).
double median(std::vector<double>& values);

// --- stage closure ---------------------------------------------------------------

// Mean time per stage over the traced run's matched requests. The stages are
// back to back, so for each request they add up to its send -> receive time.
struct StageMeans {
  double pre_engine_us = 0;   // send -> on_request entry
  double engine_us = 0;       // on_request
  double upstream_us = 0;     // on_request exit -> on_response entry (misses)
  double learn_us = 0;        // on_response (misses)
  double post_engine_us = 0;  // last engine exit -> response received
};

// End-to-end means (client send -> response received) of an untraced run,
// split by outcome so that they can be weighed at another run's hit share.
struct OutcomeMeans {
  double hit_us = 0;
  double miss_us = 0;
};

struct Closure {
  double stage_sum_us = 0;
  double end_to_end_us = 0;  // untraced means at the traced run's hit share
  double error_pct = 0;      // |sum - e2e| / e2e * 100
  bool closes = false;       // error_pct <= tolerance_pct
};

// Whether the traced stage means add up to the untraced end-to-end mean: an
// independent check of the breakdown, which also shows what tracing costs.
Closure stage_closure(const StageMeans& traced, double traced_hit_share,
                      const OutcomeMeans& untraced, double tolerance_pct);

// --- request <-> engine call matching --------------------------------------------

// A request as the generator saw it.
struct ClientRequest {
  std::uint64_t user = 0;    // fnv1a of the X-Appx-User value
  std::uint64_t target = 0;  // fnv1a of the request target (path?query)
  std::int64_t send_ns = 0;  // CLOCK_MONOTONIC, actual send
  std::int64_t recv_ns = 0;  // response fully received
};

enum class CallKind : std::uint8_t { kRequest = 0, kResponse = 1 };

// An engine call as the traced decorator saw it (same clock).
struct EngineCall {
  CallKind kind = CallKind::kRequest;
  bool served = false;  // kRequest: answered from cache
  std::uint64_t user = 0;
  std::uint64_t target = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// For one client request: its on_request call and, when forwarded, its
// on_response call (indices into the call vector).
struct Match {
  std::optional<std::size_t> request_call;
  std::optional<std::size_t> response_call;
};

// Matches each client request to the first unused on_request call of the
// same (user, target) that starts inside [send, recv], and a forwarded one to
// the first unused on_response call of that key starting between the
// on_request exit and recv. Result is parallel to `requests`.
std::vector<Match> match_calls(const std::vector<ClientRequest>& requests,
                               const std::vector<EngineCall>& calls);

// Per-stage durations of one matched request (nullopt when unmatched or when
// a forwarded request has no on_response).
struct Stages {
  double pre_engine_us = 0, engine_us = 0, upstream_us = 0, learn_us = 0, post_engine_us = 0;
  bool forwarded = false;
};
std::optional<Stages> stages_of(const ClientRequest& request, const Match& match,
                                const std::vector<EngineCall>& calls);

}  // namespace perfbench
