#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

Percentile percentile(std::vector<double>& samples, double q) {
  Percentile out;
  out.count = samples.size();
  if (samples_beyond(samples.size(), q) < kMinSamplesBeyond) return out;
  const std::size_t rank = samples.size() - samples_beyond(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  return out;
}

double median(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --- stage closure -------------------------------------------------------------------

Closure stage_closure(const StageMeans& m, double traced_hit_share, const OutcomeMeans& untraced,
                      double tolerance_pct) {
  Closure c;
  c.stage_sum_us = m.pre_engine_us + m.engine_us + m.upstream_us + m.learn_us + m.post_engine_us;
  c.end_to_end_us =
      traced_hit_share * untraced.hit_us + (1 - traced_hit_share) * untraced.miss_us;
  c.error_pct = c.end_to_end_us > 0
                    ? std::abs(c.stage_sum_us - c.end_to_end_us) / c.end_to_end_us * 100.0
                    : 100.0;
  c.closes = c.error_pct <= tolerance_pct;
  return c;
}

// --- matching ---------------------------------------------------------------------------

namespace {

using Key = std::pair<std::uint64_t, std::uint64_t>;

// Calls of one kind grouped by (user, target), each group in start order,
// with a cursor past the calls already consumed.
struct CallIndex {
  struct Group {
    std::vector<std::size_t> calls;
    std::vector<bool> used;
  };
  std::map<Key, Group> groups;

  CallIndex(const std::vector<EngineCall>& calls, CallKind kind) {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if (calls[i].kind == kind) groups[{calls[i].user, calls[i].target}].calls.push_back(i);
    }
    for (auto& [key, group] : groups) {
      std::sort(group.calls.begin(), group.calls.end(), [&](std::size_t a, std::size_t b) {
        return calls[a].start_ns < calls[b].start_ns;
      });
      group.used.assign(group.calls.size(), false);
    }
  }

  // First unused call of `key` whose start lies in [lo, hi]; marks it used.
  std::optional<std::size_t> take(const std::vector<EngineCall>& calls, const Key& key,
                                  std::int64_t lo, std::int64_t hi) {
    const auto it = groups.find(key);
    if (it == groups.end()) return std::nullopt;
    Group& g = it->second;
    const auto first = std::partition_point(g.calls.begin(), g.calls.end(), [&](std::size_t c) {
      return calls[c].start_ns < lo;
    });
    for (auto c = first; c != g.calls.end() && calls[*c].start_ns <= hi; ++c) {
      const auto pos = static_cast<std::size_t>(c - g.calls.begin());
      if (g.used[pos]) continue;
      g.used[pos] = true;
      return *c;
    }
    return std::nullopt;
  }
};

}  // namespace

std::vector<Match> match_calls(const std::vector<ClientRequest>& requests,
                               const std::vector<EngineCall>& calls) {
  CallIndex on_request(calls, CallKind::kRequest);
  CallIndex on_response(calls, CallKind::kResponse);

  // Earlier sends claim earlier calls.
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return requests[a].send_ns < requests[b].send_ns;
  });

  std::vector<Match> out(requests.size());
  for (const std::size_t i : order) {
    const ClientRequest& r = requests[i];
    const Key key{r.user, r.target};
    out[i].request_call = on_request.take(calls, key, r.send_ns, r.recv_ns);
    if (!out[i].request_call || calls[*out[i].request_call].served) continue;
    out[i].response_call =
        on_response.take(calls, key, calls[*out[i].request_call].end_ns, r.recv_ns);
  }
  return out;
}

std::optional<Stages> stages_of(const ClientRequest& r, const Match& match,
                                const std::vector<EngineCall>& calls) {
  if (!match.request_call) return std::nullopt;
  const EngineCall& req = calls[*match.request_call];
  Stages s;
  s.pre_engine_us = static_cast<double>(req.start_ns - r.send_ns) / 1e3;
  s.engine_us = static_cast<double>(req.end_ns - req.start_ns) / 1e3;
  if (req.served) {
    s.post_engine_us = static_cast<double>(r.recv_ns - req.end_ns) / 1e3;
    return s;
  }
  if (!match.response_call) return std::nullopt;
  const EngineCall& resp = calls[*match.response_call];
  s.forwarded = true;
  s.upstream_us = static_cast<double>(resp.start_ns - req.end_ns) / 1e3;
  s.learn_us = static_cast<double>(resp.end_ns - resp.start_ns) / 1e3;
  s.post_engine_us = static_cast<double>(r.recv_ns - resp.end_ns) / 1e3;
  return s;
}

}  // namespace perfbench
