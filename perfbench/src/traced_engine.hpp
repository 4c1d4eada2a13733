// A core::ProxyLike decorator that times every engine call from outside the
// engine, for the benchmark's traced runs.
//
// It forwards every call (thread_safe() and metrics() included) to the
// wrapped engine and records each on_request / on_response /
// on_prefetch_response call's entry and exit on CLOCK_MONOTONIC — the clock
// the load generator stamps its sends with, shared across fork(). It also
// follows the prefetch jobs each Decision returns until they resolve, which
// gives the prefetch turnaround and whether a forwarded client request was
// already being prefetched. Spans stay in memory; nothing is added to the
// requests the engine sees.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/session.hpp"
#include "stats.hpp"

namespace perfbench {

std::int64_t monotonic_ns();

class TracedEngine : public appx::core::ProxyLike {
 public:
  // `ignored_headers` are the headers the engine leaves out of cache keys
  // (ProxyConfig::all_added_header_names()).
  TracedEngine(appx::core::ProxyLike* inner, std::vector<std::string> ignored_headers);

  // Everything recorded so far.
  struct Record {
    std::vector<EngineCall> calls;  // on_request / on_response
    std::vector<double> on_request_us, on_response_us, on_prefetch_response_us;
    std::vector<double> prefetch_turnaround_us;  // Decision return -> on_prefetch_response
    std::uint64_t forwarded = 0;           // on_request calls not served from cache
    std::uint64_t forwarded_inflight = 0;  // ... whose key had an unresolved prefetch
    // Time this decorator spent recording after on_request / on_response
    // returned: the tracing cost a client request pays.
    std::uint64_t client_path_overhead_ns = 0;
  };
  Record take_record();

  // --- ProxyLike ------------------------------------------------------------
  appx::core::UserId resolve_user(std::string_view user, appx::SimTime now) override;
  void on_request(appx::core::UserId& user, const appx::http::Request& request,
                  appx::SimTime now, appx::core::Decision* out) override;
  void on_response(appx::core::UserId& user, const appx::http::Request& request,
                   const appx::http::Response& response, appx::SimTime now,
                   appx::core::Decision* out) override;
  void on_prefetch_response(appx::core::UserId& user, const appx::core::PrefetchJob& job,
                            const appx::http::Response& response, appx::SimTime now,
                            double response_time_ms, appx::core::Decision* out) override;
  void on_prefetch_dropped(appx::core::UserId& user, const appx::core::PrefetchJob& job,
                           appx::SimTime now) override;
  void pump(appx::core::UserId& user, appx::SimTime now, appx::core::Decision* out) override;
  bool thread_safe() const override { return inner_->thread_safe(); }
  void snapshot_to(appx::core::SnapshotBuilder& builder) const override {
    inner_->snapshot_to(builder);
  }
  std::size_t restore_from(const appx::core::SnapshotView& view, appx::SimTime now) override {
    return inner_->restore_from(view, now);
  }
  std::vector<std::uint8_t> export_user(std::string_view user) const override {
    return inner_->export_user(user);
  }
  bool import_user(const std::vector<std::uint8_t>& blob, appx::SimTime now) override {
    return inner_->import_user(blob, now);
  }
  const appx::core::ProxyStats& stats() const override { return inner_->stats(); }
  appx::obs::MetricsRegistry* metrics() override { return inner_->metrics(); }

 private:
  // Jobs appended to out->prefetches since index `from` became issued at `now_ns`.
  void note_issued(const appx::core::UserId& user, const appx::core::Decision& out,
                   std::size_t from, std::int64_t now_ns);
  // Issue time of the oldest unresolved job with this key, removing it.
  std::optional<std::int64_t> resolve(const appx::core::UserId& user, const std::string& key);
  void record_call(CallKind kind, const appx::core::UserId& user,
                   const appx::http::Request& request, std::int64_t start, std::int64_t end,
                   bool served);

  appx::core::ProxyLike* inner_;
  std::vector<std::string> ignored_headers_;
  std::mutex mutex_;
  Record record_;
  // (user hash ^ key hash) -> issue times of unresolved jobs, oldest first.
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> outstanding_;
};

}  // namespace perfbench
