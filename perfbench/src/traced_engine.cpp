#include "traced_engine.hpp"

#include <time.h>

#include "util/hash.hpp"

namespace perfbench {

using namespace appx;

std::int64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

double us_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) / 1e3;
}

std::uint64_t job_slot(const core::UserId& user, const std::string& key) {
  return user.hash() ^ (fnv1a(key) * 0x9E3779B97F4A7C15ULL);
}

}  // namespace

TracedEngine::TracedEngine(core::ProxyLike* inner, std::vector<std::string> ignored_headers)
    : inner_(inner), ignored_headers_(std::move(ignored_headers)) {}

TracedEngine::Record TracedEngine::take_record() {
  std::lock_guard lock(mutex_);
  Record out = std::move(record_);
  record_ = Record{};
  return out;
}

core::UserId TracedEngine::resolve_user(std::string_view user, SimTime now) {
  return inner_->resolve_user(user, now);
}

void TracedEngine::note_issued(const core::UserId& user, const core::Decision& out,
                               std::size_t from, std::int64_t now_ns) {
  for (std::size_t i = from; i < out.prefetches.size(); ++i) {
    outstanding_[job_slot(user, out.prefetches[i].cache_key)].push_back(now_ns);
  }
}

std::optional<std::int64_t> TracedEngine::resolve(const core::UserId& user,
                                                  const std::string& key) {
  const auto it = outstanding_.find(job_slot(user, key));
  if (it == outstanding_.end() || it->second.empty()) return std::nullopt;
  const std::int64_t issued = it->second.front();
  it->second.erase(it->second.begin());
  if (it->second.empty()) outstanding_.erase(it);
  return issued;
}

void TracedEngine::record_call(CallKind kind, const core::UserId& user,
                               const http::Request& request, std::int64_t start,
                               std::int64_t end, bool served) {
  EngineCall call;
  call.kind = kind;
  call.served = served;
  call.user = fnv1a(user.name());
  call.target = fnv1a(request.uri.path_and_query());
  call.start_ns = start;
  call.end_ns = end;
  record_.calls.push_back(call);
}

void TracedEngine::on_request(core::UserId& user, const http::Request& request, SimTime now,
                              core::Decision* out) {
  const std::size_t before = out->prefetches.size();
  const std::int64_t start = monotonic_ns();
  inner_->on_request(user, request, now, out);
  const std::int64_t end = monotonic_ns();
  const bool served = out->served != nullptr;
  // Keying the request costs allocations; only forwarded requests need it.
  const std::string key = served ? std::string() : request.cache_key(ignored_headers_);
  std::lock_guard lock(mutex_);
  record_call(CallKind::kRequest, user, request, start, end, served);
  record_.on_request_us.push_back(us_between(start, end));
  if (!served) {
    ++record_.forwarded;
    const auto it = outstanding_.find(job_slot(user, key));
    if (it != outstanding_.end() && !it->second.empty()) ++record_.forwarded_inflight;
  }
  note_issued(user, *out, before, end);
  record_.client_path_overhead_ns += static_cast<std::uint64_t>(monotonic_ns() - end);
}

void TracedEngine::on_response(core::UserId& user, const http::Request& request,
                               const http::Response& response, SimTime now,
                               core::Decision* out) {
  const std::size_t before = out->prefetches.size();
  const std::int64_t start = monotonic_ns();
  inner_->on_response(user, request, response, now, out);
  const std::int64_t end = monotonic_ns();
  std::lock_guard lock(mutex_);
  record_call(CallKind::kResponse, user, request, start, end, false);
  record_.on_response_us.push_back(us_between(start, end));
  note_issued(user, *out, before, end);
  record_.client_path_overhead_ns += static_cast<std::uint64_t>(monotonic_ns() - end);
}

void TracedEngine::on_prefetch_response(core::UserId& user, const core::PrefetchJob& job,
                                        const http::Response& response, SimTime now,
                                        double response_time_ms, core::Decision* out) {
  const std::size_t before = out->prefetches.size();
  const std::int64_t start = monotonic_ns();
  inner_->on_prefetch_response(user, job, response, now, response_time_ms, out);
  const std::int64_t end = monotonic_ns();
  std::lock_guard lock(mutex_);
  if (const auto issued = resolve(user, job.cache_key)) {
    record_.prefetch_turnaround_us.push_back(us_between(*issued, start));
  }
  record_.on_prefetch_response_us.push_back(us_between(start, end));
  note_issued(user, *out, before, end);
}

void TracedEngine::on_prefetch_dropped(core::UserId& user, const core::PrefetchJob& job,
                                       SimTime now) {
  inner_->on_prefetch_dropped(user, job, now);
  std::lock_guard lock(mutex_);
  resolve(user, job.cache_key);
}

void TracedEngine::pump(core::UserId& user, SimTime now, core::Decision* out) {
  const std::size_t before = out->prefetches.size();
  inner_->pump(user, now, out);
  const std::int64_t end = monotonic_ns();
  std::lock_guard lock(mutex_);
  note_issued(user, *out, before, end);
}

}  // namespace perfbench
