#include "generator.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "net/http_io.hpp"
#include "net/socket.hpp"
#include "traced_engine.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace appx;

namespace {

bool later(const Job& a, const Job& b) { return a.due_ns > b.due_ns; }

std::chrono::steady_clock::time_point as_time_point(std::int64_t ns) {
  // libstdc++'s steady_clock is CLOCK_MONOTONIC, the clock monotonic_ns() reads.
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

}  // namespace

std::string_view request_target(std::string_view wire) {
  const auto sp = wire.find(' ');
  if (sp == std::string_view::npos) return {};
  const auto end = wire.find(' ', sp + 1);
  std::string_view target = wire.substr(sp + 1, end - sp - 1);
  if (const auto scheme = target.find("://"); scheme != std::string_view::npos) {
    const auto path = target.find('/', scheme + 3);
    target = path == std::string_view::npos ? std::string_view("/") : target.substr(path);
  }
  return target;
}

Generator::Generator(std::uint16_t port, std::size_t connections) : port_(port) {
  for (std::size_t i = 0; i < std::max<std::size_t>(1, connections); ++i) {
    workers_.emplace_back([this] { worker(); });
  }
}

Generator::~Generator() { stop(); }

void Generator::push(Job job) {
  {
    std::lock_guard lock(mutex_);
    heap_.push_back(std::move(job));
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  wake_.notify_one();
}

void Generator::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    heap_.clear();
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

std::vector<Sample> Generator::take_samples() {
  std::lock_guard lock(mutex_);
  return std::exchange(samples_, {});
}

std::vector<double> Generator::take_send_lags_us() {
  std::lock_guard lock(mutex_);
  return std::exchange(send_lags_us_, {});
}

bool Generator::pop(Job& job) {
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    if (heap_.empty()) {
      wake_.wait(lock);
      continue;
    }
    const std::int64_t due = heap_.front().due_ns;
    if (due > monotonic_ns()) {
      wake_.wait_until(lock, as_time_point(due));
      continue;
    }
    std::pop_heap(heap_.begin(), heap_.end(), later);
    job = std::move(heap_.back());
    heap_.pop_back();
    // Another job may be due already; hand it to a sleeping worker.
    if (!heap_.empty() && heap_.front().due_ns <= monotonic_ns()) wake_.notify_one();
    return true;
  }
  return false;
}

void Generator::worker() {
  std::unique_ptr<net::TcpStream> stream;
  std::unique_ptr<net::HttpReader> reader;
  std::int64_t ready_ns = monotonic_ns();
  Job job;
  while (pop(job)) {
    Sample s;
    s.intended_ns = job.due_ns;
    s.user = job.user;
    s.target = job.target;
    s.send_ns = monotonic_ns();
    const double lag_us =
        static_cast<double>(s.send_ns - std::max(job.due_ns, ready_ns)) / 1e3;
    if (!job.wire.empty()) {
      try {
        if (!stream) {
          stream = std::make_unique<net::TcpStream>(
              net::TcpStream::connect("127.0.0.1", port_, seconds(5)));
          stream->set_read_timeout(seconds(10));
          reader = std::make_unique<net::HttpReader>(stream.get());
        }
        stream->write_all(job.wire);
        const std::optional<http::Response> response = reader->read_response();
        if (!response) throw Error("connection closed by proxy");
        s.failed = response->status >= 500;
        s.hit = response->headers.get("X-Appx-Cache").value_or("") == "hit";
        s.response_bytes = response->body.size();
      } catch (const Error&) {
        s.failed = true;
        reader.reset();
        stream.reset();
      }
    }
    s.recv_ns = monotonic_ns();
    if (job.done) job.done(s);
    ready_ns = monotonic_ns();
    if (!job.wire.empty()) {
      std::lock_guard lock(mutex_);
      samples_.push_back(s);
      send_lags_us_.push_back(lag_us);
    }
    job = Job{};
  }
}

}  // namespace perfbench
