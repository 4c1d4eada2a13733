// The benchmark's load generator: a fixed pool of keep-alive connections to
// the proxy, one blocking worker thread each, fed from one schedule ordered
// by intended send time.
//
// Users are multiplexed over the connections (the proxy keys per-user state
// on X-Appx-User, not on the connection). A request due while every
// connection is busy waits in the schedule, and its latency still counts from
// its intended send time, so a slow proxy accrues queueing delay instead of
// slowing the offered load. A worker's own wake-up delay past the moment it
// could have sent is tracked separately as the generator's send lag.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

struct Sample {
  std::int64_t intended_ns = 0;  // scheduled send time
  std::int64_t send_ns = 0;      // actual send
  std::int64_t recv_ns = 0;      // response fully received (or failure noticed)
  std::uint64_t user = 0;        // fnv1a of the X-Appx-User value
  std::uint64_t target = 0;      // fnv1a of the request target
  std::uint64_t response_bytes = 0;
  bool hit = false;              // X-Appx-Cache: hit
  bool failed = false;           // 5xx, timeout, reset or refused connect
};

struct Job {
  std::int64_t due_ns = 0;
  std::uint64_t user = 0;
  std::uint64_t target = 0;
  std::string wire;              // the complete request; empty for an action job
  // Runs on the worker after the response (or, for an action job, instead of
  // a request). May push further jobs.
  std::function<void(const Sample&)> done;
};

class Generator {
 public:
  Generator(std::uint16_t port, std::size_t connections);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void push(Job job);
  // Drops every queued job, lets in-flight requests finish, joins the workers.
  void stop();

  // Samples and send lags (µs) recorded since the last take.
  std::vector<Sample> take_samples();
  std::vector<double> take_send_lags_us();

 private:
  bool pop(Job& job);
  void worker();

  std::uint16_t port_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Job> heap_;  // min-heap on due_ns
  bool stopping_ = false;
  std::vector<Sample> samples_;
  std::vector<double> send_lags_us_;
  std::vector<std::thread> workers_;
};

// Request target (path?query) of a serialized request, without any scheme and
// host of an absolute-form target.
std::string_view request_target(std::string_view wire);

}  // namespace perfbench
