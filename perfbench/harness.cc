#include "perfbench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <system_error>

namespace perfbench {

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss across execve, so it
  // would report the launching process's peak when that was larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Spans::MedianNs(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : Median(it->second);
}

double Spans::TotalNs(const std::string& name) const {
  auto it = samples_.find(name);
  double total = 0.0;
  if (it != samples_.end()) {
    for (double ns : it->second) total += ns;
  }
  return total;
}

int64_t Spans::Count(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

std::vector<std::string> Spans::Names() const {
  std::vector<std::string> names;
  for (const auto& entry : samples_) names.push_back(entry.first);
  return names;
}

void TimedLoop::Resume() {
  if (running_) return;
  running_ = true;
  seg_cpu_ = CpuMs();
  seg_wall_ = NowNs();
}

void TimedLoop::Pause() {
  if (!running_) return;
  wall_ns_ += NowNs() - seg_wall_;
  cpu_ms_ += CpuMs() - seg_cpu_;
  running_ = false;
}

bool TimedLoop::More() const {
  const double running = running_ ? NowNs() - seg_wall_ : 0.0;
  return wall_ns_ + running < budget_ns_;
}

double TimedLoop::RecordOp(int64_t key, const OpStart& start) {
  const double wall_ns = NowNs() - start.wall_ns();
  const double cpu_ns = CpuNs() - start.cpu_ns();
  latencies_ms_.push_back(wall_ns / 1e6);
  KeyBest& best = best_[key];
  if (best.ops == 0 || wall_ns / 1e6 < best.wall_ms) best.wall_ms = wall_ns / 1e6;
  if (best.ops == 0 || cpu_ns / 1e6 < best.cpu_ms) best.cpu_ms = cpu_ns / 1e6;
  ++best.ops;
  return wall_ns;
}

namespace {

// The ladder percentile for `n` samples (see Tail).
double TailPercentile(int64_t n) {
  static const double kLadder[] = {99.0, 95.0, 90.0, 75.0};
  for (double p : kLadder) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

// 1-based nearest rank of percentile `p` among `n` samples.
int64_t NearestRank(double p, int64_t n) {
  const auto rank =
      static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

BestFigures TimedLoop::Best() const {
  BestFigures out;
  out.keys = static_cast<int64_t>(best_.size());
  const int64_t n = ops();
  if (n == 0) return out;
  // (best wall ms, ops of that key), by wall time: the ops' distribution.
  std::vector<std::pair<double, int64_t>> by_wall;
  double wall_ms = 0.0, cpu_ms = 0.0;
  for (const auto& [key, best] : best_) {
    by_wall.emplace_back(best.wall_ms, best.ops);
    wall_ms += best.wall_ms * static_cast<double>(best.ops);
    cpu_ms += best.cpu_ms * static_cast<double>(best.ops);
  }
  std::sort(by_wall.begin(), by_wall.end());
  const auto at_rank = [&](int64_t rank) {
    int64_t seen = 0;
    for (const auto& [ms, count] : by_wall) {
      seen += count;
      if (seen >= rank) return ms;
    }
    return by_wall.back().first;
  };
  out.ops_per_s = wall_ms > 0.0 ? static_cast<double>(n) / (wall_ms / 1e3) : 0.0;
  // The median of an even count averages its two middle ops, as Median().
  out.p50_ms = n % 2 == 1 ? at_rank(n / 2 + 1)
                          : 0.5 * (at_rank(n / 2) + at_rank(n / 2 + 1));
  out.tail.samples = n;
  out.tail.percentile = TailPercentile(n);
  out.tail.value_ms = at_rank(NearestRank(out.tail.percentile, n));
  out.cpu_ms_per_op = cpu_ms / static_cast<double>(n);
  for (int decile = 1; decile < 10; ++decile) {
    out.deciles_ms.push_back(at_rank(NearestRank(10.0 * decile, n)));
  }
  return out;
}

Tail TailLatency(std::vector<double> latencies_ms) {
  Tail tail;
  tail.samples = static_cast<int64_t>(latencies_ms.size());
  if (latencies_ms.empty()) return tail;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  tail.percentile = TailPercentile(tail.samples);
  tail.value_ms = latencies_ms[static_cast<size_t>(
      NearestRank(tail.percentile, tail.samples) - 1)];
  return tail;
}

TempDir::TempDir(const std::string& tag) {
  static int counter = 0;
  path_ = ".bench_tmp/" + tag + "-" + std::to_string(getpid()) + "-" +
          std::to_string(counter++);
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  // Leave no empty parent behind either (fails harmlessly while another
  // TempDir is alive).
  std::filesystem::remove(".bench_tmp", ec);
}

int64_t DirBytes(const std::string& path) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    // Every digit the double carries; non-finite values never reach here
    // (main refuses to print a report holding one).
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
