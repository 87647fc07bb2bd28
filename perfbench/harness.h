// Measurement plumbing shared by the perfbench workloads: wall and CPU
// clocks, the closed-loop op timer, span recording for the traced run,
// scratch directories and the metric report.
#ifndef VAQ_PERFBENCH_HARNESS_H_
#define VAQ_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock, nanoseconds.
double NowNs();
// Process user + system CPU time (getrusage), milliseconds.
double CpuMs();
// Process CPU time of every thread (CLOCK_PROCESS_CPUTIME_ID), nanoseconds:
// finer than CpuMs, for timing one op.
double CpuNs();
// Peak resident set size of this process, MiB.
double PeakRssMb();

double Median(std::vector<double> values);

// Per-name duration samples. The timed loop records into one only when
// tracing is on (a null Spans* means "untraced"); set-up always records,
// because the set-up breakdown is printed by every run.
class Spans {
 public:
  void Add(const std::string& name, double ns) { samples_[name].push_back(ns); }
  bool Has(const std::string& name) const { return samples_.count(name) > 0; }
  double MedianNs(const std::string& name) const;
  double TotalNs(const std::string& name) const;
  int64_t Count(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// Times one call into a layer: records `name` on destruction when
// `spans` is non-null.
class Span {
 public:
  Span(Spans* spans, const char* name)
      : spans_(spans), name_(name), start_ns_(spans ? NowNs() : 0.0) {}
  ~Span() {
    if (spans_ != nullptr) spans_->Add(name_, NowNs() - start_ns_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
  const char* name_;
  double start_ns_;
};

// The clocks at the start of one op.
class OpStart {
 public:
  OpStart() : cpu_ns_(CpuNs()), wall_ns_(NowNs()) {}
  double cpu_ns() const { return cpu_ns_; }
  double wall_ns() const { return wall_ns_; }

 private:
  double cpu_ns_;
  double wall_ns_;
};

// The highest percentile of the ladder 99/95/90/75 that still has at
// least ten samples beyond it. A fixed ladder keeps runs of similar
// length reporting the same percentile; it stops at p99 because beyond
// that a 10-60 s run holds too few samples for a steady figure.
struct Tail {
  double percentile = 50.0;
  int64_t samples = 0;
  double value_ms = 0.0;
};
Tail TailLatency(std::vector<double> latencies_ms);

// The loop's figures with every op at its best: each op counts with the
// lowest wall and CPU time that any op of the same key (the same work on
// the same inputs) took in the loop. Other tenants of a shared host only
// ever slow an op down, so the best of its repeats is the program's own
// cost; a run-long median still moves with the host's load.
struct BestFigures {
  double ops_per_s = 0.0;      // ops / (sum over ops of the best wall time)
  double p50_ms = 0.0;         // median op, at its best wall time
  Tail tail;                   // tail op, at its best wall time
  double cpu_ms_per_op = 0.0;  // mean over ops of the best CPU time
  int64_t keys = 0;            // distinct keys
  // p10, p20, ..., p90 of the ops at their best wall time, for the report:
  // a median on the edge between two cost levels shows here.
  std::vector<double> deciles_ms;
};

// The closed-loop timer. Wall and CPU time accrue only while the loop is
// running (between Resume and Pause), so reference checks and session
// roll-overs done while paused cost the measured figures nothing. The
// loop ends once `seconds` of running time have accrued.
class TimedLoop {
 public:
  // The latency buffer is reserved up front (untouched pages cost no
  // RSS), so its growth never copies and peak_rss_mb barely depends on
  // how many ops a run completes.
  explicit TimedLoop(double seconds) : budget_ns_(seconds * 1e9) {
    latencies_ms_.reserve(size_t{1} << 20);
  }

  // Grants `seconds` more running time: the loop runs in slices, with
  // set-up windows between them.
  void Extend(double seconds) { budget_ns_ += seconds * 1e9; }

  void Resume();
  void Pause();
  bool More() const;
  // Records one op that began at `start`, ending now. Ops with equal
  // `key` do the same work on the same inputs. Returns its wall time, ns.
  double RecordOp(int64_t key, const OpStart& start);
  void RecordFailure() { ++failed_; }

  int64_t ops() const { return static_cast<int64_t>(latencies_ms_.size()); }
  int64_t failed() const { return failed_; }
  double wall_s() const { return wall_ns_ / 1e9; }
  double cpu_ms() const { return cpu_ms_; }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  BestFigures Best() const;

 private:
  struct KeyBest {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    int64_t ops = 0;
  };

  double budget_ns_;
  double wall_ns_ = 0.0;
  double cpu_ms_ = 0.0;
  double seg_wall_ = 0.0;
  double seg_cpu_ = 0.0;
  bool running_ = false;
  int64_t failed_ = 0;
  std::vector<double> latencies_ms_;
  std::map<int64_t, KeyBest> best_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Metrics by name, printed as the result line's "metrics" object.
using Metrics = std::map<std::string, Metric>;

// A scratch directory under the working directory, removed (with its
// contents) on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Bytes under `path`, recursively.
int64_t DirBytes(const std::string& path);

// The final line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const Metrics& metrics);

}  // namespace perfbench

#endif  // VAQ_PERFBENCH_HARNESS_H_
