#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace vaq {
namespace obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

const std::vector<double>& LatencyBucketsMs() {
  static const std::vector<double> buckets = {
      0.1,  0.5,   1,     5,   10,  50,  100, 500, 1000,
      5000, 10000, 50000, 1e5, 5e5, 1e6, 5e6, 1e7};
  return buckets;
}

Histogram::Histogram()
    : counts_(new std::atomic<int64_t>[LatencyBucketsMs().size() + 1]) {
  for (size_t i = 0; i <= LatencyBucketsMs().size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(double v) {
  // First bucket whose upper bound admits v; NaN lands in +inf.
  const std::vector<double>& bounds = LatencyBucketsMs();
  const size_t bucket =
      std::upper_bound(bounds.begin(), bounds.end(), v,
                       [](double value, double bound) {
                         return !(value > bound);  // value <= bound, NaN-safe.
                       }) -
      bounds.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  double next;
  do {
    double current;
    std::memcpy(&current, &old, sizeof(current));
    next = current + v;
    uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (sum_bits_.compare_exchange_weak(old, next_bits,
                                        std::memory_order_relaxed)) {
      break;
    }
  } while (true);
}

double Histogram::sum() const {
  const uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= LatencyBucketsMs().size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

void Histogram::RestoreState(const std::vector<int64_t>& bucket_counts,
                             int64_t count, double sum) {
  VAQ_CHECK_EQ(bucket_counts.size(), LatencyBucketsMs().size() + 1)
      << "histogram restore with mismatched bucket count";
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    counts_[i].store(bucket_counts[i], std::memory_order_relaxed);
  }
  count_.store(count, std::memory_order_relaxed);
  uint64_t bits;
  std::memcpy(&bits, &sum, sizeof(bits));
  sum_bits_.store(bits, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

std::string CanonicalLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first;
    out += "=\"";
    for (const char c : labels[i].second) {
      switch (c) {
        case '\\':
          out += "\\\\";
          break;
        case '"':
          out += "\\\"";
          break;
        case '\n':
          out += "\\n";
          break;
        default:
          out += c;
      }
    }
    out += "\"";
  }
  return out;
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* const registry = new MetricRegistry();
  return *registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const Labels& labels) {
  Labels canonical = labels;
  std::sort(canonical.begin(), canonical.end());
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  Instrument& inst = instruments_[{name, CanonicalLabels(canonical)}];
  if (inst.counter == nullptr) {
    VAQ_CHECK(inst.gauge == nullptr && inst.histogram == nullptr)
        << "metric '" << name << "' re-registered with a different kind";
    inst.kind = Snapshot::Kind::kCounter;
    inst.labels = std::move(canonical);
    inst.counter = std::make_unique<Counter>();
  }
  return inst.counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const Labels& labels) {
  Labels canonical = labels;
  std::sort(canonical.begin(), canonical.end());
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  Instrument& inst = instruments_[{name, CanonicalLabels(canonical)}];
  if (inst.gauge == nullptr) {
    VAQ_CHECK(inst.counter == nullptr && inst.histogram == nullptr)
        << "metric '" << name << "' re-registered with a different kind";
    inst.kind = Snapshot::Kind::kGauge;
    inst.labels = std::move(canonical);
    inst.gauge = std::make_unique<Gauge>();
  }
  return inst.gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const Labels& labels) {
  Labels canonical = labels;
  std::sort(canonical.begin(), canonical.end());
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  Instrument& inst = instruments_[{name, CanonicalLabels(canonical)}];
  if (inst.histogram == nullptr) {
    VAQ_CHECK(inst.counter == nullptr && inst.gauge == nullptr)
        << "metric '" << name << "' re-registered with a different kind";
    inst.kind = Snapshot::Kind::kHistogram;
    inst.labels = std::move(canonical);
    inst.histogram = std::make_unique<Histogram>();
  }
  return inst.histogram.get();
}

Snapshot MetricRegistry::TakeSnapshot() const {
  Snapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.entries.reserve(instruments_.size());
  for (const auto& [key, inst] : instruments_) {
    Snapshot::Entry entry;
    entry.name = key.first;
    entry.labels = inst.labels;
    entry.kind = inst.kind;
    switch (inst.kind) {
      case Snapshot::Kind::kCounter:
        entry.counter_value = inst.counter->value();
        break;
      case Snapshot::Kind::kGauge:
        entry.gauge_value = inst.gauge->value();
        break;
      case Snapshot::Kind::kHistogram: {
        const Histogram& h = *inst.histogram;
        entry.bounds = LatencyBucketsMs();
        entry.bucket_counts.resize(entry.bounds.size() + 1);
        for (size_t i = 0; i <= entry.bounds.size(); ++i) {
          entry.bucket_counts[i] = h.bucket_count(i);
        }
        entry.hist_count = h.count();
        entry.hist_sum = h.sum();
        break;
      }
    }
    snapshot.entries.push_back(std::move(entry));
  }
  return snapshot;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, inst] : instruments_) {
    switch (inst.kind) {
      case Snapshot::Kind::kCounter:
        inst.counter->Reset();
        break;
      case Snapshot::Kind::kGauge:
        inst.gauge->Reset();
        break;
      case Snapshot::Kind::kHistogram:
        inst.histogram->Reset();
        break;
    }
  }
}

int64_t MetricRegistry::lookups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lookups_;
}

Status RestoreSnapshot(const Snapshot& snap) {
  MetricRegistry& registry = MetricRegistry::Global();
  {
    // Every entry must fit the instrument it lands in — one registered
    // already, or one an earlier entry creates — before any is written:
    // the Get* calls below abort on a kind mismatch.
    std::lock_guard<std::mutex> lock(registry.mu_);
    std::map<std::pair<std::string, std::string>, Snapshot::Kind> created;
    for (const Snapshot::Entry& entry : snap.entries) {
      const std::pair<std::string, std::string> key(
          entry.name, CanonicalLabels(entry.labels));
      const auto refuse = [&key](const char* why) {
        return Status::FailedPrecondition("snapshot metric '" + key.first +
                                          "{" + key.second + "}' " + why);
      };
      if (entry.kind == Snapshot::Kind::kHistogram &&
          (entry.bounds != LatencyBucketsMs() ||
           entry.bucket_counts.size() != entry.bounds.size() + 1)) {
        return refuse("has other buckets than this build's ladder");
      }
      const auto registered = registry.instruments_.find(key);
      if (registered != registry.instruments_.end()) {
        if (registered->second.kind != entry.kind) {
          return refuse("is of another kind than the registered one");
        }
        continue;
      }
      const auto [first, fresh] = created.emplace(key, entry.kind);
      if (!fresh && first->second != entry.kind) {
        return refuse("disagrees with an earlier entry for it");
      }
    }
  }
  for (const Snapshot::Entry& entry : snap.entries) {
    switch (entry.kind) {
      case Snapshot::Kind::kCounter: {
        Counter* c = registry.GetCounter(entry.name, entry.labels);
        c->Reset();
        c->Increment(entry.counter_value);
        break;
      }
      case Snapshot::Kind::kGauge:
        registry.GetGauge(entry.name, entry.labels)->Set(entry.gauge_value);
        break;
      case Snapshot::Kind::kHistogram:
        registry.GetHistogram(entry.name, entry.labels)
            ->RestoreState(entry.bucket_counts, entry.hist_count,
                           entry.hist_sum);
        break;
    }
  }
  return Status::OK();
}

bool IsWallFamily(const std::string& name) {
  return name.rfind("vaq_wall_", 0) == 0;
}

Snapshot FilterSnapshot(const Snapshot& in,
                        const std::vector<std::string>& prefixes) {
  Snapshot out;
  for (const Snapshot::Entry& entry : in.entries) {
    for (const std::string& prefix : prefixes) {
      if (entry.name.rfind(prefix, 0) == 0) {
        out.entries.push_back(entry);
        break;
      }
    }
  }
  return out;
}

Snapshot ExcludeSnapshot(const Snapshot& in,
                         const std::vector<std::string>& prefixes) {
  Snapshot out;
  for (const Snapshot::Entry& entry : in.entries) {
    bool excluded = IsWallFamily(entry.name);
    for (const std::string& prefix : prefixes) {
      if (entry.name.rfind(prefix, 0) == 0) {
        excluded = true;
        break;
      }
    }
    if (!excluded) out.entries.push_back(entry);
  }
  return out;
}

}  // namespace obs
}  // namespace vaq
