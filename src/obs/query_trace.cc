#include "obs/query_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace vaq {
namespace obs {
namespace {

std::string FormatMs(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

thread_local QueryContext g_current_context;

}  // namespace

// ---------------------------------------------------------------------------
// QueryTrace
// ---------------------------------------------------------------------------

QueryTrace::QueryTrace(std::string root_name) {
  Node root;
  root.name = std::move(root_name);
  nodes_.push_back(std::move(root));
}

int QueryTrace::Child(int parent, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  VAQ_CHECK_GE(parent, 0);
  VAQ_CHECK_LT(static_cast<size_t>(parent), nodes_.size());
  for (const int child : nodes_[parent].children) {
    if (nodes_[child].name == name) return child;
  }
  const int id = static_cast<int>(nodes_.size());
  Node node;
  node.name = name;
  node.parent = parent;
  nodes_.push_back(std::move(node));
  nodes_[parent].children.push_back(id);
  return id;
}

void QueryTrace::AddMs(int node, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  VAQ_CHECK_GE(node, 0);
  VAQ_CHECK_LT(static_cast<size_t>(node), nodes_.size());
  nodes_[node].self_ms += ms;
}

void QueryTrace::AddStat(int node, const std::string& key, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  VAQ_CHECK_GE(node, 0);
  VAQ_CHECK_LT(static_cast<size_t>(node), nodes_.size());
  nodes_[node].stats[key] += delta;
}

namespace {

double TotalMs(const std::vector<QueryTrace::Node>& nodes, int id) {
  double total = nodes[id].self_ms;
  for (const int child : nodes[id].children) {
    total += TotalMs(nodes, child);
  }
  return total;
}

void RenderNode(const std::vector<QueryTrace::Node>& nodes, int id,
                int depth, std::string* out) {
  const QueryTrace::Node& node = nodes[id];
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.name;
  *out += "  self=" + FormatMs(node.self_ms) + "ms total=" +
          FormatMs(TotalMs(nodes, id)) + "ms";
  for (const auto& [key, value] : node.stats) {
    *out += " " + key + "=" + std::to_string(value);
  }
  *out += "\n";
  for (const int child : node.children) {
    RenderNode(nodes, child, depth + 1, out);
  }
}

}  // namespace

std::string QueryTrace::RenderProfile() const {
  const std::vector<Node> nodes = snapshot();
  std::string out;
  RenderNode(nodes, 0, 0, &out);
  return out;
}

const std::string& QueryTrace::root_name() const {
  // The root's name is immutable after construction.
  return nodes_[0].name;
}

std::vector<QueryTrace::Node> QueryTrace::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_;
}

// ---------------------------------------------------------------------------
// QueryContext
// ---------------------------------------------------------------------------

QueryContext QueryContext::Child(const std::string& name) const {
  if (trace == nullptr) return {};
  return {trace, trace->Child(node, name)};
}

void QueryContext::AddMs(double ms) const {
  if (trace != nullptr) trace->AddMs(node, ms);
}

void QueryContext::AddStat(const std::string& key, int64_t delta) const {
  if (trace != nullptr) trace->AddStat(node, key, delta);
}

const QueryContext& CurrentQueryContext() { return g_current_context; }

ScopedQueryContext::ScopedQueryContext(const QueryContext& ctx)
    : prev_(g_current_context) {
  g_current_context = ctx;
}

ScopedQueryContext::~ScopedQueryContext() { g_current_context = prev_; }

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

namespace {

// Emits the subtree rooted at `id` starting at virtual time `start_ms`.
void EmitEvents(const std::vector<QueryTrace::Node>& nodes, int id,
                double start_ms, int tid, bool* first, std::string* out) {
  const QueryTrace::Node& node = nodes[id];
  const double total = TotalMs(nodes, id);
  if (!*first) *out += ",";
  *first = false;
  *out += "{\"name\":\"" + EscapeJson(node.name) + "\",\"ph\":\"X\"";
  *out += ",\"ts\":" + FormatMs(start_ms * 1000.0);
  *out += ",\"dur\":" + FormatMs(total * 1000.0);
  *out += ",\"pid\":1,\"tid\":" + std::to_string(tid);
  *out += ",\"args\":{\"self_ms\":" + FormatMs(node.self_ms);
  for (const auto& [key, value] : node.stats) {
    *out += ",\"" + EscapeJson(key) + "\":" + std::to_string(value);
  }
  *out += "}}";
  // Children occupy the tail of the parent's span, after its self time.
  double child_start = start_ms + node.self_ms;
  for (const int child : node.children) {
    EmitEvents(nodes, child, child_start, tid, first, out);
    child_start += TotalMs(nodes, child);
  }
}

}  // namespace

std::string ExportChromeTrace(const std::vector<const QueryTrace*>& traces) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < traces.size(); ++i) {
    if (traces[i] == nullptr) continue;
    EmitEvents(traces[i]->snapshot(), 0, 0.0, static_cast<int>(i) + 1,
               &first, &out);
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Latency percentiles
// ---------------------------------------------------------------------------

double PercentileNearestRank(const std::vector<double>& sorted,
                             double quantile) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(quantile * static_cast<double>(sorted.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size() - 1, static_cast<size_t>(rank) - 1);
  return sorted[index];
}

LatencyRecorder::LatencyRecorder(const std::string& name,
                                 const std::string& path)
    : LatencyRecorder(name, Labels{{"path", path}}) {}

LatencyRecorder::LatencyRecorder(const std::string& name,
                                 const Labels& labels) {
  MetricRegistry& registry = MetricRegistry::Global();
  const auto with_quantile = [&labels](const char* q) {
    Labels out = labels;
    out.emplace_back("quantile", q);
    return out;
  };
  p50_ = registry.GetGauge(name, with_quantile("0.5"));
  p99_ = registry.GetGauge(name, with_quantile("0.99"));
  p999_ = registry.GetGauge(name, with_quantile("0.999"));
  count_ = registry.GetCounter(name + "_count", labels);
}

void LatencyRecorder::Record(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++runs_[ms];
  ++samples_;
  count_->Increment();
  p50_->Set(PercentileLocked(0.5));
  p99_->Set(PercentileLocked(0.99));
  p999_->Set(PercentileLocked(0.999));
}

double LatencyRecorder::PercentileLocked(double quantile) const {
  if (samples_ == 0) return 0.0;
  const double rank = std::ceil(quantile * static_cast<double>(samples_));
  const int64_t index =
      rank < 1.0 ? 0 : std::min(samples_ - 1, static_cast<int64_t>(rank) - 1);
  int64_t below = 0;
  for (const auto& [value, count] : runs_) {
    below += count;
    if (index < below) return value;
  }
  return runs_.rbegin()->first;
}

int64_t LatencyRecorder::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

std::vector<double> LatencyRecorder::sorted_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> sorted;
  sorted.reserve(static_cast<size_t>(samples_));
  for (const auto& [value, count] : runs_) {
    sorted.insert(sorted.end(), static_cast<size_t>(count), value);
  }
  return sorted;
}

}  // namespace obs
}  // namespace vaq
