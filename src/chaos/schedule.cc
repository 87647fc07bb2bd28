#include "chaos/schedule.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <limits>
#include <set>

#include "common/rng.h"

namespace vaq {
namespace chaos {
namespace {

constexpr uint64_t kScheduleSalt = 0xd1b54a32d192ed03ULL;

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- Minimal JSON reader for the replay document ------------------------
// Strict recursive descent over exactly the shapes ReplayToJson emits
// (objects, arrays, strings without escapes beyond \" and \\, numbers,
// booleans). Anything else is a parse error, never undefined behavior.
class MiniJson {
 public:
  explicit MiniJson(const std::string& text) : text_(text) {}

  Status Expect(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Err(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  StatusOr<std::string> ParseString() {
    VAQ_RETURN_IF_ERROR(Expect('"'));
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("dangling escape");
        c = text_[pos_++];
        if (c != '"' && c != '\\') return Err("unsupported escape");
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return Err("unterminated string");
    ++pos_;  // Closing quote.
    return out;
  }

  StatusOr<std::string> NumberToken() {
    SkipWs();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected a number");
    return text_.substr(start, pos_ - start);
  }

  StatusOr<double> ParseNumber() {
    VAQ_ASSIGN_OR_RETURN(std::string token, NumberToken());
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("malformed number");
    // strtod reads an overflowing literal such as 1e999 as infinity.
    if (!std::isfinite(value)) return Err("'" + token + "' is not finite");
    return value;
  }

  // Integers are parsed from the token straight into their own type
  // (not through double, so 64-bit seeds round-trip exactly); a sign the
  // type cannot hold, or a value outside its range, is an error.
  template <typename Int>
  StatusOr<Int> ParseInt() {
    VAQ_ASSIGN_OR_RETURN(std::string token, NumberToken());
    Int value = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, error] = std::from_chars(token.data(), end, value);
    if (error != std::errc() || ptr != end) {
      return Err("'" + token + "' is not an integer in [" +
                 std::to_string(std::numeric_limits<Int>::min()) + ", " +
                 std::to_string(std::numeric_limits<Int>::max()) + "]");
    }
    return value;
  }

  StatusOr<bool> ParseBool() {
    SkipWs();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    return Err("expected true/false");
  }

  Status ExpectEnd() {
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing characters");
    return Status::OK();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("chaos replay JSON: " + what +
                                   " at offset " + std::to_string(pos_));
  }

  const std::string& text_;
  size_t pos_ = 0;
};

StatusOr<EventKind> EventKindFromName(const std::string& name) {
  for (const EventKind kind :
       {EventKind::kCrashRestart, EventKind::kTornAdvance,
        EventKind::kCorruptSnapshot, EventKind::kForceCheckpoint,
        EventKind::kNodeKill, EventKind::kNetPartition}) {
    if (name == EventKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown chaos event kind '" + name + "'");
}

StatusOr<ChaosEvent> ParseEvent(MiniJson& in) {
  VAQ_RETURN_IF_ERROR(in.Expect('{'));
  ChaosEvent event;
  bool have_kind = false;
  bool first = true;
  while (!in.Peek('}')) {
    if (!first) VAQ_RETURN_IF_ERROR(in.Expect(','));
    first = false;
    VAQ_ASSIGN_OR_RETURN(std::string key, in.ParseString());
    VAQ_RETURN_IF_ERROR(in.Expect(':'));
    if (key == "kind") {
      VAQ_ASSIGN_OR_RETURN(std::string name, in.ParseString());
      VAQ_ASSIGN_OR_RETURN(event.kind, EventKindFromName(name));
      have_kind = true;
    } else if (key == "at_advance") {
      VAQ_ASSIGN_OR_RETURN(event.at_advance, in.ParseInt<int64_t>());
      if (event.at_advance < 0) {
        return Status::InvalidArgument(
            "chaos replay JSON: at_advance must be >= 0, got " +
            std::to_string(event.at_advance));
      }
    } else if (key == "host") {
      VAQ_ASSIGN_OR_RETURN(event.host, in.ParseInt<int64_t>());
    } else if (key == "from_ms") {
      VAQ_ASSIGN_OR_RETURN(event.from_ms, in.ParseNumber());
    } else if (key == "to_ms") {
      VAQ_ASSIGN_OR_RETURN(event.to_ms, in.ParseNumber());
    } else {
      return Status::InvalidArgument("chaos replay JSON: unknown event key '" +
                                     key + "'");
    }
  }
  VAQ_RETURN_IF_ERROR(in.Expect('}'));
  if (!have_kind) {
    return Status::InvalidArgument("chaos replay JSON: event without a kind");
  }
  return event;
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kCrashRestart:
      return "crash_restart";
    case EventKind::kTornAdvance:
      return "torn_advance";
    case EventKind::kCorruptSnapshot:
      return "corrupt_snapshot";
    case EventKind::kForceCheckpoint:
      return "force_checkpoint";
    case EventKind::kNodeKill:
      return "node_kill";
    case EventKind::kNetPartition:
      return "net_partition";
  }
  return "unknown";
}

Schedule GenerateSchedule(const TrialScenario& s, uint64_t seed) {
  Rng rng(MixSeed(MixSeed(seed, kScheduleSalt),
                  static_cast<uint64_t>(s.trial)));
  Schedule schedule;
  switch (s.phase) {
    case Phase::kStanding: {
      if (s.advances < 3) break;
      // Crash points: distinct advances, some torn (crash between WAL
      // append and engine apply).
      const int64_t crashes = rng.UniformInt(int64_t{0}, int64_t{2});
      std::set<int64_t> at;
      for (int64_t i = 0; i < crashes; ++i) {
        at.insert(rng.UniformInt(int64_t{1}, s.advances - 1));
      }
      for (const int64_t a : at) {
        ChaosEvent e;
        e.kind = rng.Bernoulli(0.3) ? EventKind::kTornAdvance
                                    : EventKind::kCrashRestart;
        e.at_advance = a;
        schedule.push_back(e);
      }
      if (rng.Bernoulli(0.4)) {
        ChaosEvent e;
        e.kind = EventKind::kCorruptSnapshot;
        e.at_advance = rng.UniformInt(int64_t{1}, s.advances - 1);
        schedule.push_back(e);
      }
      if (rng.Bernoulli(0.3)) {
        ChaosEvent e;
        e.kind = EventKind::kForceCheckpoint;
        e.at_advance = rng.UniformInt(int64_t{1}, s.advances - 1);
        schedule.push_back(e);
      }
      break;
    }
    case Phase::kCluster: {
      const int hosts =
          s.num_shards + s.num_shards * s.num_replicas;
      const int64_t kills = rng.UniformInt(int64_t{0}, int64_t{3});
      for (int64_t i = 0; i < kills; ++i) {
        ChaosEvent e;
        e.kind = EventKind::kNodeKill;
        e.host = rng.UniformInt(int64_t{0}, int64_t{hosts - 1});
        e.from_ms = rng.UniformDouble(0.0, 150.0);
        e.to_ms = e.from_ms + rng.UniformDouble(10.0, 80.0);
        schedule.push_back(e);
      }
      if (rng.Bernoulli(0.4)) {
        ChaosEvent e;
        e.kind = EventKind::kNetPartition;
        e.from_ms = rng.UniformDouble(0.0, 50.0);
        e.to_ms = e.from_ms + rng.UniformDouble(5.0, 25.0);
        schedule.push_back(e);
      }
      break;
    }
    case Phase::kServe:
      // The serve oracle is thread-count determinism; its adversary is
      // the scheduler, not a fault schedule.
      break;
  }
  // Canonical order: standing events by advance (stable for ties),
  // cluster windows by start.
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     if (a.at_advance != b.at_advance) {
                       return a.at_advance < b.at_advance;
                     }
                     return a.from_ms < b.from_ms;
                   });
  return schedule;
}

std::string ReplayToJson(const ReplaySpec& spec) {
  std::string out = "{\"chaos_replay\": 1, \"seed\": " +
                    std::to_string(spec.seed) +
                    ", \"trial\": " + std::to_string(spec.trial) +
                    ", \"canary\": " + (spec.canary ? "true" : "false") +
                    ", \"events\": [";
  for (size_t i = 0; i < spec.events.size(); ++i) {
    const ChaosEvent& e = spec.events[i];
    if (i > 0) out += ", ";
    out += "{\"kind\": \"" + std::string(EventKindName(e.kind)) + "\"";
    switch (e.kind) {
      case EventKind::kCrashRestart:
      case EventKind::kTornAdvance:
      case EventKind::kCorruptSnapshot:
      case EventKind::kForceCheckpoint:
        out += ", \"at_advance\": " + std::to_string(e.at_advance);
        break;
      case EventKind::kNodeKill:
        out += ", \"host\": " + std::to_string(e.host);
        out += ", \"from_ms\": " + FmtDouble(e.from_ms);
        out += ", \"to_ms\": " + FmtDouble(e.to_ms);
        break;
      case EventKind::kNetPartition:
        out += ", \"from_ms\": " + FmtDouble(e.from_ms);
        out += ", \"to_ms\": " + FmtDouble(e.to_ms);
        break;
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

StatusOr<ReplaySpec> ReplayFromJson(const std::string& json) {
  MiniJson in(json);
  VAQ_RETURN_IF_ERROR(in.Expect('{'));
  ReplaySpec spec;
  bool have_version = false;
  bool first = true;
  while (!in.Peek('}')) {
    if (!first) VAQ_RETURN_IF_ERROR(in.Expect(','));
    first = false;
    VAQ_ASSIGN_OR_RETURN(std::string key, in.ParseString());
    VAQ_RETURN_IF_ERROR(in.Expect(':'));
    if (key == "chaos_replay") {
      VAQ_ASSIGN_OR_RETURN(double v, in.ParseNumber());
      if (v != 1.0) {
        return Status::InvalidArgument("unsupported chaos replay version");
      }
      have_version = true;
    } else if (key == "seed") {
      VAQ_ASSIGN_OR_RETURN(spec.seed, in.ParseInt<uint64_t>());
    } else if (key == "trial") {
      VAQ_ASSIGN_OR_RETURN(spec.trial, in.ParseInt<int64_t>());
    } else if (key == "canary") {
      VAQ_ASSIGN_OR_RETURN(spec.canary, in.ParseBool());
    } else if (key == "events") {
      VAQ_RETURN_IF_ERROR(in.Expect('['));
      while (!in.Peek(']')) {
        if (!spec.events.empty()) VAQ_RETURN_IF_ERROR(in.Expect(','));
        VAQ_ASSIGN_OR_RETURN(ChaosEvent event, ParseEvent(in));
        spec.events.push_back(event);
      }
      VAQ_RETURN_IF_ERROR(in.Expect(']'));
    } else {
      return Status::InvalidArgument("chaos replay JSON: unknown key '" +
                                     key + "'");
    }
  }
  VAQ_RETURN_IF_ERROR(in.Expect('}'));
  VAQ_RETURN_IF_ERROR(in.ExpectEnd());
  if (!have_version) {
    return Status::InvalidArgument(
        "chaos replay JSON: missing chaos_replay version");
  }
  return spec;
}

}  // namespace chaos
}  // namespace vaq
