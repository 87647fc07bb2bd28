#include "synth/spec_file.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "video/layout.h"

namespace vaq {
namespace synth {
namespace {

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

// Every number in a spec is finite: NaN or infinity would reach the
// generator's rate checks or an undefined conversion.
Status ParseDouble(const std::string& key, const std::string& value, int line,
                   double* out) {
  // strtod keeps the library exception-free.
  const char* begin = value.c_str();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  if (value.empty() || end != begin + value.size() || !std::isfinite(*out)) {
    return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                   key + " expects a finite number, got '" +
                                   value + "'");
  }
  return Status::OK();
}

// An integer field: decimal digits (a minus sign for signed fields) in
// `Int`'s range, parsed straight into `Int` so no digit is lost.
template <typename Int>
Status ParseInteger(const std::string& key, const std::string& value,
                    int line, Int* out) {
  const char* end = value.data() + value.size();
  const auto [ptr, error] = std::from_chars(value.data(), end, *out);
  if (value.empty() || error != std::errc() || ptr != end) {
    return Status::InvalidArgument(
        "line " + std::to_string(line) + ": " + key +
        " must be an integer in [" +
        std::to_string(std::numeric_limits<Int>::min()) + ", " +
        std::to_string(std::numeric_limits<Int>::max()) + "], got '" + value +
        "'");
  }
  return Status::OK();
}

Status ParsePositive(const std::string& key, const std::string& value,
                     int line, double* out) {
  VAQ_RETURN_IF_ERROR(ParseDouble(key, value, line, out));
  if (*out <= 0) {
    return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                   key + " must be > 0, got '" + value + "'");
  }
  return Status::OK();
}

// A duty or probability: a finite number in [0, 1].
Status ParseFraction(const std::string& key, const std::string& value,
                     int line, double* out) {
  VAQ_RETURN_IF_ERROR(ParseDouble(key, value, line, out));
  if (*out < 0 || *out > 1) {
    return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                   key + " must lie in [0, 1], got '" +
                                   value + "'");
  }
  return Status::OK();
}

Status ParseDrift(const std::string& value, int line, DriftProfile* out) {
  out->multipliers.clear();
  std::stringstream ss(value);
  std::string piece;
  while (std::getline(ss, piece, ',')) {
    double multiplier = 0;
    VAQ_RETURN_IF_ERROR(ParseDouble("drift", Trim(piece), line, &multiplier));
    out->multipliers.push_back(multiplier);
  }
  if (out->multipliers.empty()) {
    return Status::InvalidArgument("line " + std::to_string(line) +
                                   ": empty drift profile");
  }
  return Status::OK();
}

}  // namespace

StatusOr<ScenarioSpec> ParseScenarioSpec(const std::string& text) {
  ScenarioSpec spec;
  enum class Section { kGlobal, kAction, kObject };
  Section section = Section::kGlobal;

  std::stringstream stream(text);
  std::string raw;
  int line_number = 0;
  while (std::getline(stream, raw)) {
    ++line_number;
    const size_t comment = raw.find('#');
    const std::string line =
        Trim(comment == std::string::npos ? raw : raw.substr(0, comment));
    if (line.empty()) continue;

    if (line == "[action]") {
      spec.actions.emplace_back();
      section = Section::kAction;
      continue;
    }
    if (line == "[object]") {
      spec.objects.emplace_back();
      section = Section::kObject;
      continue;
    }
    if (line.front() == '[') {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": unknown section " + line);
    }
    const size_t equals = line.find('=');
    if (equals == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": expected key = value");
    }
    const std::string key = Trim(line.substr(0, equals));
    const std::string value = Trim(line.substr(equals + 1));

    switch (section) {
      case Section::kGlobal:
        if (key == "name") {
          spec.name = value;
        } else if (key == "minutes") {
          VAQ_RETURN_IF_ERROR(
              ParsePositive(key, value, line_number, &spec.minutes));
        } else if (key == "fps") {
          VAQ_RETURN_IF_ERROR(
              ParsePositive(key, value, line_number, &spec.fps));
        } else if (key == "seed") {
          VAQ_RETURN_IF_ERROR(
              ParseInteger(key, value, line_number, &spec.seed));
        } else if (key == "video_id") {
          VAQ_RETURN_IF_ERROR(
              ParseInteger(key, value, line_number, &spec.video_id));
        } else if (key == "frames_per_shot") {
          VAQ_RETURN_IF_ERROR(
              ParseInteger(key, value, line_number, &spec.frames_per_shot));
        } else if (key == "shots_per_clip") {
          VAQ_RETURN_IF_ERROR(
              ParseInteger(key, value, line_number, &spec.shots_per_clip));
        } else {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ": unknown global key " +
              key);
        }
        break;
      case Section::kAction: {
        ActionTrackSpec& action = spec.actions.back();
        if (key == "name") {
          action.name = value;
        } else if (key == "duty") {
          VAQ_RETURN_IF_ERROR(
              ParseFraction(key, value, line_number, &action.duty));
        } else if (key == "mean_len_frames") {
          VAQ_RETURN_IF_ERROR(ParsePositive(key, value, line_number,
                                            &action.mean_len_frames));
        } else if (key == "drift") {
          VAQ_RETURN_IF_ERROR(ParseDrift(value, line_number, &action.drift));
        } else {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ": unknown action key " +
              key);
        }
        break;
      }
      case Section::kObject: {
        ObjectTrackSpec& object = spec.objects.back();
        if (key == "name") {
          object.name = value;
        } else if (key == "background_duty") {
          VAQ_RETURN_IF_ERROR(ParseFraction(key, value, line_number,
                                            &object.background_duty));
        } else if (key == "mean_len_frames") {
          VAQ_RETURN_IF_ERROR(ParsePositive(key, value, line_number,
                                            &object.mean_len_frames));
        } else if (key == "coupled_action") {
          object.coupled_action = value;
        } else if (key == "cover_action_prob") {
          VAQ_RETURN_IF_ERROR(ParseFraction(key, value, line_number,
                                            &object.cover_action_prob));
        } else if (key == "mean_instances") {
          VAQ_RETURN_IF_ERROR(ParsePositive(key, value, line_number,
                                            &object.mean_instances));
        } else if (key == "drift") {
          VAQ_RETURN_IF_ERROR(ParseDrift(value, line_number, &object.drift));
        } else {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ": unknown object key " +
              key);
        }
        break;
      }
    }
  }
  // Validation. NumFrames() casts minutes * 60 * fps to int64, so the
  // product must fit first (2^63 is an exact double).
  if (!(spec.minutes * 60.0 * spec.fps < std::ldexp(1.0, 63))) {
    return Status::InvalidArgument(
        "minutes * 60 * fps frames do not fit in int64");
  }
  VAQ_RETURN_IF_ERROR(VideoLayout::Make(spec.NumFrames(),
                                        spec.frames_per_shot,
                                        spec.shots_per_clip)
                          .status());
  if (spec.NumFrames() <= 0) {
    return Status::InvalidArgument("scenario has no frames");
  }
  for (const ActionTrackSpec& action : spec.actions) {
    if (action.name.empty()) {
      return Status::InvalidArgument("action track without a name");
    }
  }
  for (const ObjectTrackSpec& object : spec.objects) {
    if (object.name.empty()) {
      return Status::InvalidArgument("object track without a name");
    }
    if (!object.coupled_action.empty()) {
      bool found = false;
      for (const ActionTrackSpec& action : spec.actions) {
        found |= action.name == object.coupled_action;
      }
      if (!found) {
        return Status::InvalidArgument("object '" + object.name +
                                       "' couples to unknown action '" +
                                       object.coupled_action + "'");
      }
    }
  }
  return spec;
}

StatusOr<ScenarioSpec> LoadScenarioSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open spec file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseScenarioSpec(buffer.str());
}

}  // namespace synth
}  // namespace vaq
