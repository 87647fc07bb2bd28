#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/json.h"

namespace vaq {
namespace internal_logging {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

LogLevel ParseLevel(const char* value, LogLevel fallback) {
  if (value == nullptr) return fallback;
  if (std::strcmp(value, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(value, "warning") == 0 || std::strcmp(value, "warn") == 0) {
    return LogLevel::kWarning;
  }
  if (std::strcmp(value, "error") == 0) return LogLevel::kError;
  if (std::strcmp(value, "fatal") == 0) return LogLevel::kFatal;
  return fallback;
}

// Process-wide sink configuration. Env vars are read once, lazily, so
// tools can still override programmatically before the first log line.
struct SinkConfig {
  SinkConfig() {
    min_level = ParseLevel(std::getenv("VAQ_LOG_LEVEL"), LogLevel::kInfo);
    const char* format = std::getenv("VAQ_LOG_FORMAT");
    json = format != nullptr && std::strcmp(format, "json") == 0;
  }

  std::mutex mu;
  LogLevel min_level;
  bool json;
  std::function<void(const std::string&)> sink;
  std::function<void(int64_t)> suppression_listener;
  int64_t sequence = 0;
};

SinkConfig& Config() {
  static SinkConfig* const config = new SinkConfig();
  return *config;
}

}  // namespace

void SetMinLogLevel(LogLevel level) {
  std::lock_guard<std::mutex> lock(Config().mu);
  Config().min_level = level;
}

LogLevel MinLogLevel() {
  std::lock_guard<std::mutex> lock(Config().mu);
  return Config().min_level;
}

void SetJsonLogging(bool on) {
  std::lock_guard<std::mutex> lock(Config().mu);
  Config().json = on;
}

void SetLogSink(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(Config().mu);
  Config().sink = std::move(sink);
}

void SetLogSuppressionListener(std::function<void(int64_t)> listener) {
  std::lock_guard<std::mutex> lock(Config().mu);
  Config().suppression_listener = std::move(listener);
}

int64_t RateLimitTick(std::atomic<int64_t>* counter, int64_t every_n) {
  if (every_n <= 1) return 0;
  const int64_t count = counter->fetch_add(1, std::memory_order_relaxed);
  if (count % every_n != 0) {
    SinkConfig& config = Config();
    std::lock_guard<std::mutex> lock(config.mu);
    if (config.suppression_listener) config.suppression_listener(1);
    return -1;
  }
  return count == 0 ? 0 : every_n - 1;
}

void EmitLogLine(LogLevel level, const char* file, int line,
                 const std::string& message) {
  SinkConfig& config = Config();
  {
    std::lock_guard<std::mutex> lock(config.mu);
    // Fatal always emits: the abort diagnostic must not be filterable.
    if (level >= config.min_level || level == LogLevel::kFatal) {
      std::string formatted;
      if (config.json) {
        formatted = "{\"seq\":" + std::to_string(config.sequence++) +
                    ",\"level\":\"" + LevelName(level) + "\",\"file\":\"" +
                    EscapeJson(Basename(file)) +
                    "\",\"line\":" + std::to_string(line) + ",\"msg\":\"" +
                    EscapeJson(message) + "\"}";
      } else {
        ++config.sequence;
        formatted = std::string("[") + LevelName(level) + " " +
                    Basename(file) + ":" + std::to_string(line) + "] " +
                    message;
      }
      if (config.sink) {
        config.sink(formatted);
      } else {
        std::fprintf(stderr, "%s\n", formatted.c_str());
      }
    }
  }
  if (level == LogLevel::kFatal) std::abort();
}

}  // namespace internal_logging
}  // namespace vaq
