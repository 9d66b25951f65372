// Minimal structured logging.
//
// The platform components (access server, controller, monitor) log through a
// global sink: stderr by default, or a LogCapture in tests. Two forms:
//
//   BLAB_INFO("scheduler", "job finished id=" << id);           // string
//   BLAB_INFO_KV("scheduler", "job_finished", {"job", id});     // structured
//
// The structured form carries typed key=value fields into the sink so tests
// can match on fields instead of substrings; stderr shows them appended as
// " key=value".
//
// Thread safety: the parallel DST runner (`run_corpus --jobs=N`) logs from
// worker threads, so the level is an atomic and the sink is an immutable
// shared_ptr swapped under a mutex — a logging thread copies the pointer
// under the lock and invokes the sink outside it, so a concurrent
// LogCapture install never races with an in-flight log call.
// LogCapture itself locks its line buffer, making it safe to install around
// a pooled corpus run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

namespace blab::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

const char* log_level_name(LogLevel level);

/// One structured field. Arithmetic values are rendered once, at the call
/// site, so sinks and captures only ever deal in strings.
struct LogField {
  std::string key;
  std::string value;

  LogField(std::string_view k, std::string_view v) : key{k}, value{v} {}
  LogField(std::string_view k, const char* v) : key{k}, value{v} {}
  LogField(std::string_view k, const std::string& v) : key{k}, value{v} {}
  LogField(std::string_view k, bool v) : key{k}, value{v ? "true" : "false"} {}
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T> &&
                                        !std::is_same_v<T, bool>>>
  LogField(std::string_view k, T v) : key{k} {
    std::ostringstream oss;
    oss << v;
    value = oss.str();
  }
};
using LogFields = std::vector<LogField>;

/// A fully-rendered log event as the sink sees it.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string_view component;
  std::string_view message;
  const LogFields* fields = nullptr;  ///< nullptr when the call had none

  /// "message key=value key=value".
  std::string flat() const;
};

class Logger {
 public:
  static Logger& global();

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  void log(LogLevel level, std::string_view component, std::string_view msg);
  void log(LogLevel level, std::string_view component, std::string_view msg,
           const LogFields& fields);
  bool enabled(LogLevel level) const { return level >= this->level(); }

 private:
  friend class LogCapture;

  // The installed sink. Immutable once installed; swapped wholesale so
  // readers need no lock to use it.
  using Sink = std::function<void(const LogRecord&)>;

  Logger();
  std::shared_ptr<const Sink> sink() const;
  std::shared_ptr<const Sink> swap_sink(std::shared_ptr<const Sink> next);

  std::atomic<LogLevel> level_{LogLevel::kWarn};
  mutable std::mutex mu_;
  std::shared_ptr<const Sink> sink_;
};

/// Scoped capture of log lines, for tests. Thread-safe: may be installed
/// around a pooled corpus run and fed from worker threads.
class LogCapture {
 public:
  LogCapture();
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  /// Snapshot of the captured lines ("LEVEL component: message k=v ...").
  /// Returns a copy — other threads may still be appending.
  std::vector<std::string> lines() const;
  std::size_t size() const;
  bool contains(std::string_view needle) const;
  /// True if any captured record carried field `key` with exactly `value`.
  bool has_field(std::string_view key, std::string_view value) const;

 private:
  struct Entry {
    std::string line;
    LogFields fields;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::shared_ptr<const Logger::Sink> previous_;
  LogLevel previous_level_;
};

/// Once-per-key rate limiter for hot-path logging: `first(key)` is true the
/// first time a key is seen, false forever after. Keeps a pathological
/// scenario (e.g. thousands of past-t clamps from one call site) from
/// flooding the sink while still surfacing each distinct site once.
/// Thread-safe; keys are never forgotten, so use bounded key spaces
/// (call-site labels, metric names — not per-event ids).
class OncePerKey {
 public:
  bool first(std::string_view key);
  std::size_t seen() const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::unordered_set<std::string> seen_;
};

}  // namespace blab::util

#define BLAB_LOG(level, component, expr)                                   \
  do {                                                                     \
    if (::blab::util::Logger::global().enabled(level)) {                   \
      std::ostringstream blab_log_oss_;                                    \
      blab_log_oss_ << expr;                                               \
      ::blab::util::Logger::global().log(level, component,                 \
                                         blab_log_oss_.str());             \
    }                                                                      \
  } while (0)

// Structured form: BLAB_LOG_KV(level, "scheduler", "job_started",
//                              {"job", id}, {"vp", vp});
#define BLAB_LOG_KV(level, component, msg, ...)                            \
  do {                                                                     \
    if (::blab::util::Logger::global().enabled(level)) {                   \
      ::blab::util::Logger::global().log(                                  \
          level, component, msg,                                           \
          ::blab::util::LogFields{__VA_ARGS__});                           \
    }                                                                      \
  } while (0)

#define BLAB_DEBUG(component, expr) \
  BLAB_LOG(::blab::util::LogLevel::kDebug, component, expr)
#define BLAB_INFO(component, expr) \
  BLAB_LOG(::blab::util::LogLevel::kInfo, component, expr)
#define BLAB_WARN(component, expr) \
  BLAB_LOG(::blab::util::LogLevel::kWarn, component, expr)
#define BLAB_ERROR(component, expr) \
  BLAB_LOG(::blab::util::LogLevel::kError, component, expr)

#define BLAB_DEBUG_KV(component, msg, ...) \
  BLAB_LOG_KV(::blab::util::LogLevel::kDebug, component, msg, __VA_ARGS__)
#define BLAB_INFO_KV(component, msg, ...) \
  BLAB_LOG_KV(::blab::util::LogLevel::kInfo, component, msg, __VA_ARGS__)
#define BLAB_WARN_KV(component, msg, ...) \
  BLAB_LOG_KV(::blab::util::LogLevel::kWarn, component, msg, __VA_ARGS__)
#define BLAB_ERROR_KV(component, msg, ...) \
  BLAB_LOG_KV(::blab::util::LogLevel::kError, component, msg, __VA_ARGS__)
