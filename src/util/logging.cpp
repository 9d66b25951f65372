#include "util/logging.hpp"

#include <iostream>
#include <utility>
#include <vector>

namespace blab::util {

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

std::string LogRecord::flat() const {
  std::string out{message};
  if (fields != nullptr) {
    for (const LogField& f : *fields) {
      out += ' ';
      out += f.key;
      out += '=';
      out += f.value;
    }
  }
  return out;
}

Logger::Logger()
    : sink_{std::make_shared<const Sink>([](const LogRecord& rec) {
        std::cerr << "[" << log_level_name(rec.level) << "] "
                  << rec.component << ": " << rec.flat() << "\n";
      })} {}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

std::shared_ptr<const Logger::Sink> Logger::sink() const {
  std::lock_guard<std::mutex> lock{mu_};
  return sink_;
}

std::shared_ptr<const Logger::Sink> Logger::swap_sink(
    std::shared_ptr<const Sink> next) {
  std::lock_guard<std::mutex> lock{mu_};
  std::swap(sink_, next);
  return next;
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view msg) {
  if (!enabled(level)) return;
  (*sink())({level, component, msg, nullptr});
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view msg, const LogFields& fields) {
  if (!enabled(level)) return;
  (*sink())({level, component, msg, &fields});
}

LogCapture::LogCapture() : previous_level_{Logger::global().level()} {
  Logger::global().set_level(LogLevel::kDebug);
  previous_ = Logger::global().swap_sink(
      std::make_shared<const Logger::Sink>([this](const LogRecord& rec) {
        Entry e;
        e.line = std::string{log_level_name(rec.level)} + " " +
                 std::string{rec.component} + ": " + rec.flat();
        if (rec.fields != nullptr) e.fields = *rec.fields;
        std::lock_guard<std::mutex> lock{mu_};
        entries_.push_back(std::move(e));
      }));
}

LogCapture::~LogCapture() {
  Logger::global().swap_sink(previous_);
  Logger::global().set_level(previous_level_);
}

std::vector<std::string> LogCapture::lines() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.line);
  return out;
}

std::size_t LogCapture::size() const {
  std::lock_guard<std::mutex> lock{mu_};
  return entries_.size();
}

bool LogCapture::contains(std::string_view needle) const {
  std::lock_guard<std::mutex> lock{mu_};
  for (const Entry& e : entries_) {
    if (e.line.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool LogCapture::has_field(std::string_view key, std::string_view value) const {
  std::lock_guard<std::mutex> lock{mu_};
  for (const Entry& e : entries_) {
    for (const LogField& f : e.fields) {
      if (f.key == key && f.value == value) return true;
    }
  }
  return false;
}

bool OncePerKey::first(std::string_view key) {
  std::lock_guard<std::mutex> lock{mu_};
  return seen_.emplace(key).second;
}

std::size_t OncePerKey::seen() const {
  std::lock_guard<std::mutex> lock{mu_};
  return seen_.size();
}

void OncePerKey::reset() {
  std::lock_guard<std::mutex> lock{mu_};
  seen_.clear();
}

}  // namespace blab::util
