#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>

#include "util/rng.hpp"

#include "bench.hpp"

namespace blab::labbench {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h, bits);
}

std::uint64_t mix_bytes(std::uint64_t h, std::string_view bytes) {
  return mix(mix(h, bytes.size()), util::fnv1a(bytes));
}

int Ledger::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

int Ledger::open(int name) {
  Span span;
  span.name = name;
  span.op = op_;
  span.parent = current_;
  span.start = now_ns();
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Ledger::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = now_ns();
  current_ = span.parent;
  if (current_ >= 0) {
    spans_[static_cast<std::size_t>(current_)].child_ns += span.end - span.start;
  }
}

void Ledger::summarize(std::uint32_t op_limit) {
  totals_.assign(names_.size(), Totals{});
  for (const Span& span : spans_) {
    if (span.op >= op_limit) continue;
    const std::int64_t dur = span.end - span.start;
    Totals& t = totals_[static_cast<std::size_t>(span.name)];
    ++t.calls;
    t.busy_ns += dur;
    t.self_ns += dur - span.child_ns;
    t.call_ms.push_back(static_cast<double>(dur) / 1e6);
  }
}

bool Ledger::write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path{path}.parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", s.op, i, s.parent,
                 names_[static_cast<std::size_t>(s.name)].c_str(),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failures_;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace blab::labbench
