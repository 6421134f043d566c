// Unified machine-readable bench record: every bench's --json PATH output
// follows one schema so CI trend tooling never special-cases a bench:
//
//   {"name": "...", "config": {...}, "metrics": {...}, "git_sha": "..."}
//
// `config` holds the knobs that shaped the run (apps, producers, reps,
// smoke), `metrics` the measured results. scripts/check_bench_json.py
// validates emitted files against exactly this shape in CI. The git sha is
// baked in at compile time (CMake passes -DHB_GIT_SHA=<short sha> to bench
// targets; "unknown" outside a git checkout).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#ifndef HB_GIT_SHA
#define HB_GIT_SHA "unknown"
#endif

namespace hb::bench {

class JsonRecord {
 public:
  explicit JsonRecord(std::string name) : name_(std::move(name)) {}

  void config(const char* key, long long v) { add(config_, key, num(v)); }
  void config(const char* key, int v) { config(key, static_cast<long long>(v)); }
  void config(const char* key, std::uint64_t v) {
    add(config_, key, num(static_cast<long long>(v)));
  }
  void config(const char* key, double v) { add(config_, key, num(v)); }
  void config(const char* key, bool v) {
    add(config_, key, v ? "true" : "false");
  }
  void config(const char* key, const char* v) {
    std::string quoted(1, '"');
    quoted.append(v).push_back('"');
    add(config_, key, std::move(quoted));
  }

  void metric(const char* key, long long v) { add(metrics_, key, num(v)); }
  void metric(const char* key, std::uint64_t v) {
    add(metrics_, key, num(static_cast<long long>(v)));
  }
  void metric(const char* key, double v) { add(metrics_, key, num(v)); }
  void metric(const char* key, bool v) {
    add(metrics_, key, v ? "true" : "false");
  }

  /// Write the record to `path`. Returns false (with a stderr note) on I/O
  /// failure so benches can keep their measurement exit codes authoritative.
  bool write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path);
      return false;
    }
    std::fprintf(f, "{\n  \"name\": \"%s\",\n  \"config\": {", name_.c_str());
    emit(f, config_);
    std::fprintf(f, "},\n  \"metrics\": {");
    emit(f, metrics_);
    std::fprintf(f, "},\n  \"git_sha\": \"%s\"\n}\n", HB_GIT_SHA);
    std::fclose(f);
    return true;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  static std::string num(long long v) { return std::to_string(v); }
  static std::string num(double v) {
    if (!std::isfinite(v)) return "0";  // inf/nan are not JSON numbers
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  static void add(Fields& fields, const char* key, std::string value) {
    fields.emplace_back(key, std::move(value));
  }

  static void emit(std::FILE* f, const Fields& fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %s", i ? "," : "",
                   fields[i].first.c_str(), fields[i].second.c_str());
    }
    if (!fields.empty()) std::fprintf(f, "\n  ");
  }

  std::string name_;
  Fields config_;
  Fields metrics_;
};

}  // namespace hb::bench
