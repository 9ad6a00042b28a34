#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wallbench {

namespace {

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

void Usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload <exec-smallbank-hot|"
               "cluster-smallbank-hot|cluster-smallbank-cross> --seed <n> "
               "--seconds <s> --trace <0|1> [--engine ce|occ|2pl]\n"
               "       wallbench --self-test\n");
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "wallbench: %s needs a value\n", flag.c_str());
      Usage();
      return false;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      args->seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &number) &&
               number > 0 && number <= 3600) {
      args->seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUint(value, &number) && number <= 1) {
      args->trace = number == 1;
      have_trace = true;
    } else if (flag == "--engine") {
      args->engine = value;
    } else {
      std::fprintf(stderr, "wallbench: bad flag or value: %s %s\n",
                   flag.c_str(), value);
      Usage();
      return false;
    }
  }
  if (args->self_test) return true;
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    Usage();
    return false;
  }
  return true;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                attempted, failed);
  out += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit of the measured double; non-finite values
    // (a ratio over nothing) cannot appear in JSON and are printed as 0.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Spans::Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int Spans::Begin(const char* name) {
  if (!enabled_) return -1;
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_).count();
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now, now, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Spans::End(int id) {
  if (!enabled_ || id < 0) return;
  spans_[id].end_us = std::chrono::duration<double, std::micro>(
                          Clock::now() - origin_).count();
  // Spans close innermost-first; pop through `id`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, double> Spans::SelfMs() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += (s.end_us - s.start_us - child_us[i]) / 1000.0;
  }
  return self;
}

bool Spans::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}",
                 i == 0 ? "" : ",", s.name, s.start_us,
                 s.end_us - s.start_us, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

}  // namespace wallbench
