//===- perfbench/runner/Spans.h - in-memory layer spans ---------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing: a span around every call the benchmark makes
/// into a layer's public functions, recorded in memory and written out
/// when the run ends. Spans are taken from outside the program -- the
/// benchmark wraps each call -- so the program itself is unchanged.
/// Disabled (the default, and every end-to-end run) a span costs one
/// branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RUNNER_SPANS_H
#define PERFBENCH_RUNNER_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char *Name = ""; ///< Layer call, e.g. "sim.launch" (static string).
  double Start = 0;      ///< Seconds since the log was enabled.
  double End = 0;
  int Parent = -1;       ///< Index of the enclosing span, -1 at the root.
  int64_t Op = -1;       ///< Op id the span belongs to.
};

/// Process-wide span log. The benchmark is single-threaded: spans nest
/// strictly, so a span's children are the spans opened inside it.
class SpanLog {
public:
  static SpanLog &get();

  bool enabled() const { return Enabled; }
  /// Starts recording; resets spans, counters and the clock origin.
  void enable();
  void disable() { Enabled = false; }

  /// Op id stamped on the spans opened from now on.
  void setOp(int64_t Op) { CurrentOp = Op; }

  int begin(const char *Name);
  void end(int Id);

  /// Adds \p V to the counter \p Name (only while enabled), so counts
  /// are taken at the same boundaries as the spans.
  void count(const std::string &Name, double V) {
    if (Enabled)
      Counters[Name] += V;
  }
  double counter(const std::string &Name) const;

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Per span name: total self seconds (each span's duration minus the
  /// durations of its child spans) and the number of spans.
  struct SelfTime {
    double Seconds = 0;
    uint64_t Calls = 0;
  };
  std::map<std::string, SelfTime> selfTimes() const;

  /// Writes every span as one JSON object per line.
  bool writeJsonLines(const std::string &Path) const;

private:
  double now() const;

  bool Enabled = false;
  int64_t CurrentOp = -1;
  std::chrono::steady_clock::time_point Origin;
  std::vector<SpanRecord> Spans;
  std::vector<int> Open; ///< Stack of open span indices.
  std::map<std::string, double> Counters;
};

/// RAII span; a no-op unless the log is enabled.
class SpanScope {
public:
  explicit SpanScope(const char *Name)
      : Id(SpanLog::get().enabled() ? SpanLog::get().begin(Name) : -1) {}
  ~SpanScope() {
    if (Id >= 0)
      SpanLog::get().end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  int Id;
};

/// Calls \p Fn inside a span named \p Name and returns its result.
template <typename F> decltype(auto) timed(const char *Name, F &&Fn) {
  SpanScope Scope(Name);
  return Fn();
}

} // namespace perfbench

#endif // PERFBENCH_RUNNER_SPANS_H
