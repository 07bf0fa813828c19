//===- perfbench/runner/main.cpp - benchmark runner process ---------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Runs one workload in its own process and prints one JSON record of raw
// measurements; perfbench/run.py turns records into the benchmark's
// metrics. Usage:
//
//   perfbench --workload NAME --seed N --repo DIR --tmp DIR
//             [--seconds S] [--trace 0|1] [--spans-out FILE]
//             [--setup-only]
//
// The process prints "ready" once set-up is done. --trace 0 then runs a
// closed loop, one op in flight, cycling the workload's points for S
// seconds. --trace 1 runs the same closed loop untraced, then one cycle
// of the points again with a span around every layer call, samples the
// layers the ops did not reach, and reports per-layer metrics.
//
//===----------------------------------------------------------------------===//

#include "runner/Spans.h"
#include "runner/Workloads.h"

#include "support/Args.h"
#include "support/Json.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

using namespace gpuperf;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Repo = ".";
  std::string Tmp;
  std::string SpansOut;
  bool SetupOnly = false;
};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(Arg + " requires a value");
      return Argv[++I];
    };
    if (Arg == "--workload") {
      O.Workload = next();
    } else if (Arg == "--seed") {
      auto V = parseUnsigned(next(), ~0ull);
      if (!V)
        usage("--seed: " + V.message());
      O.Seed = *V;
    } else if (Arg == "--seconds") {
      auto V = parseDouble(next(), 0.0, 3600.0);
      if (!V)
        usage("--seconds: " + V.message());
      O.Seconds = *V;
    } else if (Arg == "--trace") {
      auto V = parseInteger(next(), 0, 1);
      if (!V)
        usage("--trace: " + V.message());
      O.Trace = *V == 1;
    } else if (Arg == "--repo") {
      O.Repo = next();
    } else if (Arg == "--tmp") {
      O.Tmp = next();
    } else if (Arg == "--spans-out") {
      O.SpansOut = next();
    } else if (Arg == "--setup-only") {
      O.SetupOnly = true;
    } else {
      usage("unknown argument '" + Arg + "'");
    }
  }
  if (O.Workload.empty())
    usage("--workload is required");
  if (O.Tmp.empty())
    usage("--tmp is required");
  return O;
}

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Runs point \p Point as op \p OpId and returns its host seconds.
double timedOp(Workload &W, size_t Point, int64_t OpId,
               std::vector<OpOutcome> &Ops) {
  SpanLog::get().setOp(OpId);
  Clock::time_point T0 = Clock::now();
  {
    SpanScope Op("op");
    Ops.push_back(W.run(Point));
  }
  return secondsSince(T0);
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// The peak RSS is read after this many cycles of the points. With
/// Jobs=2 a full-chip process grows with every op for the first cycles
/// and its peak after one cycle still depends on thread timing; after two
/// it repeats within about 1%.
constexpr size_t RssCycles = 2;

/// Closed loop, one op in flight, cycling the points for at least
/// \p Seconds and at least RssCycles times. It stops only after whole
/// cycles, so every point weighs the same in every run. \p PeakRssMb is
/// the process's peak RSS after RssCycles cycles, so it does not depend
/// on how many cycles fit in \p Seconds.
std::vector<double> closedLoop(Workload &W, double Seconds,
                               std::vector<OpOutcome> &Ops,
                               double &PeakRssMb) {
  const size_t RssOps = RssCycles * W.numPoints();
  std::vector<double> Times;
  Clock::time_point T0 = Clock::now();
  while (Times.size() < RssOps || secondsSince(T0) < Seconds ||
         Times.size() % W.numPoints() != 0) {
    Times.push_back(
        timedOp(W, Times.size() % W.numPoints(),
                static_cast<int64_t>(Times.size()), Ops));
    if (Times.size() == RssOps)
      PeakRssMb = peakRssMb();
  }
  return Times;
}

void writeFailures(JsonWriter &J, const OpOutcome &Op) {
  J.key("failures");
  J.beginArray();
  for (const std::string &F : Op.Failures)
    J.value(F);
  J.endArray();
}

/// Writes the ops; the first \p Warmup of them have no timing.
void writeOps(JsonWriter &J, const std::vector<OpOutcome> &Ops,
              size_t Warmup, const std::vector<double> &Seconds) {
  J.key("ops");
  J.beginArray();
  for (size_t I = 0; I < Ops.size(); ++I) {
    J.beginObject();
    J.kv("point", static_cast<uint64_t>(Ops[I].Point));
    if (I < Warmup) {
      J.kv("warmup", true);
    } else {
      J.key("seconds");
      J.value(Seconds[I - Warmup], 9);
    }
    J.kv("sm_cycles", Ops[I].SmCycles);
    J.kv("digest", hex(Ops[I].Digest));
    writeFailures(J, Ops[I]);
    J.endObject();
  }
  J.endArray();
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / static_cast<double>(V.size());
}

/// Per-layer metrics from the traced pass. A layer's "_s" metric is its
/// mean self seconds per call.
void writeLayers(JsonWriter &J, const std::vector<double> &Untraced,
                 const std::vector<double> &Traced) {
  const SpanLog &L = SpanLog::get();
  const auto Self = L.selfTimes();
  auto perCall = [&](const std::string &Name) {
    auto It = Self.find(Name);
    return It == Self.end() || !It->second.Calls
               ? 0.0
               : It->second.Seconds / static_cast<double>(It->second.Calls);
  };
  auto total = [&](const std::string &Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? 0.0 : It->second.Seconds;
  };
  auto ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };

  J.key("layers");
  J.beginObject();
  for (const char *Name :
       {"sim.launch", "sim.upload", "sgemm.reference", "kernelgen.generate",
        "asmtool.disassemble", "asmtool.assemble", "isa.serialize",
        "isa.deserialize", "ubench.db_save", "ubench.db_load",
        "model.analyze", "observe.launch", "probe.parse", "probe.report",
        "analysis.profile_report", "sim.trace_write"}) {
    J.key(std::string(Name) + "_s");
    J.value(perCall(Name), 9);
  }
  // The cold analysis measures microbenchmarks and then models; the warm
  // one over the reopened database only models.
  J.key("ubench.measure_s");
  J.value(perCall("model.analyze.cold") - perCall("model.analyze"), 9);
  J.key("sim.ns_per_sm_cycle");
  J.value(1e9 * ratio(total("sim.launch"), L.counter("sim.launch.sm_cycles")),
          6);
  J.key("sim.ns_per_warp_inst");
  J.value(1e9 * ratio(total("sim.launch"), L.counter("sim.launch.warp_insts")),
          6);
  for (const char *Name :
       {"sim.sm_cycles", "sim.warp_insts", "sim.thread_insts",
        "sim.dual_issues", "sim.replays", "sim.global_bytes",
        "sim.slots.issued", "sim.slots.scoreboard", "sim.slots.bank_conflict",
        "sim.slots.dispatch_limit", "sim.slots.lds_throughput",
        "sim.slots.barrier", "sim.slots.no_eligible_warp",
        "sim.trace_dropped", "ubench.measurements", "model.bound_pct.GTX580",
        "model.bound_pct.GTX680"}) {
    J.key(Name);
    J.value(L.counter(Name), 6);
  }
  auto Gen = Self.find("kernelgen.generate");
  J.kv("kernelgen.kernels",
       static_cast<uint64_t>(Gen == Self.end() ? 0 : Gen->second.Calls));
  J.key("ubench.hit_ratio");
  J.value(ratio(L.counter("ubench.hits"), L.counter("ubench.lookups")), 6);
  J.key("observe.overhead_ratio");
  J.value(ratio(perCall("observe.launch"),
                ratio(L.counter("observe.plain_launch_s"),
                      L.counter("observe.plain_launches"))),
          6);
  J.key("bench.trace_overhead");
  J.value(mean(Traced) - mean(Untraced), 9);
  J.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  std::error_code EC;
  std::filesystem::create_directories(O.Tmp, EC);
  if (EC) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", O.Tmp.c_str(),
                 EC.message().c_str());
    return 1;
  }
  auto WOrErr = makeWorkload(O.Workload, O.Seed, O.Repo, O.Tmp);
  if (!WOrErr) {
    std::fprintf(stderr, "perfbench: %s\n", WOrErr.message().c_str());
    return 1;
  }
  std::unique_ptr<Workload> W = WOrErr.take();
  std::printf("ready\n");
  std::fflush(stdout);
  if (O.SetupOnly)
    return 0;

  JsonWriter J;
  J.beginObject();
  J.kv("workload", O.Workload);
  J.kv("jobs", W->jobs());
  J.kv("points", static_cast<uint64_t>(W->numPoints()));
  // One untimed (but checked) op first, so first-use costs of the
  // process are not charged to the first timed op.
  std::vector<OpOutcome> Ops;
  Ops.push_back(W->run(0));
  double PeakRss = 0;
  if (!O.Trace) {
    Clock::time_point T0 = Clock::now();
    std::vector<double> Seconds = closedLoop(*W, O.Seconds, Ops, PeakRss);
    const double Timed = secondsSince(T0);
    W->finish(Ops);
    J.key("timed_seconds");
    J.value(Timed, 9);
    writeOps(J, Ops, 1, Seconds);
    // The model's headline bounds, from the ops that analysed a machine
    // and, after the timed phase, from a fresh analysis for the rest.
    std::map<std::string, double> Bounds;
    for (const OpOutcome &Op : Ops)
      Bounds.insert(Op.BoundPct.begin(), Op.BoundPct.end());
    for (const MachineDesc *M : {&gtx580(), &gtx680()})
      if (!Bounds.count(M->Name))
        Bounds[M->Name] = headlineBoundPct(*M);
    J.key("bound_pct");
    J.beginObject();
    for (const auto &[Name, Pct] : Bounds) {
      J.key(Name);
      J.value(Pct, 9);
    }
    J.endObject();
  } else {
    // The untraced loop, then one cycle of the same points traced. Every
    // cycle does the same work, so the difference of the mean op times is
    // the tracing overhead, and the counts taken in the traced run do not
    // depend on host speed.
    std::vector<double> Untraced = closedLoop(*W, O.Seconds, Ops, PeakRss);
    SpanLog::get().enable();
    std::vector<double> Traced;
    for (size_t P = 0; P < W->numPoints(); ++P)
      Traced.push_back(timedOp(
          *W, P, static_cast<int64_t>(Untraced.size() + P), Ops));
    SpanLog::get().setOp(-1);
    W->finish(Ops);
    auto Samples = sampleUnvisitedLayers(*W, O.Repo, O.Tmp);
    SpanLog::get().disable();
    std::vector<double> All = Untraced;
    All.insert(All.end(), Traced.begin(), Traced.end());
    writeOps(J, Ops, 1, All);
    J.key("samples");
    J.beginArray();
    for (const auto &[Group, Out] : Samples) {
      J.beginObject();
      J.kv("sample", Group);
      writeFailures(J, Out);
      J.endObject();
    }
    J.endArray();
    writeLayers(J, Untraced, Traced);
    if (!O.SpansOut.empty() && !SpanLog::get().writeJsonLines(O.SpansOut)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   O.SpansOut.c_str());
      return 1;
    }
  }
  J.key("peak_rss_mb");
  J.value(PeakRss, 3);
  J.kv("build_type", PERFBENCH_BUILD_TYPE);
  J.kv("compiler", PERFBENCH_COMPILER);
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}
