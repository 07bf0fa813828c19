//===- perfbench/runner/Workloads.h - benchmark workloads -------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three workloads. Each op is composed from calls into
/// the layers' public functions -- kernelgen, sim, sgemm, asmtool, isa,
/// ubench, model, probe and analysis -- with the same padding and matrix
/// fill as runSgemmConfig, so a span can sit around every layer call and
/// the op still reproduces what a user of runSgemm gets (pinned by
/// tests/ComposedOpTest.cpp). Every check runs on every op; a failed
/// check is recorded on the op and never aborts the run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RUNNER_WORKLOADS_H
#define PERFBENCH_RUNNER_WORKLOADS_H

#include "sgemm/SgemmRunner.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// One SGEMM launch, described as a user would pass it to
/// runSgemmConfig(*Machine, Cfg, Problem, Options).
struct SgemmPoint {
  const gpuperf::MachineDesc *Machine = nullptr;
  gpuperf::SgemmKernelConfig Cfg;
  gpuperf::SgemmProblem Problem;
  gpuperf::SgemmRunOptions Options;
  std::string Label;
};

/// Outcome of one op.
struct OpOutcome {
  size_t Point = 0;
  std::vector<std::string> Failures; ///< Empty when every check held.
  uint64_t SmCycles = 0;             ///< Simulated SM-cycles (summed
                                     ///< AggregateCycles).
  uint64_t Digest = 0; ///< FNV-1a of the op's simulated results.
  /// The op's SGEMM launch (absent for model-analysis ops).
  std::optional<gpuperf::LaunchResult> Launch;
  /// Bits of the device C after a verified launch, padded and
  /// column-major.
  std::vector<uint32_t> C;
  /// Model analyses: the headline LDS.64 BR=6 bound in percent of peak,
  /// by machine name.
  std::map<std::string, double> BoundPct;

  bool ok() const { return Failures.empty(); }
};

/// Every SimStats counter, flattened in a fixed order; equal vectors mean
/// equal statistics.
std::vector<uint64_t> statsFields(const gpuperf::SimStats &S);

/// A workload: a fixed, seeded list of points; op I runs point
/// I % numPoints().
class Workload {
public:
  virtual ~Workload() = default;

  /// Host threads used by the workload's launches (LaunchConfig::Jobs).
  virtual int jobs() const = 0;
  virtual size_t numPoints() const = 0;
  /// The SGEMM launch point \p Point runs, or null for an op that
  /// launches no SGEMM (a model analysis).
  virtual const SgemmPoint *sgemmPoint(size_t Point) const = 0;
  virtual OpOutcome run(size_t Point) = 0;
  /// Runs after the measured ops; may add failures to them.
  virtual void finish(std::vector<OpOutcome> &Ops) { (void)Ops; }
};

/// Names of the workloads makeWorkload accepts.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name from \p Seed (the set-up phase). \p RepoRoot
/// holds the stock probes/ specs; model-analysis databases live in fresh
/// directories under \p TmpDir.
gpuperf::Expected<std::unique_ptr<Workload>>
makeWorkload(const std::string &Name, uint64_t Seed,
             const std::string &RepoRoot, const std::string &TmpDir);

/// The model's headline bound (LDS.64, BR=6) on \p M in percent of peak,
/// from a cold in-memory analysis; for workloads whose ops analyse
/// nothing.
double headlineBoundPct(const gpuperf::MachineDesc &M);

/// For the traced run: calls each layer group that \p W's traced ops
/// did not reach once, on \p W's first SGEMM point, so every layer is
/// timed on every workload. Groups: kernel generation, the toolchain
/// round trip, the host reference, cold model analyses of both machines,
/// and an observed launch with every report rendered. Returns one
/// outcome per group run, checked like an op.
std::vector<std::pair<std::string, OpOutcome>>
sampleUnvisitedLayers(const Workload &W, const std::string &RepoRoot,
                      const std::string &TmpDir);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_WORKLOADS_H
