//===- ubench/SweepRunner.h - checkpointed, resumable sweeps ----*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep engine: evaluates N independent sweep points across a
/// thread pool with optional checkpoint/resume (ubench/SweepCheckpoint.h).
/// Each point runs once. The simulator is deterministic, so a failed
/// point would fail identically on a re-run: it is listed in the
/// report's incomplete set instead, and every completed point's rows
/// are unaffected by it (pinned by sweep_test). bench/BenchUtil.h wraps
/// this for the figure/table benches.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_UBENCH_SWEEPRUNNER_H
#define GPUPERF_UBENCH_SWEEPRUNNER_H

#include "support/Error.h"
#include "ubench/SweepCheckpoint.h"

#include <functional>
#include <optional>

namespace gpuperf {

/// The rendered result rows of one sweep point.
using SweepRows = std::vector<std::string>;

/// One point the sweep could not complete.
struct SweepPointFailure {
  size_t Point = 0;
  std::string Reason;
};

/// Summary of one sweep, emitted into bench --json records.
struct SweepReport {
  std::string Name;
  size_t Points = 0;
  size_t Completed = 0; ///< Points with rows (freshly run or resumed).
  size_t Resumed = 0;   ///< Served from the checkpoint, not re-run.
  std::vector<SweepPointFailure> Incomplete; ///< Index order.
  /// FNV-1a digest over (index, rows) of every completed point in index
  /// order -- run-order- and resume-independent, so an uninterrupted
  /// run and a kill+resume run of the same sweep digest identically.
  uint64_t RowsHash = 0;
  size_t CheckpointErrors = 0; ///< Failed markDone appends (non-fatal).
  std::string FirstCheckpointError;

  bool complete() const { return Incomplete.empty(); }
};

/// Everything a sweep produced: per-point rows (nullopt = incomplete)
/// plus the report.
struct SweepResult {
  std::vector<std::optional<SweepRows>> Rows;
  SweepReport Report;
};

/// Point evaluator: the point's rows, or why it failed. Must be safe to
/// call concurrently.
using SweepPointFn = std::function<Expected<SweepRows>(size_t)>;

/// Evaluates \p Point(0..N-1) across up to \p Jobs threads (as
/// parallelFor). With a \p Checkpoint, points already recorded there
/// are served without re-running, and each completed point is recorded
/// the moment it finishes; failed points are not recorded, so a resume
/// re-runs exactly them. Results are indexed by point and identical for
/// every Jobs value.
SweepResult runCheckpointedSweep(int Jobs, SweepCheckpoint *Checkpoint,
                                 const std::string &Name, size_t N,
                                 const SweepPointFn &Point);

} // namespace gpuperf

#endif // GPUPERF_UBENCH_SWEEPRUNNER_H
