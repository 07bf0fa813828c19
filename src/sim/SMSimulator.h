//===- sim/SMSimulator.h - cycle-level single-SM simulator ------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulates one SM executing one wave of resident blocks, cycle by cycle:
/// warp schedulers with round-robin selection, dispatch-port and issue-pipe
/// occupancy, a scoreboard with per-class latencies, shared-memory bank
/// serialization, a bandwidth/latency global-memory model, barriers, and
/// the Kepler control-notation semantics (stall/yield/dual-issue hints with
/// replay penalties for mis-hinted dependences, and a slow conservative
/// fallback for binaries without notations -- Section 3.2's "the
/// performance is very poor").
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_SMSIMULATOR_H
#define GPUPERF_SIM_SMSIMULATOR_H

#include "arch/MachineDesc.h"
#include "isa/Module.h"
#include "sim/Executor.h"
#include "sim/Observer.h"
#include "sim/Stats.h"
#include "sim/Trap.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace gpuperf {

/// Absolute backstop on simulated cycles per wave: even with no (or an
/// absurd) watchdog budget configured, a broken kernel cannot hang the
/// host process.
inline constexpr uint64_t MaxWaveCycles = 1ull << 33;

/// Simulates one wave: the blocks in \p BlockIds resident together on one
/// SM from cycle 0 until all exit. Functional effects land in the
/// executor's global memory. Returns per-wave statistics, or fails with a
/// structured trap (runtime fault in the kernel, watchdog expiry,
/// deadlock): the failure message is TrapInfo::toString() and, when
/// \p TrapOut is non-null, *TrapOut receives the full structured record.
/// \p WatchdogCycles bounds the wave's simulated cycles (0 applies only
/// the MaxWaveCycles backstop).
///
/// The returned stats satisfy the issue-slot invariant: every cycle each
/// of the machine's warp schedulers owns one issue slot, accounted to
/// exactly one SlotUse cause, so
///   Stats.Breakdown.total() == Stats.Cycles * max(1, WarpSchedulersPerSM)
///
/// When \p Observer is non-null, each event in its wanted() set is built
/// once, at its one site, and emitted to it (see sim/Observer.h): issues
/// (a dual-issue second carries Dual=1), replays, lost-slot spans, bank
/// conflicts, memory accesses and block/warp lifecycle. The caller
/// brackets the wave with SMObserver::beginWave/endWave. Events are
/// emitted where the stats are counted, so a profile fed from them
/// satisfies profile.breakdown() == Stats.Breakdown.
Expected<SimStats> simulateWave(const MachineDesc &M, const Kernel &K,
                                Executor &Exec, const LaunchDims &Dims,
                                const std::vector<int> &BlockIds,
                                uint64_t WatchdogCycles = 0,
                                TrapInfo *TrapOut = nullptr,
                                SMObserver *Observer = nullptr);

/// Process-wide count of SM cycles simulated by successful waves since
/// process start (atomic; waves may run concurrently). The bench
/// harness samples it to report simulated-cycles-per-wall-second, the
/// simulator's own throughput metric.
uint64_t totalSimulatedCycles();

/// Process-wide per-cause issue-slot tally over the same successful
/// waves (atomic). BenchRun samples it around a bench run to embed a
/// stall breakdown in every metrics record; together with
/// totalSimulatedCycles it satisfies the same invariant as per-wave
/// stats: total() == totalSimulatedCycles() * schedulers (for a process
/// that simulates a single machine model).
StallBreakdown totalIssueSlotBreakdown();

/// Sorted, deduplicated names of every machine model successfully
/// simulated since process start (mutex-guarded registry, sampled the
/// same way as the tallies above). Metrics records embed it so perfdiff
/// can refuse comparisons across different simulated machines -- a
/// GTX580 suite and a GTX680 suite measure different things even when
/// the bench names match.
std::vector<std::string> simulatedMachineNames();

} // namespace gpuperf

#endif // GPUPERF_SIM_SMSIMULATOR_H
