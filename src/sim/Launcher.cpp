//===- sim/Launcher.cpp - grid launch and performance projection ----------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/Launcher.h"

#include "support/Format.h"
#include "support/MathUtils.h"
#include "support/ThreadPool.h"

using namespace gpuperf;

namespace {

/// Everything one SM produces: its private write overlay (parallel path
/// only), its accumulated statistics, its observer, and -- when a wave
/// failed -- the error exactly as the serial path would have reported it.
struct SMOutcome {
  SimStats Stats;
  GlobalWriteOverlay Overlay;
  SMObserver Obs;
  int Waves = 0;
  bool Failed = false;
  std::string Error;
  TrapInfo Trap;
};

/// Runs all waves of one SM's block list. Used by every launch path so
/// per-SM behaviour is the same code by construction; only where the
/// writes land differs (direct vs overlay). The observer records with no
/// SM index -- the merge stamps it, so the parallel path cannot depend on
/// which worker simulated which SM.
void runSMWaves(const MachineDesc &M, const Kernel &K, Executor &Exec,
                const LaunchDims &Dims, const std::vector<int> &Mine,
                int ActiveBlocks, uint64_t Watchdog,
                const ObserverSinks &Sinks, SMOutcome &Out) {
  Out.Obs = SMObserver(Sinks, K.Code.size());
  for (size_t First = 0; First < Mine.size();
       First += static_cast<size_t>(ActiveBlocks)) {
    size_t Last =
        std::min(Mine.size(), First + static_cast<size_t>(ActiveBlocks));
    std::vector<int> WaveBlocks(Mine.begin() + First, Mine.begin() + Last);
    Out.Obs.beginWave(WaveBlocks.size() *
                          static_cast<size_t>(Dims.warpsPerBlock()),
                      std::max(1, M.WarpSchedulersPerSM), Out.Stats.Cycles);
    auto Wave = simulateWave(M, K, Exec, Dims, WaveBlocks, Watchdog,
                             &Out.Trap, &Out.Obs);
    Out.Obs.endWave();
    if (!Wave) {
      Out.Failed = true;
      Out.Error = Wave.takeError();
      break;
    }
    Out.Stats.addSequential(*Wave);
    ++Out.Waves;
  }
}

} // namespace

uint64_t gpuperf::deriveWatchdogBudget(size_t CodeSize, int WaveWarps) {
  // Rationale: a warp's dynamic instruction count is bounded by code size
  // times loop trips; 8192 cycles of headroom per static instruction per
  // warp covers every calibrated workload (SGEMM's ~600-trip K loops,
  // 8192-instruction dependent microbenchmark chains at 18-26 cycle
  // latency, 300-400 cycle global-memory stalls) by more than an order of
  // magnitude, while a tiny runaway loop traps within ~100K cycles.
  uint64_t Warps = static_cast<uint64_t>(WaveWarps < 1 ? 1 : WaveWarps);
  uint64_t Insts = static_cast<uint64_t>(CodeSize < 1 ? 1 : CodeSize);
  uint64_t Budget = 65536 + 8192 * Insts * Warps;
  return Budget < MaxWaveCycles ? Budget : MaxWaveCycles;
}

Expected<LaunchResult> gpuperf::launchKernel(const MachineDesc &M,
                                             const Kernel &K,
                                             const LaunchConfig &Config,
                                             GlobalMemory &Global,
                                             TrapInfo *TrapOut) {
  using ER = Expected<LaunchResult>;
  const LaunchDims &Dims = Config.Dims;
  if (Dims.numBlocks() <= 0 || Dims.threadsPerBlock() <= 0)
    return ER::error("empty launch configuration");
  if (K.Code.empty())
    return ER::error(formatString("kernel '%s' has no code",
                                  K.Name.c_str()));
  if (M.Generation == GpuGeneration::Kepler && K.hasNotations() &&
      K.Notations.size() != K.requiredNotationCount())
    return ER::error("control notations do not cover the kernel code");

  KernelResources Res;
  Res.RegsPerThread = K.RegsPerThread;
  Res.SharedBytesPerBlock = K.SharedBytes;
  Res.ThreadsPerBlock = Dims.threadsPerBlock();
  Occupancy Occ = computeOccupancy(M, Res);
  if (Config.MaxResidentBlocksOverride > 0 && Occ.launchable() &&
      Occ.ActiveBlocks > Config.MaxResidentBlocksOverride) {
    Occ.ActiveBlocks = Config.MaxResidentBlocksOverride;
    Occ.ActiveThreads = Occ.ActiveBlocks * Res.ThreadsPerBlock;
    Occ.ActiveWarps = Occ.ActiveThreads / M.WarpSize;
  }
  if (!Occ.launchable())
    return ER::error(formatString(
        "kernel '%s' is not launchable: %s (regs=%d shared=%d threads=%d)",
        K.Name.c_str(), occupancyLimitName(Occ.Limit), Res.RegsPerThread,
        Res.SharedBytesPerBlock, Res.ThreadsPerBlock));

  Executor Exec(M, Global, Config.Params, Dims);

  const int WaveWarps = Occ.ActiveBlocks * Dims.warpsPerBlock();
  const uint64_t Watchdog =
      Config.WatchdogCycles > 0
          ? Config.WatchdogCycles
          : deriveWatchdogBudget(K.Code.size(), WaveWarps);

  LaunchResult Result;
  Result.Occ = Occ;

  const int NumBlocks = Dims.numBlocks();
  const int BlocksPerWaveChip = Occ.ActiveBlocks * M.NumSMs;
  Result.WavesTotal = static_cast<int>(
      divideCeil(static_cast<uint64_t>(NumBlocks),
                 static_cast<uint64_t>(BlocksPerWaveChip)));

  // A profile carried over from a different kernel cannot accumulate
  // meaningfully; align its shape up front (same-kernel profiles keep
  // accumulating across launches).
  if (Config.Profile && Config.Profile->codeSize() != K.Code.size())
    Config.Profile->reset(K.Code.size());

  // Resolve the probe sink: an explicit LaunchConfig sink wins; otherwise
  // a process-installed engine (BenchRun --probe) is served through a
  // launch-local clone flushed back on every return path -- traps and
  // early errors included -- so the process totals never miss a partial.
  ProbeEngine LaunchLocalProbes;
  struct ProbeFlusher {
    ProbeEngine *Partial = nullptr;
    ~ProbeFlusher() {
      if (Partial)
        mergeIntoProcessProbeEngine(*Partial);
    }
  } Flusher;
  ProbeEngine *ProbeSink = Config.Probes;
  if (!ProbeSink) {
    if (ProbeEngine *Proc = processProbeEngine()) {
      LaunchLocalProbes = Proc->emptyClone();
      ProbeSink = &LaunchLocalProbes;
      Flusher.Partial = &LaunchLocalProbes;
    }
  }
  const ObserverSinks Sinks{
      Config.Trace, Config.Profile,
      ProbeSink && ProbeSink->enabled() ? ProbeSink : nullptr};

  // Blocks are distributed round-robin over SMs; each SM runs its share
  // in waves of Occ.ActiveBlocks. ProjectOneWave simulates only the first
  // wave of SM 0 -- blocks 0..N-1; for SGEMM-style kernels with
  // data-independent control flow, the choice of blocks is
  // timing-equivalent -- and extrapolates below.
  std::vector<std::vector<int>> PerSMBlocks;
  if (Config.Mode == SimMode::ProjectOneWave) {
    PerSMBlocks.emplace_back();
    for (int B = 0; B < std::min(Occ.ActiveBlocks, NumBlocks); ++B)
      PerSMBlocks[0].push_back(B);
  } else {
    for (int SM = 0; SM < M.NumSMs; ++SM) {
      std::vector<int> Mine;
      for (int B = SM; B < NumBlocks; B += M.NumSMs)
        Mine.push_back(B);
      if (!Mine.empty())
        PerSMBlocks.push_back(std::move(Mine));
    }
  }

  SimStats Chip;
  uint64_t SlowestSM = 0;
  // Folds SM Idx into the launch; called in SM index order on every path.
  // Writes and observations land before the failure check: when the
  // serial path stops at SM k's trap, the writes and observations of SMs
  // 0..k-1 and of SM k's partial wave are kept, and later SMs (which the
  // serial path never ran) contribute nothing -- so memory, profile,
  // trace and probes are bit-identical for every Jobs value.
  auto Absorb = [&](size_t Idx, SMOutcome &Out) {
    Out.Overlay.applyTo(Global);
    Out.Obs.mergeInto(Sinks, static_cast<int>(Idx));
    if (Out.Failed) {
      if (TrapOut && Out.Trap.valid())
        *TrapOut = Out.Trap;
      return false;
    }
    Result.WavesSimulated += Out.Waves;
    SlowestSM = std::max(SlowestSM, Out.Stats.Cycles);
    Chip.addConcurrent(Out.Stats);
    return true;
  };

  const int Jobs = resolveJobs(Config.Jobs);
  if (Jobs <= 1 || PerSMBlocks.size() <= 1) {
    // Serial path: SMs share the executor and write global memory
    // directly, one SM after the other.
    for (size_t Idx = 0; Idx < PerSMBlocks.size(); ++Idx) {
      SMOutcome Out;
      runSMWaves(M, K, Exec, Dims, PerSMBlocks[Idx], Occ.ActiveBlocks,
                 Watchdog, Sinks, Out);
      if (!Absorb(Idx, Out))
        return ER::error(Out.Error);
    }
  } else {
    // Parallel path: each SM simulates against a private write overlay,
    // then the outcomes are absorbed in SM index order -- the order the
    // serial loop would have produced its side effects in.
    std::vector<SMOutcome> Outcomes(PerSMBlocks.size());
    parallelFor(Jobs, PerSMBlocks.size(), [&](size_t Idx) {
      SMOutcome &Out = Outcomes[Idx];
      Executor SMExec(M, GlobalMemoryView(Global, Out.Overlay),
                      Config.Params, Dims);
      runSMWaves(M, K, SMExec, Dims, PerSMBlocks[Idx], Occ.ActiveBlocks,
                 Watchdog, Sinks, Out);
    });
    for (size_t Idx = 0; Idx < Outcomes.size(); ++Idx)
      if (!Absorb(Idx, Outcomes[Idx]))
        return ER::error(Outcomes[Idx].Error);
  }

  Chip.Cycles = SlowestSM; // Chip time is the slowest SM.
  Result.Stats = Chip;
  Result.TotalCycles = static_cast<double>(SlowestSM);
  // One-wave projection: the last wave may be partial; count it
  // proportionally.
  if (Config.Mode == SimMode::ProjectOneWave)
    Result.TotalCycles *=
        std::max(1.0, static_cast<double>(NumBlocks) / BlocksPerWaveChip);
  return Result;
}
