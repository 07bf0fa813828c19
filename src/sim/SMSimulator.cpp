//===- sim/SMSimulator.cpp - cycle-level single-SM simulator --------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/SMSimulator.h"

#include "sim/Timing.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

using namespace gpuperf;

namespace {

/// Replay cost when a warp is selected but its operands are not ready and
/// the control notation did not cover the wait (Kepler only).
constexpr int ReplayPenaltyCycles = 4;
/// Issue-cost multiplier for Kepler binaries without control notations:
/// the scheduler falls back to a conservative decode path.
constexpr double NoNotationIssueFactor = 4.0;

struct BlockState {
  int BlockIdLinear = 0;
  std::unique_ptr<SharedMemory> Shared;
  int LiveWarps = 0;
  int ArrivedAtBarrier = 0;
};

/// Why one warp could not issue this cycle, ordered by attribution
/// priority (higher wins when a scheduler's warps are blocked for
/// different reasons): a warp blocked only by a busy structural pipe was
/// otherwise ready, so the slot was genuinely lost to that structural
/// limit -- the paper's bound story; operand waits come next; a barrier
/// is only reported when nothing better describes the cycle.
enum class WarpBlock : uint8_t {
  None = 0,      ///< Not a candidate (done / no warp assigned).
  Barrier,       ///< Waiting at BAR.SYNC.
  NotationStall, ///< Control-notation stall count / replay stall.
  Scoreboard,    ///< Operands not ready (RAW / load latency).
  Port,          ///< Per-scheduler dispatch port busy.
  MathPipe,      ///< SM-wide SP pipeline busy (pre-Kepler).
  LdstPipe,      ///< LD/ST pipe busy (shared-memory throughput).
  IssuePipe,     ///< Kepler SM-wide issue pipe busy.
};

class SMSim {
public:
  SMSim(const MachineDesc &M, const Kernel &K, const DecodedKernel &Dec,
        Executor &Exec, const LaunchDims &Dims,
        const std::vector<int> &BlockIds, uint64_t WatchdogCycles,
        SMObserver *Obs)
      : M(M), K(K), Dec(Dec), Exec(Exec), Dims(Dims), Obs(Obs),
        MemBytesPerCycle(memBytesPerCyclePerSM(M)),
        Wanted(Obs ? Obs->wanted() : 0),
        Budget(WatchdogCycles == 0
                   ? MaxWaveCycles
                   : std::min(WatchdogCycles, MaxWaveCycles)) {
    HasNotations =
        M.Generation != GpuGeneration::Kepler || K.hasNotations();
    int WarpsPerBlock = Dims.warpsPerBlock();
    Blocks.reserve(BlockIds.size());
    for (int BlockId : BlockIds) {
      BlockState B;
      B.BlockIdLinear = BlockId;
      B.Shared = std::make_unique<SharedMemory>(K.SharedBytes);
      B.LiveWarps = WarpsPerBlock;
      Blocks.push_back(std::move(B));
    }
    int NumRegs = std::max(K.RegsPerThread, 1);
    for (size_t Slot = 0; Slot < Blocks.size(); ++Slot) {
      for (int WarpIdx = 0; WarpIdx < WarpsPerBlock; ++WarpIdx) {
        WarpContext W;
        W.reset(NumRegs);
        W.BlockSlot = static_cast<int>(Slot);
        W.WarpInBlock = WarpIdx;
        int FirstThread = WarpIdx * WarpSize;
        int LastThread =
            std::min(FirstThread + WarpSize, Dims.threadsPerBlock());
        int Lanes = LastThread - FirstThread;
        W.ActiveMask =
            Lanes == WarpSize ? 0xffffffffu : ((1u << Lanes) - 1);
        Warps.push_back(std::move(W));
      }
    }
    LiveWarps = static_cast<int>(Warps.size());
    NumSchedulers = std::max(1, M.WarpSchedulersPerSM);
    PortFree.assign(NumSchedulers, 0.0);
    RRNext.assign(NumSchedulers, 0);
    SchedBlocked.assign(NumSchedulers, WarpBlock::None);
    SchedBlockedPC.assign(NumSchedulers, -1);
  }

  Expected<SimStats> run(TrapInfo *TrapOut) {
    Expected<SimStats> Result = runLoop();
    if (!Result.hasValue() && TrapOut && Trap)
      *TrapOut = *Trap;
    return Result;
  }

private:
  bool wants(ProbeEvent E) const { return Wanted & SMObserver::bit(E); }

  Expected<SimStats> runLoop() {
    // Every block of the wave becomes resident at the wave's cycle 0.
    if (wants(ProbeEvent::BlockScheduled))
      for (const BlockState &B : Blocks)
        Obs->emit(ProbeEvent::BlockScheduled,
                  {.Block = B.BlockIdLinear, .Cycle = 0});
    while (LiveWarps > 0) {
      if (Now >= Budget) {
        raiseWatchdogTrap();
        return Expected<SimStats>::error(Trap->toString());
      }
      bool IssuedAny = false;
      // Rotate the scheduler service order each cycle: the SM-wide issue
      // pipe is a shared resource, and a fixed order would systematically
      // starve the last scheduler's warps.
      for (int Step = 0; Step < NumSchedulers; ++Step) {
        int Sched = static_cast<int>(
            (Step + Now) % static_cast<uint64_t>(NumSchedulers));
        if (Status S = runScheduler(Sched, IssuedAny); S.failed())
          return Expected<SimStats>(S);
      }
      if (Trap)
        return Expected<SimStats>::error(Trap->toString());
      if (IssuedAny) {
        ++Now;
        continue;
      }
      uint64_t Next = nextWakeCycle();
      if (Next == UINT64_MAX) {
        raiseDeadlockTrap();
        return Expected<SimStats>::error(Trap->toString());
      }
      uint64_t NewNow = std::max(Now + 1, Next);
      // Nothing can issue before NewNow; the whole span is idle. Cycle
      // `Now` itself was already attributed slot-by-slot inside
      // runScheduler; the fast-forwarded cycles inherit each scheduler's
      // reason (and attributed PC) from the cycle that proved no
      // progress was possible.
      Stats.IdleCycles += NewNow - Now;
      if (uint64_t Skipped = NewNow - Now - 1)
        for (int S = 0; S < NumSchedulers; ++S)
          accountStall(S, SchedBlocked[S], SchedBlockedPC[S], Now + 1,
                       Skipped);
      Now = NewNow;
    }
    Stats.Cycles = Now;
    Stats.AggregateCycles = Now;
    return Stats;
  }

  /// Charges \p N lost issue slots of scheduler \p Sched, starting at
  /// cycle \p Start, to the SlotUse cause implied by \p B, attributed to
  /// static instruction \p PC (-1 = no attributable instruction; the
  /// profile's NoPC bucket). Issue-pipe losses are split: the
  /// bank-conflict debt accumulated by previously issued math
  /// instructions is paid out first (RegBankConflict), the remainder is
  /// raw issue width (DispatchLimit); both halves belong to the same
  /// blocked PC.
  void accountStall(int Sched, WarpBlock B, int PC, uint64_t Start,
                    uint64_t N) {
    SlotUse Use = SlotUse::NoEligibleWarp;
    switch (B) {
    case WarpBlock::IssuePipe: {
      uint64_t FromConflict =
          std::min(N, static_cast<uint64_t>(ConflictDebt));
      if (FromConflict > 0) {
        ConflictDebt -= static_cast<double>(FromConflict);
        loseSlots(Sched, SlotUse::RegBankConflict, PC, Start, FromConflict);
      }
      if (N > FromConflict)
        loseSlots(Sched, SlotUse::DispatchLimit, PC, Start + FromConflict,
                  N - FromConflict);
      return;
    }
    case WarpBlock::Port:
    case WarpBlock::MathPipe:
      Use = SlotUse::DispatchLimit;
      break;
    case WarpBlock::LdstPipe:
      Use = SlotUse::LdsThroughput;
      break;
    case WarpBlock::Scoreboard:
    case WarpBlock::NotationStall:
      Use = SlotUse::Scoreboard;
      break;
    case WarpBlock::Barrier:
      Use = SlotUse::Barrier;
      break;
    case WarpBlock::None:
      Use = SlotUse::NoEligibleWarp;
      break;
    }
    loseSlots(Sched, Use, PC, Start, N);
  }

  /// Counts \p N slots of scheduler \p Sched lost to \p Use from cycle
  /// \p Start, attributed to \p PC, and emits them as one SlotLost event.
  void loseSlots(int Sched, SlotUse Use, int PC, uint64_t Start,
                 uint64_t N) {
    Stats.Breakdown[Use] += N;
    if (wants(ProbeEvent::SlotLost))
      Obs->emit(ProbeEvent::SlotLost, {.PC = PC,
                                       .Cycle = static_cast<int64_t>(Start),
                                       .Cause = static_cast<int64_t>(Use),
                                       .Slots = static_cast<int64_t>(N),
                                       .Sched = Sched});
  }

  /// Fills the identity fields of a trap raised by warp \p WarpIdx.
  TrapInfo makeTrap(TrapKind Kind, int WarpIdx,
                    const Instruction *I) const {
    TrapInfo T;
    T.Kind = Kind;
    T.KernelName = K.Name;
    T.Cycle = Now;
    if (WarpIdx >= 0) {
      const WarpContext &W = Warps[WarpIdx];
      T.BlockId = Blocks[W.BlockSlot].BlockIdLinear;
      T.WarpId = W.WarpInBlock;
      T.LaneMask = W.ActiveMask;
      T.PC = W.PC;
      if (I)
        T.InstText = I->toString();
    }
    return T;
  }

  /// Per-warp progress summary for launch-scoped traps (watchdog,
  /// deadlock): which warps are stuck, where, and how much they ran.
  std::string progressReport() const {
    std::string S;
    constexpr size_t MaxLines = 16;
    for (size_t Idx = 0; Idx < Warps.size(); ++Idx) {
      if (Idx == MaxLines) {
        S += formatString("  ... %zu more warps\n", Warps.size() - Idx);
        break;
      }
      const WarpContext &W = Warps[Idx];
      const char *State = W.Done        ? "done"
                          : W.AtBarrier ? "at barrier"
                          : W.StallUntil > Now
                              ? "stalled"
                              : "eligible";
      S += formatString(
          "  block %d warp %d: %s, PC %d, %llu insts issued\n",
          Blocks[W.BlockSlot].BlockIdLinear, W.WarpInBlock, State, W.PC,
          static_cast<unsigned long long>(W.InstsIssued));
    }
    if (!S.empty())
      S.pop_back(); // Trailing newline.
    return S;
  }

  /// Identifies the least-progressed live warp (the likely culprit) so
  /// launch-scoped traps still carry a concrete warp and PC.
  int leastProgressedLiveWarp() const {
    int Best = -1;
    for (size_t Idx = 0; Idx < Warps.size(); ++Idx) {
      if (Warps[Idx].Done)
        continue;
      if (Best < 0 || Warps[Idx].InstsIssued < Warps[Best].InstsIssued)
        Best = static_cast<int>(Idx);
    }
    return Best;
  }

  void raiseWatchdogTrap() {
    TrapInfo T = makeTrap(TrapKind::WatchdogTimeout,
                          leastProgressedLiveWarp(), nullptr);
    T.Detail = formatString(
        "watchdog budget of %llu cycles exhausted with %d live warps:\n",
        static_cast<unsigned long long>(Budget), LiveWarps);
    T.Detail += progressReport();
    Trap = std::move(T);
  }

  void raiseDeadlockTrap() {
    TrapInfo T = makeTrap(TrapKind::Deadlock, leastProgressedLiveWarp(),
                          nullptr);
    T.Detail = formatString(
        "no warp can make progress and none is in flight "
        "(barrier mismatch?); %d live warps:\n",
        LiveWarps);
    T.Detail += progressReport();
    Trap = std::move(T);
  }

  bool regsReady(const WarpContext &W, const Instruction &I,
                 const DecodedInst &D) const {
    for (uint8_t Reg : D.Srcs)
      if (W.RegReady[Reg] > Now)
        return false;
    for (uint8_t Reg : D.Dsts)
      if (W.RegReady[Reg] > Now)
        return false;
    if (I.GuardPred != PredPT && W.PredReady[I.GuardPred] > Now)
      return false;
    if (D.WritesPred && W.PredReady[I.Dst] > Now)
      return false;
    return true;
  }

  /// Earliest cycle at which the operands of \p I can be ready.
  uint64_t regsReadyCycle(const WarpContext &W, const Instruction &I,
                          const DecodedInst &D) const {
    uint64_t T = 0;
    for (uint8_t Reg : D.Srcs)
      T = std::max(T, W.RegReady[Reg]);
    for (uint8_t Reg : D.Dsts)
      T = std::max(T, W.RegReady[Reg]);
    if (I.GuardPred != PredPT)
      T = std::max(T, W.PredReady[I.GuardPred]);
    if (D.WritesPred)
      T = std::max(T, W.PredReady[I.Dst]);
    return T;
  }

  /// First structural resource blocking the instruction decoded as \p D
  /// this cycle (checked in dispatch-port, issue-pipe, math-pipe, LD/ST-pipe
  /// order), or None.
  WarpBlock blockedPipe(const DecodedInst &D, int Sched) const {
    double Limit = static_cast<double>(Now) + 1.0;
    if (D.DispatchPort > 0 && PortFree[Sched] >= Limit)
      return WarpBlock::Port;
    if (D.IssuePipe > 0 && IssuePipeFree >= Limit)
      return WarpBlock::IssuePipe;
    if (D.MathPipe > 0 && MathPipeFree >= Limit)
      return WarpBlock::MathPipe;
    if (D.LdstPipe > 0 && LdstPipeFree >= Limit)
      return WarpBlock::LdstPipe;
    return WarpBlock::None;
  }

  /// Attempts to issue the next instruction of warp \p WarpIdx; true on
  /// success. \p AllowReplayPenalty charges the warp when its operands
  /// are not ready despite the notation saying they should be. On
  /// failure, \p Why (when non-null) receives why this warp could not
  /// use the slot.
  bool tryIssue(int WarpIdx, int Sched, bool AllowReplayPenalty,
                WarpBlock *Why = nullptr) {
    WarpContext &W = Warps[WarpIdx];
    if (W.Done || W.AtBarrier || W.StallUntil > Now) {
      if (Why && !W.Done)
        *Why = W.AtBarrier ? WarpBlock::Barrier : WarpBlock::NotationStall;
      return false;
    }
    if (W.PC < 0 || static_cast<size_t>(W.PC) >= K.Code.size()) {
      // The warp ran off the code (bad branch target or missing EXIT).
      TrapInfo T = makeTrap(TrapKind::InvalidPC, WarpIdx, nullptr);
      T.Detail = formatString(
          "PC %d outside the kernel's %zu instructions "
          "(bad branch target or missing EXIT)",
          W.PC, K.Code.size());
      Trap = std::move(T);
      return true; // Consumed the slot; the run loop stops on Trap.
    }
    const Instruction &I = K.Code[W.PC];
    const DecodedInst &D = Dec[W.PC];
    if (!D.RegsOk) {
      TrapInfo T = makeTrap(TrapKind::RegisterIndexOOB, WarpIdx, &I);
      T.Detail = formatString(
          "instruction references registers outside the %d allocated "
          "(or a non-architectural predicate)",
          std::max(K.RegsPerThread, 1));
      Trap = std::move(T);
      return true;
    }
    if (WarpBlock Pipe = blockedPipe(D, Sched); Pipe != WarpBlock::None) {
      if (Why)
        *Why = Pipe;
      return false;
    }
    if (!regsReady(W, I, D)) {
      if (Why)
        *Why = WarpBlock::Scoreboard;
      if (AllowReplayPenalty && M.Generation == GpuGeneration::Kepler &&
          HasNotations && !W.NoPenaltyWait) {
        // A mis-hinted instruction is dispatched and replayed: the warp
        // loses cycles AND the issue pipe burns half a slot on the
        // cancelled dispatch.
        W.StallUntil = Now + ReplayPenaltyCycles;
        IssuePipeFree = std::max(IssuePipeFree, static_cast<double>(Now)) +
                        0.5 * WarpSize / M.MathIssueSlotsPerCycle;
        ++Stats.ReplayPenalties;
        if (wants(ProbeEvent::Replay))
          Obs->emit(ProbeEvent::Replay,
                    {.PC = W.PC,
                     .Block = Blocks[W.BlockSlot].BlockIdLinear,
                     .Warp = W.WarpInBlock,
                     .Cycle = static_cast<int64_t>(Now)});
      }
      return false;
    }
    issue(WarpIdx, Sched, I, D);
    return true;
  }

  void issue(int WarpIdx, int Sched, const Instruction &I,
             const DecodedInst &D) {
    WarpContext &W = Warps[WarpIdx];
    BlockState &B = Blocks[W.BlockSlot];
    const int PCAtIssue = W.PC;

    // --- Occupy pipes ------------------------------------------------------
    double NowD = static_cast<double>(Now);
    if (D.DispatchPort > 0)
      PortFree[Sched] = std::max(PortFree[Sched], NowD) + D.DispatchPort;
    if (double Pipe = D.IssuePipe; Pipe > 0) {
      if (!HasNotations)
        Pipe *= NoNotationIssueFactor;
      IssuePipeFree = std::max(IssuePipeFree, NowD) + Pipe;
      // Bank the register-bank-conflict surcharge; lost issue-pipe slots
      // pay it out as SlotUse::RegBankConflict (see accountStall).
      ConflictDebt += D.ConflictExtra;
    }
    if (D.MathPipe > 0)
      MathPipeFree = std::max(MathPipeFree, NowD) + D.MathPipe;

    // --- Execute functionally ------------------------------------------------
    ExecEffects Fx = Exec.execute(I, D, W, B.BlockIdLinear, *B.Shared);
    if (Fx.faulted()) {
      TrapInfo T = makeTrap(Fx.Trap, WarpIdx, &I);
      T.Address = Fx.TrapAddress;
      T.Lane = Fx.TrapLane;
      T.Detail = Exec.trapDetail(I, Fx, *B.Shared);
      Trap = std::move(T);
      return;
    }

    if (D.LdstPipe > 0) {
      double Serial =
          std::max(1.0, Fx.SharedSerialization / D.ImplicitConflict);
      if (Fx.SharedSerialization > D.ImplicitConflict) {
        ++Stats.SharedConflictEvents;
        if (wants(ProbeEvent::BankConflict))
          Obs->emit(ProbeEvent::BankConflict,
                    {.PC = PCAtIssue,
                     .Block = B.BlockIdLinear,
                     .Warp = W.WarpInBlock,
                     .Cycle = static_cast<int64_t>(Now),
                     .Serialization =
                         static_cast<int64_t>(Fx.SharedSerialization)});
      }
      LdstPipeFree = std::max(LdstPipeFree, NowD) + D.LdstPipe * Serial;
    }

    // --- Scoreboard updates ---------------------------------------------------
    uint64_t Ready;
    if (D.Class == OpClass::GlobalMem && Fx.GlobalTransactions > 0) {
      double BwCycles = Fx.GlobalBytes / MemBytesPerCycle;
      MemBWFree = std::max(MemBWFree, NowD) + BwCycles;
      Ready = static_cast<uint64_t>(MemBWFree) + M.GlobalMemLatency;
      Stats.GlobalBytes += static_cast<uint64_t>(Fx.GlobalBytes);
      Stats.GlobalTransactions +=
          static_cast<uint64_t>(Fx.GlobalTransactions);
    } else {
      Ready = Now + static_cast<uint64_t>(D.Latency);
    }
    for (uint8_t Reg : D.Dsts)
      W.RegReady[Reg] = Ready;
    if (D.WritesPred)
      W.PredReady[I.Dst] = Now + static_cast<uint64_t>(M.MathLatency);

    // --- Control effects --------------------------------------------------------
    const ControlField &F = D.Ctrl;
    bool WarpExited = false, BlockDrained = false;
    if (Fx.IsExit) {
      W.Done = true;
      --LiveWarps;
      --B.LiveWarps;
      WarpExited = true;
      BlockDrained = B.LiveWarps == 0;
      releaseBarrierIfComplete(B);
    } else if (Fx.IsBarrier) {
      W.AtBarrier = true;
      ++B.ArrivedAtBarrier;
      ++Stats.BarrierWaits;
      W.PC += 1;
      releaseBarrierIfComplete(B);
    } else if (I.Op == Opcode::BRA && Fx.BranchTaken) {
      W.PC += 1 + I.Imm;
    } else {
      W.PC += 1;
    }

    // --- Notation-driven stalls -----------------------------------------------
    if (M.Generation == GpuGeneration::Kepler) {
      if (HasNotations) {
        W.StallUntil = Now + 1 + F.StallCycles;
        W.NoPenaltyWait = F.Yield;
      } else {
        // Conservative fallback: wait out the full result latency.
        W.StallUntil = Now + 1 + static_cast<uint64_t>(D.Latency);
        W.NoPenaltyWait = true;
      }
    } else {
      W.StallUntil = Now + 1;
      W.NoPenaltyWait = true; // Fermi has a full scoreboard.
    }
    W.LastIssue = Now;

    // --- Statistics ----------------------------------------------------------
    ++Stats.WarpInstsIssued;
    ++W.InstsIssued;
    uint64_t Lanes = std::popcount(W.ActiveMask);
    Stats.ThreadInstsIssued += Lanes;
    Stats.ThreadInstsByOpcode[static_cast<size_t>(I.Op)] += Lanes;

    // --- Events --------------------------------------------------------------
    // Emitted after the statistics updates so lifetime fields (Insts)
    // include this instruction; every count here shadows one of the
    // aggregates above, which the probe self-check tests pin exactly.
    if (wants(ProbeEvent::InstIssued) || wants(ProbeEvent::MemAccess)) {
      const OpClass Class = D.Class;
      ProbeEventRecord R;
      R.PC = PCAtIssue;
      R.Op = static_cast<int64_t>(I.Op);
      R.Class = static_cast<int64_t>(Class);
      R.Lanes = static_cast<int64_t>(Lanes);
      R.Block = B.BlockIdLinear;
      R.Warp = W.WarpInBlock;
      R.Cycle = static_cast<int64_t>(Now);
      R.Dual = IssuingDualSecond ? 1 : 0;
      R.WarpSlot = WarpIdx;
      R.Sched = Sched;
      if (wants(ProbeEvent::InstIssued))
        Obs->emit(ProbeEvent::InstIssued, R);
      bool IsShared = Class == OpClass::SharedMem;
      bool IsGlobal = Class == OpClass::GlobalMem;
      if ((IsShared || IsGlobal) && wants(ProbeEvent::MemAccess)) {
        R.Space = IsGlobal ? 1 : 0;
        R.Width = 8 * memWidthBytes(I.Width);
        if (IsGlobal) {
          R.Bytes = Fx.GlobalTransactions > 0 ? Fx.GlobalBytes : 0;
          R.Transactions = Fx.GlobalTransactions;
        } else {
          R.Bytes = static_cast<int64_t>(Lanes) * memWidthBytes(I.Width);
        }
        Obs->emit(ProbeEvent::MemAccess, R);
      }
    }
    if (WarpExited && wants(ProbeEvent::WarpExit))
      Obs->emit(ProbeEvent::WarpExit,
                {.Block = B.BlockIdLinear,
                 .Warp = W.WarpInBlock,
                 .Cycle = static_cast<int64_t>(Now),
                 .Insts = static_cast<int64_t>(W.InstsIssued)});
    if (BlockDrained && wants(ProbeEvent::BlockDrained))
      Obs->emit(ProbeEvent::BlockDrained,
                {.Block = B.BlockIdLinear,
                 .Cycle = static_cast<int64_t>(Now)});
  }

  void releaseBarrierIfComplete(BlockState &B) {
    if (B.LiveWarps == 0 || B.ArrivedAtBarrier < B.LiveWarps)
      return;
    B.ArrivedAtBarrier = 0;
    for (WarpContext &W : Warps)
      if (W.BlockSlot == &B - Blocks.data() && W.AtBarrier)
        W.AtBarrier = false;
  }

  Status runScheduler(int Sched, bool &IssuedAny) {
    // Warps are distributed to schedulers by index: scheduler Sched owns
    // warps Sched, Sched + NumSchedulers, ...
    const int NumWarps = static_cast<int>(Warps.size());
    const int NumMine =
        NumWarps > Sched ? (NumWarps - Sched - 1) / NumSchedulers + 1 : 0;
    if (NumMine == 0) {
      SchedBlocked[Sched] = WarpBlock::None;
      SchedBlockedPC[Sched] = -1;
      accountStall(Sched, WarpBlock::None, -1, Now, 1);
      return Status::success();
    }

    // The scheduler's one issue slot this cycle: either some warp issues,
    // or the slot is attributed to the highest-priority reason any of its
    // warps could not (see WarpBlock's ordering). For the profile the
    // slot is charged to a PC too: among the warps blocked for the
    // winning reason, the one that has waited longest since its last
    // issue (the likely head of the dependence chain) names the
    // instruction.
    WarpBlock Best = WarpBlock::None;
    int BestPC = -1;
    uint64_t BestWait = 0;
    int Start = RRNext[Sched] % NumMine;
    for (int Offset = 0; Offset < NumMine; ++Offset) {
      int Idx = (Start + Offset) % NumMine;
      int WarpIdx = Sched + Idx * NumSchedulers;
      int PCBefore = Warps[WarpIdx].PC;
      WarpBlock Why = WarpBlock::None;
      if (!tryIssue(WarpIdx, Sched, /*AllowReplayPenalty=*/true, &Why)) {
        const WarpContext &W = Warps[WarpIdx];
        if (Why > Best || (Why == Best && Why != WarpBlock::None &&
                           W.LastIssue < BestWait)) {
          Best = Why;
          BestWait = W.LastIssue;
          BestPC = W.PC >= 0 && static_cast<size_t>(W.PC) < K.Code.size()
                       ? W.PC
                       : -1;
        }
        continue;
      }
      if (Trap)
        return Status::success();
      IssuedAny = true;
      ++Stats.Breakdown[SlotUse::Issued];
      RRNext[Sched] = Idx + 1;
      // Kepler dual issue: a second, independent instruction from the
      // same warp when the notation permits it. The pair shares the
      // slot already counted as Issued.
      if (M.Generation == GpuGeneration::Kepler && HasNotations) {
        const ControlField &F = Dec[PCBefore].Ctrl;
        WarpContext &W = Warps[WarpIdx];
        if (F.DualIssue && F.StallCycles == 0 && !W.Done &&
            !W.AtBarrier) {
          W.StallUntil = Now; // The pair issues in the same cycle.
          IssuingDualSecond = true;
          if (tryIssue(WarpIdx, Sched, /*AllowReplayPenalty=*/false))
            ++Stats.DualIssues;
          IssuingDualSecond = false;
          if (W.StallUntil <= Now)
            W.StallUntil = Now + 1;
        }
      }
      return Status::success();
    }
    SchedBlocked[Sched] = Best;
    SchedBlockedPC[Sched] = BestPC;
    accountStall(Sched, Best, BestPC, Now, 1);
    return Status::success();
  }

  /// Earliest cycle at which some warp might issue (UINT64_MAX if none).
  uint64_t nextWakeCycle() const {
    // Pipes may also be the blocker.
    const double PipeFloor =
        std::min({IssuePipeFree, MathPipeFree, LdstPipeFree,
                  *std::min_element(PortFree.begin(), PortFree.end())});
    uint64_t Min = UINT64_MAX;
    for (const WarpContext &W : Warps) {
      if (W.Done || W.AtBarrier)
        continue;
      uint64_t T = W.StallUntil;
      // Warps sitting on an invalid PC or an invalid-register
      // instruction are immediately eligible: they trap at issue.
      bool PCValid =
          W.PC >= 0 && static_cast<size_t>(W.PC) < K.Code.size();
      if (PCValid && Dec[W.PC].RegsOk)
        T = std::max(T, regsReadyCycle(W, K.Code[W.PC], Dec[W.PC]));
      T = std::max(T, static_cast<uint64_t>(PipeFloor));
      Min = std::min(Min, T);
    }
    return Min;
  }

  const MachineDesc &M;
  const Kernel &K;
  /// Per-PC decoded facts (sim/DecodedKernel.h), one entry per K.Code.
  const DecodedKernel &Dec;
  Executor &Exec;
  const LaunchDims &Dims;
  SMObserver *Obs;
  /// memBytesPerCyclePerSM(M): the global-memory bandwidth pipe's rate.
  const double MemBytesPerCycle;
  /// Obs->wanted(), or 0 without an observer: one test per event site.
  const uint32_t Wanted;
  const uint64_t Budget;
  /// True while the dual-issue second half is in tryIssue/issue, so the
  /// emitted InstIssued event carries Dual=1.
  bool IssuingDualSecond = false;

  std::vector<BlockState> Blocks;
  std::vector<WarpContext> Warps;
  int LiveWarps = 0;
  int NumSchedulers = 1;
  bool HasNotations = true;

  uint64_t Now = 0;
  double IssuePipeFree = 0.0;
  double MathPipeFree = 0.0;
  double LdstPipeFree = 0.0;
  double MemBWFree = 0.0;
  std::vector<double> PortFree;
  std::vector<int> RRNext;
  /// Each scheduler's block reason in the most recent no-issue cycle
  /// (reused to attribute fast-forwarded idle spans).
  std::vector<WarpBlock> SchedBlocked;
  /// The attributed PC paired with SchedBlocked (-1 = none), so
  /// fast-forwarded spans land on the same instruction as the cycle
  /// that proved no progress was possible.
  std::vector<int> SchedBlockedPC;
  /// Outstanding bank-conflict surcharge cycles not yet paid out as lost
  /// slots (see accountStall).
  double ConflictDebt = 0.0;

  SimStats Stats;
  std::optional<TrapInfo> Trap;
};

} // namespace

namespace {
std::atomic<uint64_t> SimulatedCycleTally{0};
std::array<std::atomic<uint64_t>, NumSlotUses> SlotUseTally{};
std::mutex MachineNamesMutex;
std::set<std::string> MachineNames;
} // namespace

Expected<SimStats> gpuperf::simulateWave(
    const MachineDesc &M, const Kernel &K, const DecodedKernel &Decoded,
    Executor &Exec, const LaunchDims &Dims, const std::vector<int> &BlockIds,
    uint64_t WatchdogCycles, TrapInfo *TrapOut, SMObserver *Observer) {
  assert(Decoded.size() == K.Code.size() && "table decoded from K");
  SMSim Sim(M, K, Decoded, Exec, Dims, BlockIds, WatchdogCycles, Observer);
  Expected<SimStats> Result = Sim.run(TrapOut);
  if (Result.hasValue()) {
    SimulatedCycleTally.fetch_add(Result->Cycles,
                                  std::memory_order_relaxed);
    for (size_t U = 0; U < NumSlotUses; ++U)
      SlotUseTally[U].fetch_add(Result->Breakdown.Slots[U],
                                std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(MachineNamesMutex);
      MachineNames.insert(M.Name);
    }
  }
  return Result;
}

std::vector<std::string> gpuperf::simulatedMachineNames() {
  std::lock_guard<std::mutex> Lock(MachineNamesMutex);
  return std::vector<std::string>(MachineNames.begin(),
                                  MachineNames.end());
}

uint64_t gpuperf::totalSimulatedCycles() {
  return SimulatedCycleTally.load(std::memory_order_relaxed);
}

StallBreakdown gpuperf::totalIssueSlotBreakdown() {
  StallBreakdown B;
  for (size_t U = 0; U < NumSlotUses; ++U)
    B.Slots[U] = SlotUseTally[U].load(std::memory_order_relaxed);
  return B;
}
