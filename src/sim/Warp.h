//===- sim/Warp.h - per-warp architectural and timing state -----*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_WARP_H
#define GPUPERF_SIM_WARP_H

#include "isa/Instruction.h"

#include <array>
#include <cstdint>
#include <vector>

namespace gpuperf {

/// Number of threads per warp (fixed across all three generations).
inline constexpr int WarpSize = 32;

/// Architectural plus timing state of one resident warp.
struct WarpContext {
  // --- Identity -----------------------------------------------------------
  int BlockSlot = 0;   ///< Index into the SM's resident-block array.
  int WarpInBlock = 0; ///< Warp index within its block.
  uint32_t ActiveMask = 0xffffffffu; ///< Lanes holding real threads.

  // --- Architectural state --------------------------------------------------
  int PC = 0;
  bool Done = false;
  bool AtBarrier = false;
  /// 63 GPRs x 32 lanes; index Reg * WarpSize + Lane. RZ is not stored.
  std::vector<uint32_t> Regs;
  /// Per-lane predicate bits, one 32-bit mask per predicate register.
  std::array<uint32_t, NumPredRegs> Preds = {};

  // --- Timing state ---------------------------------------------------------
  /// Cycle at which each register's pending write completes.
  std::array<uint64_t, 64> RegReady = {};
  std::array<uint64_t, NumPredRegs> PredReady = {};
  /// Warp may not issue before this cycle (control-notation stalls,
  /// replay penalties).
  uint64_t StallUntil = 0;
  /// True when the previous instruction's notation set the yield flag:
  /// scoreboard waits are free (no replay penalty) for the next issue.
  bool NoPenaltyWait = false;
  /// Round-robin ranking aid: cycle of last issue.
  uint64_t LastIssue = 0;
  /// Instructions issued by this warp (watchdog progress reporting).
  uint64_t InstsIssued = 0;

  void reset(int NumRegs) {
    PC = 0;
    Done = false;
    AtBarrier = false;
    Regs.assign(static_cast<size_t>(NumRegs) * WarpSize, 0);
    Preds = {};
    RegReady = {};
    PredReady = {};
    StallUntil = 0;
    NoPenaltyWait = false;
    LastIssue = 0;
    InstsIssued = 0;
  }

  /// Number of allocated architectural registers for this warp.
  int numRegs() const { return static_cast<int>(Regs.size() / WarpSize); }

  /// Register accessors are total: indices past the allocated file (the
  /// scheduler traps those instructions before they execute) read zero
  /// and drop writes instead of running off the vector in NDEBUG builds.
  uint32_t readReg(uint8_t Reg, int Lane) const {
    if (Reg == RegRZ)
      return 0;
    size_t Idx = static_cast<size_t>(Reg) * WarpSize + Lane;
    if (Idx >= Regs.size())
      return 0;
    return Regs[Idx];
  }
  void writeReg(uint8_t Reg, int Lane, uint32_t Value) {
    if (Reg == RegRZ)
      return;
    size_t Idx = static_cast<size_t>(Reg) * WarpSize + Lane;
    if (Idx >= Regs.size())
      return;
    Regs[Idx] = Value;
  }
  /// Predicate accessors are total: the encoding has 3-bit guard fields,
  /// so P4..P6 are representable but not architectural. The simulator
  /// traps such instructions before execution; these guards keep even a
  /// missed path safe in NDEBUG builds (reads false, writes dropped).
  bool readPred(uint8_t Pred, int Lane) const {
    if (Pred == PredPT)
      return true;
    if (Pred >= NumPredRegs)
      return false;
    return (Preds[Pred] >> Lane) & 1;
  }
  void writePred(uint8_t Pred, int Lane, bool Value) {
    assert(Pred < NumPredRegs && "write to invalid predicate");
    if (Pred >= NumPredRegs)
      return;
    if (Value)
      Preds[Pred] |= 1u << Lane;
    else
      Preds[Pred] &= ~(1u << Lane);
  }
  /// Guard evaluation for all 32 lanes at once, as a lane mask (bit L
  /// set = the guard holds in lane L). Non-architectural P4..P6 read
  /// false in every lane, as readPred does.
  uint32_t guardMask(const Instruction &I) const {
    uint32_t P = I.GuardPred == PredPT        ? 0xffffffffu
                 : I.GuardPred < NumPredRegs ? Preds[I.GuardPred]
                                             : 0u;
    return I.GuardNeg ? ~P : P;
  }
};

} // namespace gpuperf

#endif // GPUPERF_SIM_WARP_H
