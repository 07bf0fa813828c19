//===- sim/Profile.h - per-static-instruction counters ----------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-PC half of the observability layer. Where sim/Stats.h answers
/// "how many issue slots went to each cause", a KernelProfile answers
/// "at which static instruction" -- the source-counter view that perf
/// annotate gives on CPUs, and that the paper's whole argument is phrased
/// in (the FFMA/LDS.X mix, bank-conflict surcharges, and dual-issue
/// pairing are all properties of individual instructions).
///
/// Attribution rules (mirroring the SlotUse taxonomy of PR 3):
///  * an issued warp instruction counts one Issue at its PC (a dual-issue
///    second counts an Issue *and* a DualIssue; the pair still consumed
///    one scheduler slot, owned by the first instruction);
///  * a lost scheduler slot is charged to the PC of the *oldest*
///    non-eligible instruction among the scheduler's warps with the
///    winning (highest-priority) block reason -- the warp waiting longest
///    since its last issue, the likely head of the dependence chain;
///  * fast-forwarded idle spans reuse each scheduler's remembered reason
///    *and* PC from the cycle that proved no progress was possible;
///  * slots with no attributable PC (scheduler owns no live warp) land in
///    the NoPC bucket so the accounting identity stays exact:
///      profile.breakdown() == SimStats.Breakdown,  cause by cause.
///
/// The simulator's issue, replay and lost-slot events reach the profile
/// through the SM's observer (sim/Observer.h), which feeds the counting
/// hooks below and merges per-SM profiles in SM index order.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_PROFILE_H
#define GPUPERF_SIM_PROFILE_H

#include "sim/Stats.h"

#include <array>
#include <cstdint>
#include <vector>

namespace gpuperf {

/// Counters of one static instruction (or of the NoPC bucket).
struct PCCounters {
  /// Warp instructions issued at this PC, dual-issue seconds included.
  uint64_t Issues = 0;
  /// Of Issues, how many rode the second slot of a Kepler pair.
  uint64_t DualIssues = 0;
  /// Replay penalties charged while this PC's operands were mis-hinted.
  uint64_t Replays = 0;
  /// Lost scheduler slots attributed to this PC, by cause. The Issued
  /// entry is unused (issued slots are counted by Issues/DualIssues).
  std::array<uint64_t, NumSlotUses> StallSlots = {};

  /// Scheduler slots this PC consumed by issuing (pairs share one slot).
  uint64_t issuedSlots() const { return Issues - DualIssues; }

  /// Lost slots attributed here, summed over causes.
  uint64_t lostSlots() const {
    uint64_t T = 0;
    for (uint64_t S : StallSlots)
      T += S;
    return T;
  }

  void add(const PCCounters &O) {
    Issues += O.Issues;
    DualIssues += O.DualIssues;
    Replays += O.Replays;
    for (size_t I = 0; I < StallSlots.size(); ++I)
      StallSlots[I] += O.StallSlots[I];
  }

  bool operator==(const PCCounters &O) const {
    return Issues == O.Issues && DualIssues == O.DualIssues &&
           Replays == O.Replays && StallSlots == O.StallSlots;
  }
};

/// Per-static-instruction profile of one kernel, one SM, or a whole
/// launch (the distinction is only what has been merged in).
class KernelProfile {
public:
  KernelProfile() = default;
  explicit KernelProfile(size_t CodeSize) : PCs(CodeSize) {}

  size_t codeSize() const { return PCs.size(); }
  bool empty() const { return PCs.empty(); }

  /// Drops all counters and resizes to \p CodeSize instructions.
  void reset(size_t CodeSize) {
    PCs.assign(CodeSize, PCCounters());
    NoPC = PCCounters();
  }

  PCCounters &at(size_t PC) { return PCs[PC]; }
  const PCCounters &at(size_t PC) const { return PCs[PC]; }

  /// Slots (and replays) with no attributable static instruction.
  PCCounters &noPC() { return NoPC; }
  const PCCounters &noPC() const { return NoPC; }

  //===--------------------------------------------------------------------===//
  // Counting hooks, fed by SMObserver
  //===--------------------------------------------------------------------===//

  /// One warp instruction issued at \p PC.
  void countIssue(int PC) { PCs[static_cast<size_t>(PC)].Issues += 1; }

  /// The instruction at \p PC issued as the second of a dual-issue pair
  /// (call *in addition to* countIssue).
  void countDualIssue(int PC) {
    PCs[static_cast<size_t>(PC)].DualIssues += 1;
  }

  /// One replay penalty charged while the warp sat at \p PC.
  void countReplay(int PC) { PCs[static_cast<size_t>(PC)].Replays += 1; }

  /// \p N scheduler slots lost to \p Use, attributed to \p PC (or to the
  /// NoPC bucket when \p PC is negative).
  void countStall(int PC, SlotUse Use, uint64_t N) {
    PCCounters &C = PC >= 0 ? PCs[static_cast<size_t>(PC)] : NoPC;
    C.StallSlots[static_cast<size_t>(Use)] += N;
  }

  //===--------------------------------------------------------------------===//
  // Aggregation and identities
  //===--------------------------------------------------------------------===//

  /// Element-wise accumulation (SM merge / wave merge). An empty profile
  /// adopts \p O's shape; otherwise the code sizes must match.
  void add(const KernelProfile &O);

  /// Total warp instructions issued (== SimStats::WarpInstsIssued).
  uint64_t totalIssues() const;
  /// Total dual-issue seconds (== SimStats::DualIssues).
  uint64_t totalDualIssues() const;
  /// Total replay penalties (== SimStats::ReplayPenalties).
  uint64_t totalReplays() const;

  /// Reconstructs the per-cause issue-slot breakdown from the per-PC
  /// counters: Issued slots are issuedSlots() summed over PCs, every
  /// other cause is StallSlots summed over PCs plus the NoPC bucket.
  /// For a successful launch this equals SimStats::Breakdown exactly
  /// (the identity profile_test pins).
  StallBreakdown breakdown() const;

  bool operator==(const KernelProfile &O) const {
    return PCs == O.PCs && NoPC == O.NoPC;
  }

private:
  std::vector<PCCounters> PCs;
  PCCounters NoPC;
};

} // namespace gpuperf

#endif // GPUPERF_SIM_PROFILE_H
