//===- sim/Observer.h - per-SM fan-out of simulation events -----*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one instrumentation path. The SM simulator builds each event's
/// ProbeEventRecord at a single site, behind one wanted() test, and hands
/// it to the SM's observer, which routes it to whichever consumers the
/// launch attached: the per-PC KernelProfile, the TraceRecorder timeline
/// and the ProbeEngine specs. A launch with none attached pays one
/// untaken branch per site.
///
/// Each SM owns a private observer, so the hot path takes no locks; the
/// launcher merges them into the launch sinks once per SM, in SM index
/// order, so every consumer's output is bit-identical for every
/// LaunchConfig::Jobs value. The consumer set is closed, so the fan-out
/// is a concrete type rather than a virtual interface.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_OBSERVER_H
#define GPUPERF_SIM_OBSERVER_H

#include "probe/ProbeEngine.h"
#include "sim/Profile.h"
#include "sim/Trace.h"

#include <optional>

namespace gpuperf {

/// The launch-wide sinks per-SM observers are built for and merged into.
/// A null member is not collected; Probes is null or enabled.
struct ObserverSinks {
  SimTrace *Trace = nullptr;
  KernelProfile *Profile = nullptr;
  ProbeEngine *Probes = nullptr;
};

class SMObserver {
public:
  /// Observes nothing: wanted() is empty.
  SMObserver() = default;

  /// Allocates only the per-SM state \p Sinks ask for: a trace recorder
  /// with the sink's ring capacity, a profile of \p CodeSize
  /// instructions, a zeroed probe clone.
  SMObserver(const ObserverSinks &Sinks, size_t CodeSize) {
    if (Sinks.Trace) {
      Trace.emplace(Sinks.Trace->RingCapacity);
      Wanted |= bit(ProbeEvent::InstIssued) | bit(ProbeEvent::SlotLost);
    }
    if (Sinks.Profile) {
      Profile.emplace(CodeSize);
      Wanted |= bit(ProbeEvent::InstIssued) | bit(ProbeEvent::SlotLost) |
                bit(ProbeEvent::Replay);
    }
    if (Sinks.Probes) {
      Probes = Sinks.Probes->emptyClone();
      for (size_t E = 0; E < NumProbeEvents; ++E)
        if (Probes.wants(static_cast<ProbeEvent>(E)))
          Wanted |= bit(static_cast<ProbeEvent>(E));
    }
  }

  /// Bit (1 << event) is set for every event some consumer reads.
  uint32_t wanted() const { return Wanted; }
  static constexpr uint32_t bit(ProbeEvent E) {
    return 1u << static_cast<unsigned>(E);
  }

  /// Brackets one wave of \p NumWarps warps and \p NumSchedulers
  /// schedulers whose cycle 0 is \p CycleOffset on the SM's timeline.
  void beginWave(size_t NumWarps, int NumSchedulers, uint64_t CycleOffset) {
    if (Trace)
      Trace->beginWave(NumWarps, NumSchedulers, CycleOffset);
    Probes.beginWave(CycleOffset);
  }
  void endWave() {
    if (Trace)
      Trace->endWave();
  }

  /// Routes one record: InstIssued to the profile (a Dual record also
  /// counts a dual issue) and the trace, Replay to the profile, SlotLost
  /// to the profile and the trace, and every event a spec listens to
  /// to the probes.
  void emit(ProbeEvent E, const ProbeEventRecord &R) {
    const SlotUse Cause = static_cast<SlotUse>(R.Cause);
    switch (E) {
    case ProbeEvent::InstIssued:
      if (Profile) {
        Profile->countIssue(R.PC);
        if (R.Dual)
          Profile->countDualIssue(R.PC);
      }
      if (Trace)
        Trace->issue(R.WarpSlot, R.Block, R.Warp, R.Cycle, R.PC,
                     static_cast<Opcode>(R.Op));
      break;
    case ProbeEvent::Replay:
      if (Profile)
        Profile->countReplay(R.PC);
      break;
    case ProbeEvent::SlotLost:
      if (Profile)
        Profile->countStall(R.PC, Cause, R.Slots);
      if (Trace)
        Trace->stall(R.Sched, R.Cycle, R.Slots, Cause);
      break;
    default:
      break;
    }
    if (Probes.wants(E))
      Probes.fire(E, R);
  }

  /// Folds this SM's observations into \p Sinks, stamping trace events
  /// with \p SMIndex. The launcher calls it in SM index order, before it
  /// checks the SM for failure, so a trapping SM's partial observations
  /// are kept and later SMs' are not.
  void mergeInto(const ObserverSinks &Sinks, int SMIndex) {
    if (Trace) {
      for (TraceEvent &Ev : Trace->take()) {
        Ev.SM = static_cast<int16_t>(SMIndex);
        Sinks.Trace->Events.push_back(Ev);
      }
      Sinks.Trace->DroppedEvents += Trace->dropped();
    }
    if (Profile)
      Sinks.Profile->add(*Profile);
    if (Probes.enabled())
      Sinks.Probes->merge(Probes);
  }

private:
  std::optional<TraceRecorder> Trace;
  std::optional<KernelProfile> Profile;
  ProbeEngine Probes;
  uint32_t Wanted = 0;
};

} // namespace gpuperf

#endif // GPUPERF_SIM_OBSERVER_H
