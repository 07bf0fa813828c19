//===- sim/Trace.h - per-warp issue/stall event timeline --------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability layer: when a launch opts in
/// (LaunchConfig::Trace), each SM's observer (sim/Observer.h) records one
/// event per issued warp instruction and one per contiguous lost-slot
/// span per scheduler, into fixed-capacity per-track ring buffers (old
/// events are evicted, never reallocated mid-simulation), and merges its
/// recorder into one chip timeline in SM index order. writeChromeTrace()
/// renders it as Chrome trace_event JSON loadable in chrome://tracing or
/// Perfetto.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_TRACE_H
#define GPUPERF_SIM_TRACE_H

#include "isa/Opcode.h"
#include "sim/Stats.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace gpuperf {

struct MachineDesc;

/// One timeline event. Issue events live on a per-warp track; stall
/// events (a span of lost issue slots with their attributed cause) live
/// on a per-scheduler track.
struct TraceEvent {
  uint64_t Cycle = 0; ///< Start cycle (launch timeline, wave-offset).
  uint64_t Dur = 1;   ///< Cycles covered (1 for issues).
  int32_t PC = -1;    ///< Static instruction index (issues only).
  int32_t BlockId = -1; ///< Linear block id (issues only).
  int16_t SM = 0;       ///< Filled by the launcher at merge time.
  uint16_t Track = 0;   ///< Warp slot, or SchedTrackBase + scheduler.
  uint8_t IsStall = 0;  ///< 0 = issue, 1 = lost-slot span.
  uint8_t Code = 0;     ///< Opcode (issues) or SlotUse (stalls).
  uint8_t WarpInBlock = 0;

  bool operator==(const TraceEvent &O) const {
    return Cycle == O.Cycle && Dur == O.Dur && PC == O.PC &&
           BlockId == O.BlockId && SM == O.SM && Track == O.Track &&
           IsStall == O.IsStall && Code == O.Code &&
           WarpInBlock == O.WarpInBlock;
  }
};

/// Scheduler tracks are numbered from here so they sort after any
/// realistic warp-slot track id in trace viewers.
inline constexpr uint16_t SchedTrackBase = 1000;

/// Collects the events of one SM across its waves. The SM's observer
/// pushes raw events; the recorder owns the ring-buffer eviction policy
/// and the coalescing of adjacent same-cause stall spans.
class TraceRecorder {
public:
  /// \p RingCapacity caps the retained events per track (warp or
  /// scheduler); the newest events win.
  explicit TraceRecorder(size_t RingCapacity);

  /// Starts a wave whose local cycle 0 is \p CycleOffset on the SM's
  /// launch timeline, with \p NumWarps warp tracks and \p NumSchedulers
  /// scheduler tracks.
  void beginWave(size_t NumWarps, int NumSchedulers,
                 uint64_t CycleOffset);

  /// Records one issued instruction on warp track \p WarpSlot.
  void issue(int WarpSlot, int BlockId, int WarpInBlock, uint64_t Cycle,
             int PC, Opcode Op);

  /// Records \p Cycles lost issue slots on scheduler \p Sched starting at
  /// \p Cycle, attributed to \p Use. Adjacent same-cause spans coalesce.
  void stall(int Sched, uint64_t Cycle, uint64_t Cycles, SlotUse Use);

  /// Flushes open stall spans; must be called after each wave completes
  /// (or traps -- a partial wave's events are still valid history).
  void endWave();

  /// All retained events in deterministic order (track-major, oldest
  /// first). Leaves the recorder empty.
  std::vector<TraceEvent> take();

  /// Events evicted by ring-buffer capacity since construction.
  uint64_t dropped() const { return Dropped; }

private:
  struct Ring {
    std::vector<TraceEvent> Buf;
    size_t Next = 0;
    bool Wrapped = false;
  };
  struct OpenStall {
    uint64_t Start = 0;
    uint64_t Dur = 0;
    SlotUse Use = SlotUse::Issued;
    bool Valid = false;
  };

  void push(Ring &R, const TraceEvent &E);
  void flushStall(int Sched);

  size_t RingCapacity;
  uint64_t CycleOffset = 0;
  std::vector<Ring> WarpRings;
  std::vector<Ring> SchedRings;
  std::vector<OpenStall> Open;
  std::vector<TraceEvent> Finished; ///< Earlier waves' events.
  uint64_t Dropped = 0;
};

/// A chip-level trace requested via LaunchConfig::Trace: configuration in,
/// merged events out.
struct SimTrace {
  /// Per-track ring capacity handed to each SM's recorder.
  size_t RingCapacity = 4096;
  /// Merged chip timeline (SM index order), filled by launchKernel.
  std::vector<TraceEvent> Events;
  /// Total events evicted by ring capacity across all SMs.
  uint64_t DroppedEvents = 0;
};

/// Writes \p Trace as Chrome trace_event JSON ("ts" in simulated cycles;
/// pid = SM, tid = warp slot or scheduler track) to \p Path. The file
/// parses with jsonValidate and loads in chrome://tracing / Perfetto.
Status writeChromeTrace(const SimTrace &Trace, const MachineDesc &M,
                        const std::string &Path);

/// Renders \p Trace to the JSON string written by writeChromeTrace.
std::string chromeTraceJson(const SimTrace &Trace, const MachineDesc &M);

} // namespace gpuperf

#endif // GPUPERF_SIM_TRACE_H
