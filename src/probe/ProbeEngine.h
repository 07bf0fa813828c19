//===- probe/ProbeEngine.h - runtime probe evaluation -----------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates parsed probe specs against simulation events. The engine is
/// the imperative half of the probe layer: the SM simulator emits each
/// event once to the SM's observer (sim/Observer.h), which fires it into
/// a private clone (emptyClone) and merges the clone back in SM index
/// order; the engine applies each spec's filters and folds matching
/// events into an accumulator (optionally split by a key field). Every
/// aggregation is commutative and associative over integers, so the
/// merged result is bit-identical for every --jobs value.
///
/// A process-wide engine can additionally be installed (BenchRun --probe):
/// launches without an explicit LaunchConfig::Probes sink fire into a
/// private clone that is merged into the process engine under a mutex when
/// the launch ends -- including trap and early-error returns.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_PROBE_PROBEENGINE_H
#define GPUPERF_PROBE_PROBEENGINE_H

#include "probe/ProbeSpec.h"

#include <map>
#include <string>
#include <vector>

namespace gpuperf {

class JsonWriter;

/// Version stamp of the "probes" JSON object embedded in bench records
/// and --probe-out files, bumped on any shape change so perfdiff's gate
/// fails loudly instead of comparing mismatched shapes. (Probe names may
/// not be "version"; the spec parser rejects that.)
inline constexpr int ProbesObjectVersion = 1;

/// One simulation event: the emitting site fills the fields its event
/// carries (probeEventFields) and leaves the rest at their defaults.
/// Fields are plain int64 so filters, keys, and values share one
/// representation.
struct ProbeEventRecord {
  int64_t PC = -1;
  int64_t Op = -1;
  int64_t Class = -1;
  int64_t Lanes = 0;
  int64_t Block = -1;
  int64_t Warp = -1;
  int64_t Cycle = 0; ///< Wave-local; fire() adds the wave's cycle offset.
  int64_t Dual = 0;
  int64_t Space = -1;
  int64_t Width = 0;
  int64_t Bytes = 0;
  int64_t Transactions = 0;
  int64_t Serialization = 0;
  int64_t Cause = -1;
  int64_t Slots = 0;
  int64_t Insts = 0;
  // Outside the probe grammar: the trace's track ids.
  int64_t WarpSlot = -1; ///< SM warp slot (issues).
  int64_t Sched = -1;    ///< Warp scheduler (issues, lost slots).

  int64_t get(ProbeField F) const;
};

/// Accumulator state: Count counts matching events for every aggregation;
/// Value holds the sum/min/max/watch payload once Seen.
struct ProbeAccum {
  uint64_t Count = 0;
  int64_t Value = 0;
  bool Seen = false;
};

/// Evaluated state of one probe. Keys exist only for matched key values
/// and iterate in key order (std::map), which keeps reports and JSON
/// deterministic without a sort pass.
struct ProbeState {
  ProbeAccum Total;
  std::map<int64_t, ProbeAccum> Keys;
};

class ProbeEngine {
public:
  ProbeEngine() = default;
  explicit ProbeEngine(std::vector<ProbeSpec> Specs);

  /// True when the engine has any probes.
  bool enabled() const { return !Specs.empty(); }
  /// True when some spec listens to \p E (InstIssued for PCReached).
  bool wants(ProbeEvent E) const {
    return Wanted[static_cast<size_t>(E)];
  }

  /// Sets the cycle offset added to every fired event's Cycle field, so
  /// watchpoints read on the SM launch timeline across waves -- the same
  /// bracketing TraceRecorder::beginWave uses.
  void beginWave(uint64_t CycleOffset) { WaveCycleOffset = CycleOffset; }

  /// Folds one event into every spec that listens to \p E and passes its
  /// filters. InstIssued events additionally feed PCReached specs (the
  /// alias exists purely for watchpoint-flavoured spec phrasing).
  void fire(ProbeEvent E, const ProbeEventRecord &R);

  /// A fresh engine with the same specs and zeroed state -- the per-SM
  /// private clone.
  ProbeEngine emptyClone() const { return ProbeEngine(Specs); }

  /// Folds \p Other's state into this engine. Engines must share specs
  /// (clone lineage); all five aggregations merge order-independently.
  void merge(const ProbeEngine &Other);

  const std::vector<ProbeSpec> &specs() const { return Specs; }
  const ProbeState &state(size_t I) const { return States[I]; }
  /// Null when no probe has that name.
  const ProbeState *stateByName(std::string_view Name) const;

  /// Human-readable results, one `probe NAME: ...` line per probe plus
  /// one indented line per key. Byte-stable across --jobs values; the
  /// jobs-invariance test and the CI probe-smoke diff pin this text.
  std::string report() const;

  /// Emits the versioned probes object ({"version":1,"NAME":{...},...})
  /// as the next JSON value on \p W. Embedded by bench records under a
  /// "probes" key and by probeRecordJson.
  void writeProbesValue(JsonWriter &W) const;

private:
  std::vector<ProbeSpec> Specs;
  std::vector<ProbeState> States; ///< Parallel to Specs.
  bool Wanted[NumProbeEvents] = {};
  uint64_t WaveCycleOffset = 0;
};

/// A standalone --probe-out record: schema_version, record:"probes",
/// machine, kernel, and the probes object. \p SchemaVersion is the
/// caller's MetricsSchemaVersion (kept a parameter so the probe library
/// stays below analysis/ in the layering).
std::string probeRecordJson(const ProbeEngine &E, int SchemaVersion,
                            const std::string &Machine,
                            const std::string &Kernel);

/// Installs \p E as the process-wide probe sink (null uninstalls).
/// Launches whose LaunchConfig has no explicit Probes sink clone it,
/// fire into the clone, and merge back on completion. The engine must
/// outlive every launch issued while it is installed; BenchRun owns this
/// lifecycle for --probe.
void setProcessProbeEngine(ProbeEngine *E);
ProbeEngine *processProbeEngine();

/// Mutex-guarded merge of a per-launch partial into the installed
/// process engine; no-op when none is installed (or \p Partial's specs
/// no longer match the installed engine's -- a racing uninstall).
void mergeIntoProcessProbeEngine(const ProbeEngine &Partial);

} // namespace gpuperf

#endif // GPUPERF_PROBE_PROBEENGINE_H
