//===- perfbench/runner/Workloads.cpp - benchmark workloads ---------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "runner/Workloads.h"

#include "runner/Spans.h"

#include "analysis/HotspotReport.h"
#include "asmtool/Assembler.h"
#include "asmtool/Disassembler.h"
#include "model/UpperBound.h"
#include "probe/ProbeEngine.h"
#include "probe/ProbeSpec.h"
#include "sgemm/Reference.h"
#include "sim/Profile.h"
#include "sim/Trace.h"
#include "support/Format.h"
#include "support/MathUtils.h"
#include "support/Rng.h"
#include "ubench/PerfDatabase.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace gpuperf;
using namespace perfbench;

namespace {

/// Host threads per launch on the two launch workloads. The sweep is
/// serial: ProjectOneWave simulates one SM.
constexpr int LaunchJobs = 2;

/// Points of fullchip_verify, alternating GTX680 and GTX580.
constexpr int FullchipPoints = 4;

/// 64-bit FNV-1a over words, doubles and strings.
class Fnv {
public:
  void addWord(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  void addDouble(double D) {
    uint64_t U;
    std::memcpy(&U, &D, sizeof U);
    addWord(U);
  }
  void addText(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 0x100000001b3ull;
    }
    addWord(S.size());
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

void fail(OpOutcome &Out, std::string Why) {
  Out.Failures.push_back(std::move(Why));
}

/// runSgemmConfig's padding: tile-aligned M/N, L-aligned K, and the
/// leading dimensions of the padded buffers.
SgemmKernelConfig paddedConfig(const SgemmPoint &P) {
  SgemmKernelConfig Cfg = P.Cfg;
  const int BSh = Cfg.blockTile();
  Cfg.Variant = P.Problem.Variant;
  Cfg.M = static_cast<int>(alignTo(P.Problem.M, BSh));
  Cfg.N = static_cast<int>(alignTo(P.Problem.N, BSh));
  Cfg.K = static_cast<int>(alignTo(P.Problem.K, Cfg.L));
  Cfg.Lda = transA(Cfg.Variant) ? Cfg.K : Cfg.M;
  Cfg.Ldb = transB(Cfg.Variant) ? Cfg.N : Cfg.K;
  Cfg.Ldc = Cfg.M;
  return Cfg;
}

/// Host inputs of one launch and their device copies.
struct Staged {
  std::vector<float> A, B, C; ///< Padded, column-major; C is C's input.
  GlobalMemory GM;
  uint32_t CAddr = 0;
  LaunchConfig Launch;

  explicit Staged(size_t Bytes) : GM(Bytes) {}
};

/// runSgemmConfig's fill: the true Rows x Cols region of a column-major
/// matrix with leading dimension Ld, column by column.
void fillRandom(std::vector<float> &Data, int Ld, int Rows, int Cols,
                Rng &R) {
  for (int C = 0; C < Cols; ++C)
    for (int Row = 0; Row < Rows; ++Row)
      Data[static_cast<size_t>(C) * Ld + Row] = R.nextUnitFloat();
}

Expected<uint32_t> upload(GlobalMemory &GM, const std::vector<float> &Data) {
  auto Addr = GM.tryAllocate(Data.size() * 4);
  if (!Addr)
    return Addr;
  for (size_t I = 0; I < Data.size(); ++I)
    GM.storeFloat(static_cast<uint32_t>(*Addr + 4 * I), Data[I]);
  return Addr;
}

uint32_t floatBits(float F) {
  uint32_t U;
  std::memcpy(&U, &F, 4);
  return U;
}

/// Fills and uploads \p P's matrices as runSgemmConfig does.
Expected<std::unique_ptr<Staged>> stage(const SgemmPoint &P,
                                        const SgemmKernelConfig &Cfg) {
  using ER = Expected<std::unique_ptr<Staged>>;
  const SgemmProblem &Pr = P.Problem;
  const bool TA = transA(Cfg.Variant), TB = transB(Cfg.Variant);
  std::vector<float> A, B, C;
  timed("bench.fill", [&] {
    A.assign(static_cast<size_t>(Cfg.Lda) * (TA ? Cfg.M : Cfg.K), 0.0f);
    B.assign(static_cast<size_t>(Cfg.Ldb) * (TB ? Cfg.K : Cfg.N), 0.0f);
    C.assign(static_cast<size_t>(Cfg.M) * Cfg.N, 0.0f);
    Rng R(P.Options.Seed);
    fillRandom(A, Cfg.Lda, TA ? Pr.K : Pr.M, TA ? Pr.M : Pr.K, R);
    fillRandom(B, Cfg.Ldb, TB ? Pr.N : Pr.K, TB ? Pr.K : Pr.N, R);
    if (Pr.Beta != 0.0f)
      fillRandom(C, Cfg.M, Pr.M, Pr.N, R);
  });
  std::string Error;
  auto S = timed("sim.upload", [&] {
    auto S = std::make_unique<Staged>(
        (A.size() + B.size() + C.size()) * 4 + (1 << 16));
    auto AA = upload(S->GM, A);
    auto BA = upload(S->GM, B);
    auto CA = upload(S->GM, C);
    if (!AA || !BA || !CA) {
      Error = (!AA ? AA : !BA ? BA : CA).message();
      return S;
    }
    S->CAddr = *CA;
    S->Launch.Params = {*AA, *BA, *CA, floatBits(Pr.Alpha),
                        floatBits(Pr.Beta)};
    return S;
  });
  if (!Error.empty())
    return ER::error("matrices do not fit the simulated device: " + Error);
  S->A = std::move(A);
  S->B = std::move(B);
  S->C = std::move(C);
  SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
  S->Launch.Dims.GridX = Shape.GridX;
  S->Launch.Dims.GridY = Shape.GridY;
  S->Launch.Dims.BlockX = Shape.BlockX;
  S->Launch.Mode = P.Options.Mode;
  S->Launch.WatchdogCycles = P.Options.WatchdogCycles;
  S->Launch.Jobs = P.Options.Jobs;
  return ER(std::move(S));
}

/// referenceSgemm on the staged inputs: C's expected bits.
std::vector<float> reference(const Staged &S, const SgemmKernelConfig &Cfg,
                             const SgemmProblem &Pr) {
  std::vector<float> Ref = S.C;
  timed("sgemm.reference", [&] {
    referenceSgemm(Cfg.Variant, Cfg.M, Cfg.N, Cfg.K, Pr.Alpha, S.A.data(),
                   Cfg.Lda, S.B.data(), Cfg.Ldb, Pr.Beta, Ref.data(),
                   Cfg.M);
  });
  return Ref;
}

/// Checks the device C bit-exact against referenceSgemm on the staged
/// inputs, keeps C's bits on the op and adds them to \p D.
void verifyC(const Staged &S, const SgemmKernelConfig &Cfg,
             const SgemmProblem &Pr, OpOutcome &Out, Fnv &D) {
  const std::vector<float> Ref = reference(S, Cfg, Pr);
  timed("bench.verify", [&] {
    Out.C.resize(Ref.size());
    size_t Mismatches = 0, First = 0;
    for (size_t I = 0; I < Ref.size(); ++I) {
      uint32_t Got = S.GM.load32(static_cast<uint32_t>(S.CAddr + 4 * I));
      Out.C[I] = Got;
      D.addWord(Got);
      if (Got != floatBits(Ref[I]) && Mismatches++ == 0)
        First = I;
    }
    if (Mismatches)
      fail(Out, formatString("C differs from referenceSgemm in %zu of %zu "
                             "elements (first at %zu)",
                             Mismatches, Ref.size(), First));
  });
}

void addLaunchDigest(const LaunchResult &LR, Fnv &D) {
  for (uint64_t V : statsFields(LR.Stats))
    D.addWord(V);
  D.addDouble(LR.TotalCycles);
  D.addWord(static_cast<uint64_t>(LR.WavesSimulated));
  D.addWord(static_cast<uint64_t>(LR.WavesTotal));
}

/// Exact simulated counts for the traced run, taken at the launch
/// boundary. Plain launches also feed the per-cycle host rates.
void countLaunch(const SimStats &S, bool Plain) {
  SpanLog &L = SpanLog::get();
  L.count("sim.sm_cycles", static_cast<double>(S.AggregateCycles));
  L.count("sim.warp_insts", static_cast<double>(S.WarpInstsIssued));
  L.count("sim.thread_insts", static_cast<double>(S.ThreadInstsIssued));
  L.count("sim.dual_issues", static_cast<double>(S.DualIssues));
  L.count("sim.replays", static_cast<double>(S.ReplayPenalties));
  L.count("sim.global_bytes", static_cast<double>(S.GlobalBytes));
  for (size_t U = 0; U < NumSlotUses; ++U)
    L.count(std::string("sim.slots.") +
                slotUseName(static_cast<SlotUse>(U)),
            static_cast<double>(S.Breakdown.Slots[U]));
  if (Plain) {
    L.count("sim.launch.sm_cycles", static_cast<double>(S.AggregateCycles));
    L.count("sim.launch.warp_insts", static_cast<double>(S.WarpInstsIssued));
  }
}

/// Observers attached to an observed launch.
struct Observers {
  KernelProfile *Profile = nullptr;
  SimTrace *Trace = nullptr;
  ProbeEngine *Probes = nullptr;
};

/// The shared body of every launch op: stage, launch, check the slot
/// identity, and verify C when the point asks for it. Returns the host
/// seconds of the launch alone.
double launchSgemm(const SgemmPoint &P, const SgemmKernelConfig &Cfg,
                   const Kernel &K, OpOutcome &Out, Fnv &D,
                   const Observers &Obs = {}) {
  auto S = stage(P, Cfg);
  if (!S) {
    fail(Out, S.message());
    return 0;
  }
  Staged &St = **S;
  St.Launch.Profile = Obs.Profile;
  St.Launch.Trace = Obs.Trace;
  St.Launch.Probes = Obs.Probes;
  const bool Plain = !Obs.Profile && !Obs.Trace && !Obs.Probes;
  const auto T0 = std::chrono::steady_clock::now();
  auto LR = timed(Plain ? "sim.launch" : "observe.launch", [&] {
    return launchKernel(*P.Machine, K, St.Launch, St.GM);
  });
  const double Seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - T0)
                             .count();
  if (!LR) {
    fail(Out, "launch failed: " + LR.message());
    return Seconds;
  }
  const SimStats &Stats = LR->Stats;
  countLaunch(Stats, Plain);
  Out.SmCycles += Stats.AggregateCycles;
  addLaunchDigest(*LR, D);
  const uint64_t Scheds =
      static_cast<uint64_t>(P.Machine->WarpSchedulersPerSM);
  if (Stats.Breakdown.total() != Stats.AggregateCycles * Scheds)
    fail(Out, formatString("issue-slot identity broken: %llu slots for "
                           "%llu SM-cycles x %llu schedulers",
                           static_cast<unsigned long long>(
                               Stats.Breakdown.total()),
                           static_cast<unsigned long long>(
                               Stats.AggregateCycles),
                           static_cast<unsigned long long>(Scheds)));
  if (P.Options.Verify)
    verifyC(St, Cfg, P.Problem, Out, D);
  Out.Launch = LR.take();
  return Seconds;
}

std::string pointLabel(const SgemmPoint &P, SgemmImpl Impl) {
  return formatString(
      "%s %s %s BR=%d LDS%s %s %dx%dx%d beta=%g", P.Machine->Name.c_str(),
      sgemmImplName(Impl), gemmVariantName(P.Problem.Variant), P.Cfg.BR,
      P.Cfg.LdsWidth == MemWidth::B64 ? ".64" : "",
      sgemmScheduleName(P.Cfg.Schedule), P.Problem.M, P.Problem.N,
      P.Problem.K, static_cast<double>(P.Problem.Beta));
}

Expected<Kernel> generate(const SgemmPoint &P, const SgemmKernelConfig &Cfg) {
  return timed("kernelgen.generate",
               [&] { return generateSgemmKernel(*P.Machine, Cfg); });
}

/// serialize -> deserialize -> disassemble -> assemble must give back
/// the module's exact bytes.
void roundTrip(const MachineDesc &M, const Kernel &K, OpOutcome &Out) {
  Module Mod;
  Mod.Arch = M.Generation;
  Mod.Kernels.push_back(K);
  std::vector<uint8_t> Bytes =
      timed("isa.serialize", [&] { return Mod.serialize(); });
  auto Back =
      timed("isa.deserialize", [&] { return Module::deserialize(Bytes); });
  if (!Back || Back->Kernels.size() != 1) {
    fail(Out, "round trip: deserialize failed");
    return;
  }
  std::string Text = ".arch " + M.Name + "\n" +
                     timed("asmtool.disassemble", [&] {
                       return disassembleKernel(Back->Kernels[0]);
                     });
  auto Re = timed("asmtool.assemble", [&] { return assembleText(Text); });
  if (!Re)
    fail(Out, "round trip: assemble failed: " + Re.message());
  else if (Re->serialize() != Bytes)
    fail(Out, "round trip: reassembled module differs from the original");
}

/// The headline LDS.64 BR=6 bound first, then the other configurations
/// model_validation checks achieved <= bound on.
std::vector<SgemmModelParams> analyzedParams() {
  std::vector<SgemmModelParams> Out;
  for (int BR : {6, 4})
    for (MemWidth W : {MemWidth::B64, MemWidth::B32}) {
      SgemmModelParams P;
      P.BR = BR;
      P.LdsWidth = W;
      Out.push_back(P);
    }
  return Out;
}

/// Every field of a bound report, for the reopen check and the digest.
std::vector<double> reportFields(const UpperBoundReport &R) {
  return {static_cast<double>(R.Feasible),
          static_cast<double>(R.Budget.total()),
          static_cast<double>(R.Occ.ActiveBlocks),
          R.FI,
          R.FfmaFraction,
          R.MixedThroughput,
          R.FT,
          R.PSMBoundGflops,
          R.PMemBoundGflops,
          R.PotentialGflops,
          R.FractionOfPeak};
}

/// Bound in GFLOPS by (machine, BR, LDS width).
using BoundMap =
    std::map<std::tuple<const MachineDesc *, int, MemWidth>, double>;

/// A cold analysis of \p M over a file-backed PerfDatabase in a fresh
/// directory under \p TmpDir, as run_benches.sh --check runs it, then the
/// same analysis over the reopened database, which must measure nothing
/// and return identical bounds.
void analyzeMachine(const MachineDesc &M, const std::string &TmpDir,
                    OpOutcome &Out, Fnv &D, BoundMap *Bounds) {
  std::string Dir = TmpDir + "/gpdb-XXXXXX";
  if (!::mkdtemp(Dir.data())) {
    fail(Out, "cannot create a database directory under " + TmpDir);
    return;
  }
  const std::string Path = Dir + "/perf.gpdb";
  const std::vector<SgemmModelParams> Params = analyzedParams();
  SpanLog &L = SpanLog::get();
  std::vector<UpperBoundReport> Cold, Warm;
  for (int Pass = 0; Pass < 2; ++Pass) {
    auto DB = timed("ubench.db_load", [&] {
      return std::make_unique<PerfDatabase>(M, Path);
    });
    UpperBoundModel Model(*DB);
    for (const SgemmModelParams &P : Params) {
      if (Pass == 0)
        Cold.push_back(
            timed("model.analyze.cold", [&] { return Model.analyze(P); }));
      else
        Warm.push_back(
            timed("model.analyze", [&] { return Model.analyze(P); }));
    }
    if (Pass == 0) {
      L.count("ubench.measurements", static_cast<double>(DB->misses()));
      Status S = timed("ubench.db_save", [&] { return DB->save(Path); });
      if (S.failed())
        fail(Out, "saving the database failed: " + S.message());
    } else {
      L.count("ubench.hits", static_cast<double>(DB->hits()));
      L.count("ubench.lookups",
              static_cast<double>(DB->hits() + DB->misses()));
      if (DB->misses() != 0)
        fail(Out, formatString("reopened database re-measured %zu of %zu "
                               "lookups",
                               DB->misses(), DB->hits() + DB->misses()));
    }
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);

  for (size_t I = 0; I < Params.size(); ++I) {
    std::vector<double> F = reportFields(Cold[I]);
    if (F != reportFields(Warm[I]))
      fail(Out, formatString("reopened database changed the BR=%d bound",
                             Params[I].BR));
    for (double V : F)
      D.addDouble(V);
    if (Bounds)
      (*Bounds)[{&M, Params[I].BR, Params[I].LdsWidth}] =
          Cold[I].PotentialGflops;
  }
  Out.BoundPct[M.Name] = 100 * Cold[0].FractionOfPeak;
  L.count("model.bound_pct." + M.Name, Out.BoundPct[M.Name]);
}

/// The stock probe specs attached to every observed launch.
const char *const StockProbes[] = {"gmem_bytes", "smem_bank_conflicts",
                                   "opclass_mix", "block_sched",
                                   "warp_progress"};

/// (path, text) of each stock probe spec under \p RepoRoot.
using SpecFiles = std::vector<std::pair<std::string, std::string>>;

Expected<SpecFiles> readStockProbes(const std::string &RepoRoot) {
  SpecFiles Files;
  for (const char *Name : StockProbes) {
    std::string Path = RepoRoot + "/probes/" + Name + ".probe";
    std::ifstream In(Path);
    if (!In)
      return Expected<SpecFiles>::error("cannot read " + Path);
    std::stringstream SS;
    SS << In.rdbuf();
    Files.push_back({Path, SS.str()});
  }
  return Files;
}

/// The shadow identities: the profile and the stock probes must
/// reproduce the simulator's own aggregates exactly.
void checkShadows(OpOutcome &Out, const KernelProfile &Profile,
                  const ProbeEngine &Probes) {
  const SimStats &S = Out.Launch->Stats;
  if (!(Profile.breakdown() == S.Breakdown))
    fail(Out, "profile breakdown differs from Stats.Breakdown");
  const std::pair<const char *, uint64_t> Shadows[] = {
      {"opclass_mix", S.ThreadInstsIssued},
      {"gmem_bytes", S.GlobalBytes},
      {"gmem_transactions", S.GlobalTransactions},
      {"warp_insts", S.WarpInstsIssued}};
  for (const auto &[Name, Want] : Shadows) {
    const ProbeState *St = Probes.stateByName(Name);
    if (!St)
      fail(Out, std::string("probe ") + Name + " is missing");
    else if (static_cast<uint64_t>(St->Total.Value) != Want)
      fail(Out, formatString("probe %s = %lld, simulator = %llu", Name,
                             static_cast<long long>(St->Total.Value),
                             static_cast<unsigned long long>(Want)));
  }
}

/// One observed launch: parse the stock probes, launch with the profile,
/// the trace (default ring) and the probes attached, render every report
/// and check the shadow identities.
OpOutcome observedLaunch(const SgemmPoint &P, const SgemmKernelConfig &Cfg,
                         const Kernel &K, const SpecFiles &Files) {
  OpOutcome Out;
  Fnv D;
  std::vector<ProbeSpec> Specs;
  timed("probe.parse", [&] {
    for (const auto &[Path, Text] : Files) {
      auto S = parseProbeSpecs(Text, Path);
      if (!S) {
        fail(Out, S.message());
        continue;
      }
      for (ProbeSpec &Spec : *S)
        Specs.push_back(std::move(Spec));
    }
  });
  ProbeEngine Probes(std::move(Specs));
  KernelProfile Profile;
  SimTrace Trace;
  launchSgemm(P, Cfg, K, Out, D, {&Profile, &Trace, &Probes});
  if (!Out.Launch)
    return Out;
  const MachineDesc &M = *P.Machine;
  timed("analysis.profile_report", [&] {
    const SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
    ProfileRecordInfo Info;
    Info.Schedule = sgemmScheduleName(Cfg.Schedule);
    Info.GridX = Shape.GridX;
    Info.GridY = Shape.GridY;
    Info.BlockX = Shape.BlockX;
    Info.TotalCycles = Out.Launch->TotalCycles;
    D.addText(renderAnnotatedReport(M, K, Profile));
    D.addText(profileRecordJson(M, K, Profile, Info));
  });
  D.addText(
      timed("sim.trace_write", [&] { return chromeTraceJson(Trace, M); }));
  D.addText(timed("probe.report", [&] { return Probes.report(); }));
  SpanLog::get().count("sim.trace_dropped",
                       static_cast<double>(Trace.DroppedEvents));
  checkShadows(Out, Profile, Probes);
  Out.Digest = D.value();
  return Out;
}

/// One unobserved launch of the observed ops' kernel and inputs: every
/// observed launch must have produced exactly its statistics. Its host
/// time is the base of observe.overhead_ratio.
void compareWithPlainLaunch(const SgemmPoint &P, const SgemmKernelConfig &Cfg,
                            const Kernel &K, std::vector<OpOutcome *> Ops) {
  OpOutcome Plain;
  Fnv D;
  const double Seconds = launchSgemm(P, Cfg, K, Plain, D);
  SpanLog::get().count("observe.plain_launch_s", Seconds);
  SpanLog::get().count("observe.plain_launches", 1);
  for (OpOutcome *Op : Ops) {
    if (!Plain.Launch) {
      fail(*Op, "unobserved reference launch failed: " +
                    (Plain.Failures.empty() ? std::string("?")
                                            : Plain.Failures.front()));
      continue;
    }
    if (Op->Launch &&
        (statsFields(Op->Launch->Stats) != statsFields(Plain.Launch->Stats) ||
         Op->Launch->TotalCycles != Plain.Launch->TotalCycles))
      fail(*Op, "observed launch's statistics differ from the unobserved "
                "launch's");
  }
}

/// fullchip_verify's points: the tuned BR=6 kernel on whole grids. Every
/// shape pads to 768x768x128 (two full waves on both machines), so every
/// seed simulates the same work; the first is never a tile multiple.
std::vector<SgemmPoint> fullchipPoints(uint64_t Seed) {
  Rng R(Seed);
  std::vector<SgemmPoint> Points;
  for (int I = 0; I < FullchipPoints; ++I) {
    SgemmPoint P;
    P.Machine = I % 2 == 0 ? &gtx680() : &gtx580();
    P.Problem.Variant = static_cast<GemmVariant>(R.nextBelow(4));
    P.Problem.M = static_cast<int>(R.nextInRange(673, I == 0 ? 767 : 768));
    P.Problem.N = static_cast<int>(R.nextInRange(673, 768));
    P.Problem.K = static_cast<int>(R.nextInRange(113, 128));
    P.Problem.Beta = R.nextBelow(2) ? 0.5f : 0.0f;
    P.Cfg = baselineConfig(SgemmImpl::AsmTuned, *P.Machine,
                           P.Problem.Variant, P.Problem.M, P.Problem.N,
                           P.Problem.K);
    P.Options.Mode = SimMode::Full;
    P.Options.Verify = true;
    P.Options.Seed = R.next();
    P.Options.Jobs = LaunchJobs;
    P.Label = pointLabel(P, SgemmImpl::AsmTuned);
    Points.push_back(P);
  }
  return Points;
}

class FullchipWorkload : public Workload {
public:
  static Expected<std::unique_ptr<Workload>> create(uint64_t Seed) {
    auto W = std::make_unique<FullchipWorkload>();
    W->Points = fullchipPoints(Seed);
    for (const SgemmPoint &P : W->Points) {
      W->Padded.push_back(paddedConfig(P));
      auto K = generate(P, W->Padded.back());
      if (!K)
        return Expected<std::unique_ptr<Workload>>::error(
            P.Label + ": " + K.message());
      W->Kernels.push_back(K.take());
    }
    return Expected<std::unique_ptr<Workload>>(std::move(W));
  }

  int jobs() const override { return LaunchJobs; }
  size_t numPoints() const override { return Points.size(); }
  const SgemmPoint *sgemmPoint(size_t I) const override {
    return &Points[I];
  }

  OpOutcome run(size_t I) override {
    OpOutcome Out;
    Out.Point = I;
    Fnv D;
    launchSgemm(Points[I], Padded[I], Kernels[I], Out, D);
    Out.Digest = D.value();
    return Out;
  }

private:
  std::vector<SgemmPoint> Points;
  std::vector<SgemmKernelConfig> Padded;
  std::vector<Kernel> Kernels;
};

/// wave_sweep: the paper's method end to end. Ops 0 and 1 are cold
/// model analyses of GTX580 and GTX680; the rest are one-wave
/// projections drawn from the figure benches' configuration space.
class SweepWorkload : public Workload {
public:
  static Expected<std::unique_ptr<Workload>> create(uint64_t Seed,
                                                    std::string TmpDir) {
    auto W = std::make_unique<SweepWorkload>();
    W->TmpDir = std::move(TmpDir);
    Rng R(Seed);
    // Every seed draws one pair of points from each (machine, impl, BR)
    // stratum with a fixed K, so seeds differ in configurations and
    // contents but hardly in work. A GTX680 wave simulates about twice
    // the work of a GTX580 wave at equal K, so it gets half the K: the
    // op times then form one cluster and their percentiles stay steady.
    // Spill emulation (MAGMA on Kepler) needs BR >= 4.
    struct Stratum {
      const MachineDesc *Machine;
      SgemmImpl Impl;
      int BR;
    };
    std::vector<Stratum> Strata;
    for (const MachineDesc *M : {&gtx580(), &gtx680()})
      for (SgemmImpl Impl : {SgemmImpl::AsmTuned, SgemmImpl::AsmNaive,
                             SgemmImpl::CublasLike, SgemmImpl::MagmaLike})
        for (int BR : {2, 4, 6})
          if (BR >= 4 || !baselineConfig(Impl, *M, GemmVariant::NN, 0, 0, 0)
                               .EmulateSpills)
            Strata.push_back({M, Impl, BR});

    for (size_t S = 0; S < Strata.size(); ++S) {
      SgemmPoint P;
      P.Machine = Strata[S].Machine;
      const SgemmImpl Impl = Strata[S].Impl;
      // model_validation asserts achieved <= bound for the tuned kernel in
      // its default configuration (NN, drip) at BR 4 and 6 with either LDS
      // width. Those strata keep NN and drip, so the check runs on every
      // seed; the seed still draws their LDS width and shape.
      const bool CheckBound =
          Impl == SgemmImpl::AsmTuned && Strata[S].BR >= 4;
      P.Problem.Variant = CheckBound
                              ? GemmVariant::NN
                              : static_cast<GemmVariant>(R.nextBelow(4));
      P.Problem.K = P.Machine == &gtx580() ? 128 : 64;
      P.Cfg = baselineConfig(Impl, *P.Machine, P.Problem.Variant, 0, 0, 0);
      P.Cfg.BR = Strata[S].BR;
      P.Cfg.LdsWidth = R.nextBelow(2) ? MemWidth::B64 : MemWidth::B32;
      P.Cfg.Schedule = CheckBound || !R.nextBelow(2) ? SgemmSchedule::Drip
                                                     : SgemmSchedule::List;
      // A shape and its neighbour one tile step up in M, where padding
      // and the wave projection break most easily. Twelve tiles a side
      // give every SM a full first wave on both machines, so a point's
      // simulated work does not depend on the seeded shape.
      const int Tile = P.Cfg.blockTile();
      const uint64_t TileU = static_cast<uint64_t>(Tile);
      P.Problem.M = 12 * Tile - static_cast<int>(R.nextBelow(TileU));
      P.Problem.N = 12 * Tile - static_cast<int>(R.nextBelow(TileU));
      P.Options.Mode = SimMode::ProjectOneWave;
      P.Options.Jobs = 1;
      for (int Step = 0; Step < 2; ++Step) {
        SgemmPoint Q = P;
        Q.Problem.M += Step * Tile;
        Q.Options.Seed = R.next();
        Q.Label = pointLabel(Q, Impl);
        W->Points.push_back(Q);
        W->CheckBound.push_back(CheckBound);
      }
    }
    return Expected<std::unique_ptr<Workload>>(std::move(W));
  }

  int jobs() const override { return 1; }
  size_t numPoints() const override { return 2 + Points.size(); }
  const SgemmPoint *sgemmPoint(size_t I) const override {
    return I < 2 ? nullptr : &Points[I - 2];
  }

  OpOutcome run(size_t I) override {
    OpOutcome Out;
    Out.Point = I;
    Fnv D;
    if (I < 2)
      analyzeMachine(machine(I), TmpDir, Out, D, &Bounds);
    else
      project(I - 2, Out, D);
    Out.Digest = D.value();
    return Out;
  }

private:
  static const MachineDesc &machine(size_t I) {
    return I == 0 ? gtx580() : gtx680();
  }

  /// One ProjectOneWave point: generate, round-trip the kernel through
  /// the toolchain, launch one wave, and check achieved <= bound where
  /// model_validation asserts it.
  void project(size_t I, OpOutcome &Out, Fnv &D) {
    const SgemmPoint &P = Points[I];
    const SgemmKernelConfig Cfg = paddedConfig(P);
    auto K = generate(P, Cfg);
    if (!K) {
      fail(Out, "kernel generation failed: " + K.message());
      return;
    }
    roundTrip(*P.Machine, *K, Out);
    launchSgemm(P, Cfg, *K, Out, D);
    if (!CheckBound[I] || !Out.Launch)
      return;
    auto Bound = Bounds.find({P.Machine, Cfg.BR, Cfg.LdsWidth});
    if (Bound == Bounds.end()) {
      fail(Out, "no model bound for this configuration");
      return;
    }
    const double Achieved =
        Out.Launch->gflops(*P.Machine, 2.0 * Cfg.M * Cfg.N * Cfg.K);
    if (Achieved > Bound->second)
      fail(Out, formatString("achieved %.1f GFLOPS exceeds the %.1f GFLOPS "
                             "upper bound",
                             Achieved, Bound->second));
  }

  std::string TmpDir;
  std::vector<SgemmPoint> Points;
  std::vector<bool> CheckBound;
  BoundMap Bounds;
};

/// observed_launch: fullchip_verify's GTX680 kernel and shape with the
/// profile, the trace and the stock probes attached, then every report
/// rendered.
class ObservedWorkload : public Workload {
public:
  static Expected<std::unique_ptr<Workload>>
  create(uint64_t Seed, const std::string &RepoRoot) {
    using ER = Expected<std::unique_ptr<Workload>>;
    auto W = std::make_unique<ObservedWorkload>();
    W->Point = fullchipPoints(Seed)[0];
    W->Padded = paddedConfig(W->Point);
    auto K = generate(W->Point, W->Padded);
    if (!K)
      return ER::error(W->Point.Label + ": " + K.message());
    W->K = K.take();
    auto Files = readStockProbes(RepoRoot);
    if (!Files)
      return ER::error(Files.message());
    W->Files = Files.take();
    return ER(std::move(W));
  }

  int jobs() const override { return LaunchJobs; }
  size_t numPoints() const override { return 1; }
  const SgemmPoint *sgemmPoint(size_t) const override { return &Point; }

  OpOutcome run(size_t I) override {
    OpOutcome Out = observedLaunch(Point, Padded, K, Files);
    Out.Point = I;
    return Out;
  }

  void finish(std::vector<OpOutcome> &Ops) override {
    std::vector<OpOutcome *> All;
    for (OpOutcome &Op : Ops)
      All.push_back(&Op);
    compareWithPlainLaunch(Point, Padded, K, All);
  }

private:
  SgemmPoint Point;
  SgemmKernelConfig Padded;
  Kernel K;
  SpecFiles Files;
};

} // namespace

std::vector<uint64_t> perfbench::statsFields(const SimStats &S) {
  std::vector<uint64_t> F = {S.Cycles,
                             S.AggregateCycles,
                             S.WarpInstsIssued,
                             S.ThreadInstsIssued,
                             S.GlobalBytes,
                             S.GlobalTransactions,
                             S.ReplayPenalties,
                             S.SharedConflictEvents,
                             S.BarrierWaits,
                             S.IdleCycles,
                             S.DualIssues};
  F.insert(F.end(), S.ThreadInstsByOpcode.begin(),
           S.ThreadInstsByOpcode.end());
  F.insert(F.end(), S.Breakdown.Slots.begin(), S.Breakdown.Slots.end());
  return F;
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "fullchip_verify", "wave_sweep", "observed_launch"};
  return Names;
}

Expected<std::unique_ptr<Workload>>
perfbench::makeWorkload(const std::string &Name, uint64_t Seed,
                        const std::string &RepoRoot,
                        const std::string &TmpDir) {
  if (Name == "fullchip_verify")
    return FullchipWorkload::create(Seed);
  if (Name == "wave_sweep")
    return SweepWorkload::create(Seed, TmpDir);
  if (Name == "observed_launch")
    return ObservedWorkload::create(Seed, RepoRoot);
  return Expected<std::unique_ptr<Workload>>::error("unknown workload '" +
                                                    Name + "'");
}

double perfbench::headlineBoundPct(const MachineDesc &M) {
  PerfDatabase DB(M);
  return 100 * UpperBoundModel(DB).analyze(analyzedParams()[0]).FractionOfPeak;
}

std::vector<std::pair<std::string, OpOutcome>>
perfbench::sampleUnvisitedLayers(const Workload &W,
                                 const std::string &RepoRoot,
                                 const std::string &TmpDir) {
  const auto Calls = SpanLog::get().selfTimes();
  auto visited = [&](const char *Span) { return Calls.count(Span) != 0; };
  std::vector<std::pair<std::string, OpOutcome>> Out;
  auto sample = [&](const char *Group) -> OpOutcome & {
    Out.emplace_back(Group, OpOutcome());
    return Out.back().second;
  };

  const SgemmPoint *P = nullptr;
  for (size_t I = 0; I < W.numPoints() && !P; ++I)
    P = W.sgemmPoint(I);
  if (!P) {
    fail(sample("kernelgen"), "the workload launches no SGEMM");
    return Out;
  }
  const SgemmKernelConfig Cfg = paddedConfig(*P);
  auto K = visited("kernelgen.generate")
               ? generateSgemmKernel(*P->Machine, Cfg)
               : generate(*P, Cfg);
  if (!K) {
    fail(sample("kernelgen"), "kernel generation failed: " + K.message());
    return Out;
  }
  if (!visited("asmtool.disassemble"))
    roundTrip(*P->Machine, *K, sample("toolchain"));
  if (!visited("sgemm.reference")) {
    OpOutcome &Ref = sample("reference");
    auto S = stage(*P, Cfg);
    if (S)
      reference(**S, Cfg, P->Problem);
    else
      fail(Ref, S.message());
  }
  if (!visited("model.analyze"))
    for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
      Fnv D;
      analyzeMachine(*M, TmpDir, sample("model"), D, nullptr);
    }
  if (!visited("observe.launch")) {
    OpOutcome &Observed = sample("observe");
    auto Files = readStockProbes(RepoRoot);
    if (!Files) {
      fail(Observed, Files.message());
      return Out;
    }
    Observed = observedLaunch(*P, Cfg, *K, *Files);
    compareWithPlainLaunch(*P, Cfg, *K, {&Observed});
  }
  return Out;
}
