//===- tests/SimTimingTest.cpp - timing-model calibration tests -----------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verifies that the simulator reproduces the paper's measured throughput
/// numbers: the Fermi 32-inst/cycle issue ceiling, the Section 4.1 LDS.X
/// throughputs, the Kepler ~132 ceiling with the Table 2 register-bank
/// effects, the ~178 repeated-operand fast path, and the qualitative
/// effects (dependence sensitivity, control-notation quality, shared
/// memory bank conflicts, global coalescing).
///
//===----------------------------------------------------------------------===//

#include "asmtool/Assembler.h"
#include "asmtool/NotationTuner.h"
#include "probe/ProbeSpec.h"
#include "sim/DecodedKernel.h"
#include "sim/Launcher.h"
#include "sim/Timing.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "ubench/MixBench.h"
#include "ubench/OpPattern.h"
#include "ubench/PerfDatabase.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace gpuperf;

namespace {

double measureMix(const MachineDesc &M, int Ratio, MemWidth W,
                  bool Dependent) {
  MixBenchParams P;
  P.FfmaPerLds = Ratio;
  P.Width = W;
  P.Dependent = Dependent;
  Kernel K = generateMixBench(M, P);
  return measureThroughput(M, K);
}

double measurePattern(const MachineDesc &M, const Instruction &Pattern) {
  Kernel K = generateOpPatternBench(M, Pattern);
  MeasureConfig Cfg;
  Cfg.ThreadsPerBlock = 1024;
  Cfg.BlocksPerSM = 1;
  return measureThroughput(M, K, Cfg);
}

} // namespace

// --- Fermi ceilings (Table 1, Section 4.1) -----------------------------------

TEST(FermiTiming, PureFfmaReaches32PerCycle) {
  double T = measureMix(gtx580(), -1, MemWidth::B64, false);
  EXPECT_NEAR(T, 32.0, 1.5);
}

TEST(FermiTiming, PureLdsThroughputs) {
  // Section 4.1: LDS peaks at 16 thread insts/cycle; LDS.64 at 8 (the
  // data rate does not improve); LDS.128 at only 2.
  EXPECT_NEAR(measureMix(gtx580(), 0, MemWidth::B32, false), 16.0, 1.0);
  EXPECT_NEAR(measureMix(gtx580(), 0, MemWidth::B64, false), 8.0, 0.6);
  EXPECT_NEAR(measureMix(gtx580(), 0, MemWidth::B128, false), 2.0, 0.3);
}

TEST(FermiTiming, MixedRatiosApproachIssueCeiling) {
  // Figure 2 top: LDS saturates by ratio 3, LDS.64 by ratio 6; LDS.128
  // at ratio 12 is still LDST-pipe bound near 2*(12+1) = 26.
  double Lds3 = measureMix(gtx580(), 3, MemWidth::B32, false);
  double Lds64R6 = measureMix(gtx580(), 6, MemWidth::B64, false);
  double Lds128R12 = measureMix(gtx580(), 12, MemWidth::B128, false);
  EXPECT_NEAR(Lds3, 31.3, 1.5);
  EXPECT_NEAR(Lds64R6, 30.4, 2.0);
  EXPECT_NEAR(Lds128R12, 24.5, 2.5);
}

TEST(FermiTiming, DependentMixSaturatesByMidOccupancy) {
  // Figure 4 top: the dependent 6:1 mix is near-peak from 512 threads.
  PerfDatabase DB(gtx580());
  double At128 = DB.mixThroughput(6, MemWidth::B64, true, 128);
  double At512 = DB.mixThroughput(6, MemWidth::B64, true, 512);
  double At1024 = DB.mixThroughput(6, MemWidth::B64, true, 1024);
  EXPECT_LT(At128, 0.8 * At512);
  EXPECT_GT(At512, 28.0);
  EXPECT_GE(At1024, At512 - 1.0);
}

// --- Kepler ceilings (Section 3.3, Table 2) -----------------------------------

TEST(KeplerTiming, FfmaCeilingIs132NotSPCount) {
  double T = measureMix(gtx680(), -1, MemWidth::B64, false);
  EXPECT_NEAR(T, 132.0, 5.0);
  // Far below the 192-SP processing throughput: the paper's core finding.
  EXPECT_LT(T, 140.0);
}

TEST(KeplerTiming, PureLds64Throughput) {
  EXPECT_NEAR(measureMix(gtx680(), 0, MemWidth::B64, false), 33.1, 1.5);
}

TEST(KeplerTiming, RepeatedOperandFastPath) {
  // "FFMA RA, RB, RB, RA ... can approach around 178" (Section 3.3).
  // R3 (odd0) and R4 (even1) are on different banks.
  double T = measurePattern(gtx680(), makeFFMA(4, 3, 3, 4));
  EXPECT_NEAR(T, 178.0, 8.0);
}

TEST(KeplerTiming, DependenceNeedsMoreThreadsThanFermi) {
  // Figure 4 bottom: with fewer than 1024 active threads Kepler is very
  // sensitive to the LDS->FFMA dependence.
  PerfDatabase DB(gtx680());
  double At512 = DB.mixThroughput(6, MemWidth::B64, true, 512);
  double At2048 = DB.mixThroughput(6, MemWidth::B64, true, 2048);
  EXPECT_LT(At512, 0.75 * At2048);
  EXPECT_GT(At2048, 110.0);
}

TEST(KeplerTiming, NoNotationIsVeryPoor) {
  // Section 3.2: without the control words the binary runs, but slowly.
  MixBenchParams P;
  P.FfmaPerLds = -1;
  P.Notation = NotationQuality::None;
  double None = measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  P.Notation = NotationQuality::Tuned;
  double Tuned =
      measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  EXPECT_LT(None, 0.4 * Tuned);
}

TEST(KeplerTiming, HeuristicNotationBetweenNoneAndTuned) {
  MixBenchParams P;
  P.FfmaPerLds = 6;
  P.Dependent = true;
  P.Notation = NotationQuality::None;
  double None = measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  P.Notation = NotationQuality::Heuristic;
  double Heur = measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  P.Notation = NotationQuality::Tuned;
  double Tuned =
      measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  EXPECT_LT(None, Heur);
  EXPECT_LE(Heur, Tuned * 1.02);
}

// --- Table 2 (parameterized over all patterns) ----------------------------------

class Table2Test : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2Test, MatchesPaperThroughput) {
  const Table2Row &Row = GetParam();
  double T = measurePattern(gtx680(), Row.Pattern);
  // Within 6% of the paper's measured value.
  EXPECT_NEAR(T, Row.PaperThroughput, 0.06 * Row.PaperThroughput)
      << Row.Syntax;
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, Table2Test, ::testing::ValuesIn(table2Patterns()),
    [](const ::testing::TestParamInfo<Table2Row> &Info) {
      std::string Name = Info.param.Syntax;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

// --- The decoded per-PC table (sim/DecodedKernel.h) --------------------------

namespace {

/// Every MachineDesc the simulator ships.
std::vector<const MachineDesc *> allMachines() {
  return {&gt200(), &gtx580(), &gtx680(), &teslaK20X()};
}

/// Operand patterns {Dst, Src0, Src1, Src2} covering the cost rules'
/// branches: conflict-free, RZ sources, a repeated source, an accumulator,
/// and 2-way / 3-way register-bank conflicts (R0, R2, R8 share Even0).
const uint8_t OperandPatterns[][4] = {
    {20, 1, 4, 7},  {20, RegRZ, 4, RegRZ}, {20, 3, 3, 20},
    {20, 1, 4, 20}, {20, 0, 2, 5},         {20, 0, 2, 8},
    {RegRZ, 1, 2, 3},
};

/// One instruction per (opcode, width, HasImm, operand pattern).
std::vector<Instruction> decodeCorpus() {
  std::vector<Instruction> Code;
  for (int Op = 0; Op < static_cast<int>(Opcode::NumOpcodes); ++Op)
    for (MemWidth W : {MemWidth::B32, MemWidth::B64, MemWidth::B128})
      for (bool HasImm : {false, true})
        for (const auto &P : OperandPatterns) {
          Instruction I;
          I.Op = static_cast<Opcode>(Op);
          I.Width = W;
          I.HasImm = HasImm;
          I.Imm = 16;
          I.Dst = P[0];
          I.Src[0] = P[1];
          I.Src[1] = P[2];
          I.Src[2] = P[3];
          Code.push_back(I);
        }
  return Code;
}

/// The register/predicate validity rule the table caches: every register
/// is RZ or allocated, and every predicate is PT or architectural.
bool expectedRegsOk(const Instruction &I, int NumRegs) {
  for (const RegList &L : {I.sourceRegs(), I.destRegs()})
    for (uint8_t Reg : L)
      if (Reg != RegRZ && Reg >= NumRegs)
        return false;
  if (I.GuardPred != PredPT && I.GuardPred >= NumPredRegs)
    return false;
  return !I.writesPredicate() || I.Dst < NumPredRegs;
}

void expectSameRegs(const RegList &A, const RegList &B, size_t PC) {
  EXPECT_EQ(std::vector<uint8_t>(A.begin(), A.end()),
            std::vector<uint8_t>(B.begin(), B.end()))
      << "PC " << PC;
}

/// Checks every field of decodeKernel(M, K) against the Timing.h function
/// or Instruction query it caches.
void expectDecodesLikeTiming(const MachineDesc &M, const Kernel &K) {
  DecodedKernel D = decodeKernel(M, K);
  ASSERT_EQ(D.size(), K.Code.size());
  const bool KeplerNotations =
      M.Generation == GpuGeneration::Kepler && K.hasNotations();
  for (size_t PC = 0; PC < K.Code.size(); ++PC) {
    const Instruction &I = K.Code[PC];
    const DecodedInst &E = D[PC];
    SCOPED_TRACE(M.Name + " PC " + std::to_string(PC) + ": " +
                 I.toString());
    expectSameRegs(E.Srcs, I.sourceRegs(), PC);
    expectSameRegs(E.Dsts, I.destRegs(), PC);
    EXPECT_EQ(E.DispatchPort, dispatchPortCycles(M, I));
    EXPECT_EQ(E.IssuePipe, issuePipeCycles(M, I));
    EXPECT_EQ(E.MathPipe, mathPipeCycles(M, I));
    EXPECT_EQ(E.LdstPipe, ldstPipeCycles(M, I));
    EXPECT_EQ(E.ConflictExtra, bankConflictExtraCycles(M, I));
    EXPECT_EQ(E.ImplicitConflict, implicitConflictAllowance(M, I));
    EXPECT_EQ(E.Latency, resultLatency(M, I));
    EXPECT_EQ(E.Class, opcodeInfo(I.Op).Class);
    EXPECT_EQ(E.WritesPred, I.writesPredicate());
    EXPECT_EQ(E.ImmSrc1, I.immReplacesSrc1());
    EXPECT_EQ(E.WidthBytes, memWidthBytes(I.Width));
    EXPECT_EQ(1 << E.WidthLog2, E.WidthBytes);
    EXPECT_EQ(E.RegsOk,
              expectedRegsOk(I, std::max(K.RegsPerThread, 1)));
    ControlField Expected;
    if (KeplerNotations)
      Expected = K.Notations[PC / NotationGroupSize]
                     .Fields[PC % NotationGroupSize];
    EXPECT_EQ(E.Ctrl, Expected);
  }
}

} // namespace

TEST(DecodedKernel, EveryFieldEqualsTheRuleItCaches) {
  Kernel K;
  K.Name = "corpus";
  K.Code = decodeCorpus();
  K.RegsPerThread = 63;
  for (const MachineDesc *M : allMachines())
    expectDecodesLikeTiming(*M, K);
  // The corpus reaches the bank-conflict surcharge, the repeated-source
  // fast path and the immediate second source, not only their zero cases.
  DecodedKernel Kepler = decodeKernel(gtx680(), K);
  EXPECT_TRUE(std::any_of(Kepler.begin(), Kepler.end(),
                          [](const DecodedInst &E) { return E.ImmSrc1; }));
  double FfmaFree = issuePipeCycles(gtx680(), makeFFMA(20, 1, 4, 7));
  EXPECT_TRUE(std::any_of(Kepler.begin(), Kepler.end(),
                          [](const DecodedInst &E) {
                            return E.ConflictExtra > 0;
                          }));
  EXPECT_TRUE(std::any_of(Kepler.begin(), Kepler.end(),
                          [&](const DecodedInst &E) {
                            return E.IssuePipe > 0 && E.IssuePipe < FfmaFree;
                          }));
  // The same corpus on a small register file: wide accesses and high
  // registers fall outside it.
  K.RegsPerThread = 8;
  for (const MachineDesc *M : allMachines())
    expectDecodesLikeTiming(*M, K);
}

TEST(DecodedKernel, ControlFieldsComeFromKeplerNotationsOnly) {
  Kernel K;
  K.Name = "notated";
  K.Code = decodeCorpus();
  K.RegsPerThread = 63;
  // Distinct fields per PC, so an off-by-one group or slot shows.
  K.Notations.resize(K.requiredNotationCount());
  for (size_t PC = 0; PC < K.Code.size(); ++PC) {
    ControlField &F =
        K.Notations[PC / NotationGroupSize].Fields[PC % NotationGroupSize];
    F.StallCycles = static_cast<uint8_t>(PC % 16);
    F.Yield = PC % 3 == 0;
    F.DualIssue = PC % 2 == 1;
  }
  for (const MachineDesc *M : allMachines())
    expectDecodesLikeTiming(*M, K);
  DecodedKernel Kepler = decodeKernel(gtx680(), K);
  EXPECT_EQ(Kepler[9].Ctrl.StallCycles, 9);
  EXPECT_TRUE(Kepler[9].Ctrl.Yield);
  EXPECT_TRUE(Kepler[9].Ctrl.DualIssue);
  // Fermi ignores notations, and un-notated Kepler kernels decode zeros.
  EXPECT_EQ(decodeKernel(gtx580(), K)[9].Ctrl, ControlField());
  K.Notations.clear();
  EXPECT_EQ(decodeKernel(gtx680(), K)[9].Ctrl, ControlField());
}

TEST(DecodedKernel, InvalidRegistersAndPredicatesDecodeInvalid) {
  Kernel K;
  K.Name = "invalid";
  K.RegsPerThread = 8;
  K.Code = {makeIADDImm(1, 2, 1),                // valid
            makeIADDImm(8, 2, 1),                // dst past the file
            makeIADD(1, 2, 9),                   // source past the file
            makeLDS(MemWidth::B128, 6, 0, 0),    // R6..R9 widen past it
            makeSTS(MemWidth::B64, 0, 0, 7),     // data R7..R8
            makeISETP(CmpOp::LT, 3, 0, 1),       // P3: architectural
            makeISETP(CmpOp::LT, 4, 0, 1),       // P4: not
            makeBRA(0, 3), makeBRA(0, 4), makeBRA(0, 5, true),
            makeBRA(0, 6), makeEXIT()};
  const bool Expected[] = {true,  false, false, false, false, true,
                           false, true,  false, false, false, true};
  ASSERT_EQ(std::size(Expected), K.Code.size());
  for (const MachineDesc *M : allMachines()) {
    DecodedKernel D = decodeKernel(*M, K);
    for (size_t PC = 0; PC < K.Code.size(); ++PC)
      EXPECT_EQ(D[PC].RegsOk, Expected[PC])
          << M->Name << " " << K.Code[PC].toString();
  }
}

// --- Shared-memory bank conflicts ---------------------------------------------

namespace {

uint64_t cyclesFor(const MachineDesc &M, const std::string &Body,
                   int Threads, int SharedBytes) {
  auto Mod = assembleKernelBody(M.Generation, Body, SharedBytes);
  EXPECT_TRUE(Mod.hasValue()) << (Mod.hasValue() ? "" : Mod.message());
  Kernel *K = Mod->findKernel("k");
  if (M.Generation == GpuGeneration::Kepler)
    tuneNotations(M, *K, NotationQuality::Tuned);
  GlobalMemory GM(1 << 20);
  LaunchConfig Config;
  Config.Dims.BlockX = Threads;
  Config.Dims.GridX = 1;
  auto R = launchKernel(M, *K, Config, GM);
  EXPECT_TRUE(R.hasValue()) << (R.hasValue() ? "" : R.message());
  return R->Stats.Cycles;
}

std::string ldsStrideBody(int StrideBytes, int Repeats) {
  // addr = (tid * Stride) % 4096; repeated loads, destinations rotated so
  // write-after-write dependences do not serialize the pipe measurement.
  std::string Body = formatString("  S2R R0, SR_TID.X\n"
                                  "  IMUL R1, R0, %d\n"
                                  "  LOP.AND R1, R1, 4095\n",
                                  StrideBytes);
  for (int I = 0; I < Repeats; ++I)
    Body += formatString("  LDS R%d, [R1]\n", 4 + 2 * (I % 8));
  Body += "  EXIT\n";
  return Body;
}

} // namespace

TEST(SharedBankConflicts, StridedAccessSerializesOnFermi) {
  // Stride 4 bytes: conflict-free. Stride 128: all 32 lanes hit the same
  // bank -> 32-way serialization.
  uint64_t Sequential =
      cyclesFor(gtx580(), ldsStrideBody(4, 64), 256, 4096);
  uint64_t Conflicted =
      cyclesFor(gtx580(), ldsStrideBody(128, 64), 256, 4096);
  EXPECT_GT(Conflicted, 10 * Sequential);
}

namespace {

/// The serialization definition, computed directly: per bank, the number
/// of distinct bank words the live lanes touch; the worst bank's count,
/// normalized by the inherent passes of a sequential access.
double referenceSerialization(const MachineDesc &M,
                              const std::vector<int64_t> &Addrs, int Width) {
  std::map<int64_t, std::set<int64_t>> Banks;
  for (int64_t A : Addrs)
    for (int Offset = 0; Offset < Width; Offset += M.SharedMemBankBytes) {
      int64_t Word = (A + Offset) / M.SharedMemBankBytes;
      Banks[Word % M.SharedMemBanks].insert(Word);
    }
  size_t Degree = 0;
  for (const auto &[Bank, Words] : Banks)
    Degree = std::max(Degree, Words.size());
  int Ideal = std::max(1, static_cast<int>(Addrs.size()) * Width /
                              M.SharedMemBankBytes / M.SharedMemBanks);
  return std::max(1.0, static_cast<double>(Degree) / Ideal);
}

} // namespace

TEST(SharedBankConflicts, SerializationMatchesDistinctWordsPerBank) {
  // Random aligned LDS patterns -- broadcast groups, power-of-two strides
  // and scattered words -- under random live masks, on every machine and
  // width: the executor's factor equals the definition exactly.
  Rng R(15);
  for (const MachineDesc *M : allMachines())
    for (MemWidth MW : {MemWidth::B32, MemWidth::B64, MemWidth::B128}) {
      const int Width = memWidthBytes(MW);
      Kernel K;
      K.Code = {makeLDS(MW, 4, 1, 0)};
      K.RegsPerThread = 16;
      const DecodedInst D = decodeKernel(*M, K)[0];
      GlobalMemory GM(4096);
      const std::vector<uint32_t> NoParams;
      LaunchDims Dims;
      Dims.BlockX = WarpSize;
      Executor Exec(*M, GM, NoParams, Dims);
      SharedMemory Shared(8192);
      for (int Trial = 0; Trial < 300; ++Trial) {
        WarpContext W;
        W.reset(K.RegsPerThread);
        W.ActiveMask = Trial % 3 ? 0xffffffffu
                                 : static_cast<uint32_t>(R.next()) | 1u;
        const int Groups = 1 + static_cast<int>(R.nextBelow(32));
        const int64_t Stride = int64_t(Width) << R.nextBelow(6);
        uint32_t *Addr = W.writableRow(1);
        std::vector<int64_t> Live;
        for (int Lane = 0; Lane < WarpSize; ++Lane) {
          int64_t A;
          switch (Trial % 3) {
          case 0: // Broadcast groups.
            A = (Lane % Groups) * Width;
            break;
          case 1: // Strided, wrapping inside the allocation.
            A = Lane * Stride % 8192;
            break;
          default: // Scattered.
            A = static_cast<int64_t>(R.nextBelow(8192 / Width)) * Width;
            break;
          }
          Addr[Lane] = static_cast<uint32_t>(A);
          if (W.ActiveMask >> Lane & 1)
            Live.push_back(A);
        }
        ExecEffects Fx = Exec.execute(K.Code[0], D, W, 0, Shared);
        ASSERT_FALSE(Fx.faulted());
        ASSERT_EQ(Fx.SharedSerialization,
                  referenceSerialization(*M, Live, Width))
            << M->Name << " width " << Width << " trial " << Trial;
      }
    }
}

namespace {

/// What the LD/ST path reported for one launch of a kernel body.
struct MemCounts {
  uint64_t ConflictEvents = 0;
  uint64_t Transactions = 0;
  uint64_t Bytes = 0;
  /// Worst shared serialization factor among conflicting accesses (the
  /// bank_conflict event's field), 0 when none conflicted.
  int64_t WorstSerialization = 0;
};

MemCounts memCounts(const MachineDesc &M, const std::string &Body,
                    int Threads) {
  MemCounts C;
  auto Mod = assembleKernelBody(M.Generation, Body, 16384);
  EXPECT_TRUE(Mod.hasValue()) << (Mod.hasValue() ? "" : Mod.message());
  if (!Mod)
    return C;
  Kernel *K = Mod->findKernel("k");
  if (M.Generation == GpuGeneration::Kepler)
    tuneNotations(M, *K, NotationQuality::Tuned);
  auto Specs = parseProbeSpecs("probe worst {\n"
                               "  event bank_conflict\n"
                               "  aggregation max\n"
                               "  value serialization\n"
                               "}\n",
                               "worst.probe");
  EXPECT_TRUE(Specs.hasValue()) << Specs.message();
  ProbeEngine Probes(Specs.take());
  GlobalMemory GM(1 << 20);
  LaunchConfig Config;
  Config.Dims.BlockX = Threads;
  Config.Probes = &Probes;
  auto R = launchKernel(M, *K, Config, GM);
  EXPECT_TRUE(R.hasValue()) << (R.hasValue() ? "" : R.message());
  if (!R)
    return C;
  C.ConflictEvents = R->Stats.SharedConflictEvents;
  C.Transactions = R->Stats.GlobalTransactions;
  C.Bytes = R->Stats.GlobalBytes;
  C.WorstSerialization = Probes.stateByName("worst")->Total.Value;
  return C;
}

/// Two executions of `<Op> R4, [R1]` with R1 = tid * Stride + Base,
/// optionally guarded by P0 = (tid < 8) (\p Guard "@P0" or "@!P0").
std::string memBody(const std::string &Op, int Stride, int Base,
                    const std::string &Guard = "") {
  std::string Body = formatString("  S2R R0, SR_TID.X\n"
                                  "  IMUL R1, R0, %d\n"
                                  "  IADD R1, R1, %d\n"
                                  "  MOV32I R2, 8\n"
                                  "  ISETP.LT P0, R0, R2\n",
                                  Stride, Base);
  for (int I = 0; I < 2; ++I)
    Body += formatString("  %s%s%s R4, [R1]\n", Guard.c_str(),
                         Guard.empty() ? "" : " ", Op.c_str());
  return Body + "  EXIT\n";
}

struct SharedCase {
  const char *Name;
  const MachineDesc &(*Machine)();
  const char *Op;
  int Stride;
  int Threads;
  const char *Guard;
  /// Serialization beyond the machine's inherent cost for the width;
  /// 1 = no conflict event.
  int Serialization;
};

/// Fermi banks are 32 x 4 bytes, Kepler's 32 x 8 bytes. The factor is the
/// worst bank's distinct-word count over the width's inherent passes
/// (lanes x width / bank bytes / banks, at least 1). Fermi LDS.128 owes
/// its inherent 2-way conflict to the base cost (Section 4.1).
const SharedCase SharedCases[] = {
    {"FermiBroadcast", gtx580, "LDS", 0, 32, "", 1},
    {"FermiSequential", gtx580, "LDS", 4, 32, "", 1},
    {"FermiTwoWay", gtx580, "LDS", 8, 32, "", 2},
    {"FermiFourWay", gtx580, "LDS", 16, 32, "", 4},
    {"FermiThirtyTwoWay", gtx580, "LDS", 128, 32, "", 32},
    {"FermiLds64Sequential", gtx580, "LDS.64", 8, 32, "", 1},
    {"FermiLds64TwoWay", gtx580, "LDS.64", 16, 32, "", 2},
    {"FermiLds128Sequential", gtx580, "LDS.128", 16, 32, "", 1},
    {"FermiLds128Strided", gtx580, "LDS.128", 32, 32, "", 1},
    {"FermiLds128FourWay", gtx580, "LDS.128", 64, 32, "", 4},
    {"KeplerBroadcast", gtx680, "LDS", 0, 32, "", 1},
    {"KeplerWideBankSequential", gtx680, "LDS", 8, 32, "", 1},
    {"KeplerTwoWay", gtx680, "LDS", 16, 32, "", 2},
    {"KeplerFourWay", gtx680, "LDS", 32, 32, "", 4},
    {"KeplerThirtyTwoWay", gtx680, "LDS", 256, 32, "", 32},
    {"KeplerLds64Sequential", gtx680, "LDS.64", 8, 32, "", 1},
    {"KeplerLds64TwoWay", gtx680, "LDS.64", 16, 32, "", 2},
    {"KeplerLds128Sequential", gtx680, "LDS.128", 16, 32, "", 1},
    {"KeplerLds128TwoWay", gtx680, "LDS.128", 32, 32, "", 2},
    {"PartialActiveMask", gtx580, "LDS", 128, 20, "", 20},
    {"PredicatedOn", gtx580, "LDS", 128, 32, "@P0", 8},
    {"PredicatedOff", gtx580, "LDS", 128, 32, "@!P0", 24},
    {"KeplerPartialActiveMask", gtx680, "LDS.64", 256, 12, "", 12},
};

class SharedKnownAnswer : public ::testing::TestWithParam<SharedCase> {};

} // namespace

TEST_P(SharedKnownAnswer, SerializationAndConflictEvents) {
  const SharedCase &C = GetParam();
  MemCounts R = memCounts(C.Machine(), memBody(C.Op, C.Stride, 0, C.Guard),
                          C.Threads);
  bool Conflicts = C.Serialization > 1;
  EXPECT_EQ(R.ConflictEvents, Conflicts ? 2u : 0u);
  EXPECT_EQ(R.WorstSerialization, Conflicts ? C.Serialization : 0);
  EXPECT_EQ(R.Transactions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SharedBankConflicts, SharedKnownAnswer, ::testing::ValuesIn(SharedCases),
    [](const ::testing::TestParamInfo<SharedCase> &Info) {
      return std::string(Info.param.Name);
    });

// --- Global-memory coalescing -----------------------------------------------------

namespace {

struct GlobalCase {
  const char *Name;
  const char *Op;
  int Stride;
  int Base;
  int Threads;
  const char *Guard;
  /// Distinct 128-byte segments the warp's two loads each touch.
  int Segments;
};

/// Row starts at 512 are 128-byte aligned; 576, 520 and 480 are not
/// (lanes 8..31 of the 480 row lie in one segment, all 32 lanes in two).
const GlobalCase GlobalCases[] = {
    {"AlignedRow", "LD", 4, 512, 32, "", 1},
    {"UnalignedRow", "LD", 4, 576, 32, "", 2},
    {"AlignedRow64", "LD.64", 8, 512, 32, "", 2},
    {"UnalignedRow64", "LD.64", 8, 520, 32, "", 3},
    {"AlignedRow128", "LD.128", 16, 512, 32, "", 4},
    {"Broadcast", "LD", 0, 512, 32, "", 1},
    {"Strided", "LD", 128, 512, 32, "", 32},
    {"PartialActiveMask", "LD", 128, 512, 20, "", 20},
    {"PredicatedOn", "LD", 128, 512, 32, "@P0", 8},
    {"PredicatedOff", "LD", 4, 480, 32, "@!P0", 1},
};

class GlobalKnownAnswer : public ::testing::TestWithParam<GlobalCase> {};

} // namespace

TEST_P(GlobalKnownAnswer, TransactionsAndBytes) {
  const GlobalCase &C = GetParam();
  for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
    MemCounts R =
        memCounts(*M, memBody(C.Op, C.Stride, C.Base, C.Guard), C.Threads);
    EXPECT_EQ(R.Transactions, 2u * C.Segments) << M->Name;
    EXPECT_EQ(R.Bytes, 2u * 128 * C.Segments) << M->Name;
    EXPECT_EQ(R.ConflictEvents, 0u) << M->Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GlobalCoalescing, GlobalKnownAnswer, ::testing::ValuesIn(GlobalCases),
    [](const ::testing::TestParamInfo<GlobalCase> &Info) {
      return std::string(Info.param.Name);
    });

TEST(GlobalCoalescing, BandwidthBoundsStreamingKernel) {
  // A kernel that streams many loads cannot exceed the per-SM share of
  // the chip bandwidth.
  const MachineDesc &M = gtx580();
  std::string Body = "  S2R R0, SR_TID.X\n"
                     "  SHL R1, R0, 2\n";
  for (int I = 0; I < 64; ++I)
    Body += formatString("  LD R%d, [R1+%d]\n", 4 + (I % 8) * 2,
                         I * 4096);
  // Consume the loads so the kernel does not exit before the data (and
  // therefore the bandwidth cost) has fully arrived.
  for (int R = 0; R < 8; ++R)
    Body += formatString("  FADD R40, R40, R%d\n", 4 + R * 2);
  Body += "  EXIT\n";
  auto Mod = assembleKernelBody(GpuGeneration::Fermi, Body, 0);
  ASSERT_TRUE(Mod.hasValue()) << Mod.message();
  GlobalMemory GM(1 << 22);
  LaunchConfig Config;
  Config.Dims.BlockX = 512;
  auto R = launchKernel(M, *Mod->findKernel("k"), Config, GM);
  ASSERT_TRUE(R.hasValue()) << R.message();
  double Bytes = static_cast<double>(R->Stats.GlobalBytes);
  double BytesPerCycle = Bytes / R->Stats.Cycles;
  EXPECT_LE(BytesPerCycle, memBytesPerCyclePerSM(M) * 1.05);
}

// --- Latency-driven occupancy curves -----------------------------------------------

TEST(OccupancyCurves, ThroughputGrowsWithActiveThreads) {
  PerfDatabase DB(gtx680());
  double Prev = 0;
  for (int Threads : {64, 256, 1024, 2048}) {
    double T = DB.mixThroughput(6, MemWidth::B64, true, Threads);
    EXPECT_GE(T, Prev * 0.98) << Threads;
    Prev = T;
  }
}
