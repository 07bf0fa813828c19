//===- perfbench/tests/ComposedOpTest.cpp - composed op == runSgemm -------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// The benchmark composes each op from layer calls so it can time every
// call. These tests pin that one op of each workload reproduces what a
// user gets from runSgemmConfig on the same point: the same TotalCycles,
// the same SimStats and, for verified full-chip ops, the same C bits.
// Run from the repository root (the observed workload reads probes/).
//
//===----------------------------------------------------------------------===//

#include "runner/Workloads.h"

#include "probe/ProbeEngine.h"
#include "probe/ProbeSpec.h"
#include "sgemm/Reference.h"
#include "support/MathUtils.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

using namespace gpuperf;
using namespace perfbench;

namespace {

constexpr uint64_t Seed = 1;

std::string tmpDir() {
  auto Dir = std::filesystem::temp_directory_path() / "perfbench_test";
  std::filesystem::create_directories(Dir);
  return Dir.string();
}

std::unique_ptr<Workload> make(const std::string &Name) {
  auto W = makeWorkload(Name, Seed, ".", tmpDir());
  EXPECT_TRUE(W.hasValue()) << W.message();
  return W ? W.take() : nullptr;
}

std::string joined(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// The C runSgemmConfig verifies against, computed the way it does it:
/// padded column-major inputs filled from Options.Seed, then
/// referenceSgemm. runSgemmConfig only reports success when its device C
/// equals this exactly.
std::vector<uint32_t> runnerReferenceBits(const SgemmPoint &P) {
  const SgemmProblem &Pr = P.Problem;
  const int BSh = P.Cfg.blockTile();
  const int MP = static_cast<int>(alignTo(Pr.M, BSh));
  const int NP = static_cast<int>(alignTo(Pr.N, BSh));
  const int KP = static_cast<int>(alignTo(Pr.K, P.Cfg.L));
  const bool TA = transA(Pr.Variant), TB = transB(Pr.Variant);
  const int Lda = TA ? KP : MP, Ldb = TB ? NP : KP;
  std::vector<float> A(static_cast<size_t>(Lda) * (TA ? MP : KP), 0.0f);
  std::vector<float> B(static_cast<size_t>(Ldb) * (TB ? KP : NP), 0.0f);
  std::vector<float> C(static_cast<size_t>(MP) * NP, 0.0f);
  auto fill = [](std::vector<float> &D, int Ld, int Rows, int Cols, Rng &R) {
    for (int Col = 0; Col < Cols; ++Col)
      for (int Row = 0; Row < Rows; ++Row)
        D[static_cast<size_t>(Col) * Ld + Row] = R.nextUnitFloat();
  };
  Rng R(P.Options.Seed);
  fill(A, Lda, TA ? Pr.K : Pr.M, TA ? Pr.M : Pr.K, R);
  fill(B, Ldb, TB ? Pr.N : Pr.K, TB ? Pr.K : Pr.N, R);
  if (Pr.Beta != 0.0f)
    fill(C, MP, Pr.M, Pr.N, R);
  referenceSgemm(Pr.Variant, MP, NP, KP, Pr.Alpha, A.data(), Lda, B.data(),
                 Ldb, Pr.Beta, C.data(), MP);
  std::vector<uint32_t> Bits(C.size());
  std::memcpy(Bits.data(), C.data(), C.size() * sizeof(float));
  return Bits;
}

/// Runs point \p Point as a benchmark op and through runSgemmConfig, and
/// compares the two.
void expectSameAsRunner(Workload &W, size_t Point,
                        ProbeEngine *Probes = nullptr) {
  const SgemmPoint *P = W.sgemmPoint(Point);
  ASSERT_NE(P, nullptr);
  OpOutcome Op = W.run(Point);
  EXPECT_TRUE(Op.ok()) << joined(Op.Failures);
  ASSERT_TRUE(Op.Launch.has_value());

  SgemmRunOptions Options = P->Options;
  Options.Probes = Probes;
  auto R = runSgemmConfig(*P->Machine, P->Cfg, P->Problem, Options);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(Op.Launch->TotalCycles, R->Launch.TotalCycles) << P->Label;
  EXPECT_EQ(statsFields(Op.Launch->Stats), statsFields(R->Launch.Stats))
      << P->Label;
  EXPECT_EQ(Op.SmCycles, R->Launch.Stats.AggregateCycles);
  if (P->Options.Verify) {
    EXPECT_TRUE(R->Verified);
    EXPECT_TRUE(Op.C == runnerReferenceBits(*P))
        << P->Label << ": C differs from the runner's verified C";
  } else {
    EXPECT_TRUE(Op.C.empty());
  }
}

TEST(ComposedOp, FullchipVerifyMatchesRunSgemmConfig) {
  auto W = make("fullchip_verify");
  ASSERT_TRUE(W);
  // Point 0 is the GTX680 shape that is not a tile multiple.
  expectSameAsRunner(*W, 0);
}

TEST(ComposedOp, WaveSweepMatchesRunSgemmConfig) {
  auto W = make("wave_sweep");
  ASSERT_TRUE(W);
  // The two model analyses come first and supply the bounds.
  for (size_t I = 0; I < 2; ++I) {
    EXPECT_EQ(W->sgemmPoint(I), nullptr);
    OpOutcome A = W->run(I);
    EXPECT_TRUE(A.ok()) << joined(A.Failures);
    EXPECT_EQ(A.BoundPct.size(), 1u);
  }
  expectSameAsRunner(*W, 2);
  expectSameAsRunner(*W, 3); // One tile step up from point 2.
}

TEST(ComposedOp, ObservedLaunchMatchesRunSgemmConfig) {
  auto W = make("observed_launch");
  ASSERT_TRUE(W);
  std::vector<ProbeSpec> Specs;
  for (const char *Name : {"gmem_bytes", "smem_bank_conflicts",
                           "opclass_mix", "block_sched", "warp_progress"}) {
    auto S = loadProbeSpecFile(std::string("probes/") + Name + ".probe");
    ASSERT_TRUE(S.hasValue()) << S.message();
    Specs.insert(Specs.end(), S->begin(), S->end());
  }
  ProbeEngine Probes(std::move(Specs));
  expectSameAsRunner(*W, 0, &Probes);
}

} // namespace
