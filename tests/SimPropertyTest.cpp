//===- tests/SimPropertyTest.cpp - randomized differential testing --------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the functional executor: random straight-line math
/// programs are executed on the simulator and on an independent host
/// interpreter; every register and predicate of every live lane must agree
/// bit-for-bit. The programs cover guards on P0..P3 (negated or not),
/// ISETP with every compare and both operand forms, RZ as a source and a
/// destination, destinations aliasing a source, partial warps, and float
/// inputs drawn from a pool of IEEE special values. Plus a multi-round
/// barrier stress test.
///
//===----------------------------------------------------------------------===//

#include "sim/Launcher.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>

using namespace gpuperf;

namespace {

/// Registers available to the random program (R4..R19); R0-R3 hold the
/// lane id and addressing.
constexpr uint8_t FirstReg = 4;
constexpr uint8_t NumRegs = 16;
/// Words each thread writes back: its registers, then P0..P3 as 0/1.
constexpr int OutWords = NumRegs + NumPredRegs;

float asFloat(uint32_t U) {
  float F;
  std::memcpy(&F, &U, 4);
  return F;
}

uint32_t asBits(float F) {
  uint32_t U;
  std::memcpy(&U, &F, 4);
  return U;
}

/// Float bit patterns where IEEE corner cases live: signed zeros,
/// subnormals, infinities, quiet and signalling NaNs with payloads, the
/// ends of the normal range, and operands whose fused multiply-add differs
/// from the separately rounded a*b+c (see FusedTriplesDifferFromUnfused).
constexpr uint32_t SpecialFloats[] = {
    0x00000000u, 0x80000000u,              // +0, -0
    0x00000001u, 0x807fffffu, 0x00400000u, // subnormals
    0x7f800000u, 0xff800000u,              // +inf, -inf
    0x7fc00000u, 0xffc01234u, 0x7fd5a5a5u, // quiet NaNs
    0x7f800001u, 0xffa00005u,              // signalling NaNs
    0x7f7fffffu, 0x00800000u,              // FLT_MAX, FLT_MIN
    0x3f800800u, 0xbf801000u,              // 1+2^-12, -(1+2^-11)
    0x3f800001u, 0xbf800002u, 0x33800000u, // 1+2^-23, -(1+2^-22), 2^-24
};

/// A random register value: a small integer, a float in [0, 4), or a
/// special float, each a third of the time.
uint32_t randomValue(Rng &R) {
  switch (R.nextBelow(3)) {
  case 0:
    return static_cast<uint32_t>(R.nextBelow(1 << 16));
  case 1:
    return asBits(R.nextUnitFloat() * 4.0f);
  default:
    return SpecialFloats[R.nextBelow(std::size(SpecialFloats))];
  }
}

/// One lane's architectural state in the host interpreter.
struct LaneState {
  uint32_t Regs[64] = {};
  bool Preds[NumPredRegs] = {};
};

/// Host-side interpretation of one math instruction for one lane.
void interpret(const Instruction &I, LaneState &S) {
  bool Guard = I.GuardPred == PredPT || S.Preds[I.GuardPred];
  if (Guard == I.GuardNeg)
    return;
  auto R = [&](uint8_t Reg) -> uint32_t {
    return Reg == RegRZ ? 0 : S.Regs[Reg];
  };
  auto F = [&](uint8_t Reg) { return asFloat(R(Reg)); };
  // Canonical NaN, matching the executor (SASS float ops return one
  // canonical quiet NaN rather than propagating input payloads).
  auto Canon = [](float V) { return std::isnan(V) ? 0x7fffffffu : asBits(V); };
  uint32_t A = R(I.Src[0]);
  uint32_t B = I.immReplacesSrc1() ? static_cast<uint32_t>(I.Imm)
                                   : R(I.Src[1]);
  uint32_t Result = 0;
  switch (I.Op) {
  case Opcode::FFMA:
    Result = Canon(std::fma(F(I.Src[0]), F(I.Src[1]), F(I.Src[2])));
    break;
  case Opcode::FADD:
    Result = Canon(F(I.Src[0]) + F(I.Src[1]));
    break;
  case Opcode::FMUL:
    Result = Canon(F(I.Src[0]) * F(I.Src[1]));
    break;
  case Opcode::IADD:
    Result = A + B;
    break;
  case Opcode::IMUL:
    Result = A * B;
    break;
  case Opcode::IMAD:
    Result = A * B + R(I.Src[2]);
    break;
  case Opcode::ISCADD:
    Result = (A << I.iscaddShift()) + B;
    break;
  case Opcode::SHL:
    Result = A << (B & 31);
    break;
  case Opcode::SHR:
    Result = A >> (B & 31);
    break;
  case Opcode::LOP_AND:
    Result = A & B;
    break;
  case Opcode::LOP_OR:
    Result = A | B;
    break;
  case Opcode::LOP_XOR:
    Result = A ^ B;
    break;
  case Opcode::MOV:
    Result = A;
    break;
  case Opcode::MOV32I:
    Result = static_cast<uint32_t>(I.Imm);
    break;
  case Opcode::ISETP: {
    int32_t SA = static_cast<int32_t>(A), SB = static_cast<int32_t>(B);
    const bool Cmp[] = {SA < SB,  SA <= SB, SA > SB,
                        SA >= SB, SA == SB, SA != SB};
    S.Preds[I.Dst] = Cmp[static_cast<int>(I.cmpOp())];
    return;
  }
  default:
    FAIL() << "unexpected opcode in random program";
  }
  if (I.Dst != RegRZ)
    S.Regs[I.Dst] = Result;
}

/// Generates one random math or compare instruction over the sandbox
/// registers. Any register operand is RZ one time in ten; one time in
/// four the destination is one of the sources; one time in three the
/// instruction is guarded by P0..P3 or its negation.
Instruction randomMathInst(Rng &R) {
  auto Reg = [&R]() {
    return R.nextBelow(10) == 0
               ? RegRZ
               : static_cast<uint8_t>(FirstReg + R.nextBelow(NumRegs));
  };
  Instruction I;
  switch (R.nextBelow(16)) {
  case 0:
    I = makeFFMA(Reg(), Reg(), Reg(), Reg());
    break;
  case 1:
    I = makeFADD(Reg(), Reg(), Reg());
    break;
  case 2:
    I = makeFMUL(Reg(), Reg(), Reg());
    break;
  case 3:
    I = makeIADD(Reg(), Reg(), Reg());
    break;
  case 4:
    I = makeIADDImm(Reg(), Reg(),
                    static_cast<int32_t>(R.nextInRange(-4096, 4095)));
    break;
  case 5:
    I = makeIMUL(Reg(), Reg(), Reg());
    break;
  case 6:
    I = makeIMAD(Reg(), Reg(), Reg(), Reg());
    break;
  case 7:
    I = makeISCADD(Reg(), Reg(), Reg(), static_cast<int>(R.nextBelow(8)));
    break;
  case 8:
    I = makeSHLImm(Reg(), Reg(), static_cast<int32_t>(R.nextBelow(31)));
    break;
  case 9:
    I = makeSHLImm(Reg(), Reg(), static_cast<int32_t>(R.nextBelow(31)));
    I.Op = Opcode::SHR;
    break;
  case 10:
    I = makeXORImm(Reg(), Reg(), static_cast<int32_t>(R.nextBelow(1 << 20)));
    break;
  case 11:
    I = makeXORImm(Reg(), Reg(), static_cast<int32_t>(R.nextBelow(255)));
    I.Op = R.nextBelow(2) ? Opcode::LOP_AND : Opcode::LOP_OR;
    break;
  case 12:
    I = makeMOV32I(Reg(), randomValue(R));
    break;
  case 13:
  case 14: {
    auto Cmp = static_cast<CmpOp>(R.nextBelow(6));
    auto Pd = static_cast<uint8_t>(R.nextBelow(NumPredRegs));
    I = makeISETP(Cmp, Pd, Reg(), Reg());
    if (R.nextBelow(2)) {
      I.HasImm = true;
      I.Imm = static_cast<int32_t>(R.nextInRange(-8, 1 << 16));
      I.Src[1] = RegRZ;
    }
    break;
  }
  default:
    I = makeMOV(Reg(), Reg());
    break;
  }
  int Slots = opcodeInfo(I.Op).NumSrcRegs;
  if (!I.writesPredicate() && Slots > 0 && R.nextBelow(4) == 0) {
    int Slot = static_cast<int>(R.nextBelow(Slots));
    if (!(Slot == 1 && I.immReplacesSrc1()))
      I.Dst = I.Src[Slot];
  }
  if (R.nextBelow(3) == 0) {
    I.GuardPred = static_cast<uint8_t>(R.nextBelow(NumPredRegs));
    I.GuardNeg = R.nextBelow(2) != 0;
  }
  return I;
}

} // namespace

TEST(SimProperty, FusedTriplesDifferFromUnfused) {
  // The pool holds a triple whose fused multiply-add is exact where the
  // separately rounded a*b+c is not, so an executor that computed FFMA
  // unfused would disagree with the interpreter.
  volatile float A = asFloat(0x3f800800u), C = asFloat(0xbf801000u);
  volatile float Product = A * A;
  float Unfused = Product + C;
  EXPECT_NE(asBits(std::fma(A, A, C)), asBits(Unfused));
}

TEST(SimProperty, RandomProgramsMatchHostInterpreter) {
  Rng R(20260704);
  // Full warps, two full warps, and partial last warps.
  const int BlockSizes[] = {32, 64, 53, 20};
  for (int Trial = 0; Trial < 40; ++Trial) {
    const int Threads = BlockSizes[Trial % std::size(BlockSizes)];
    const MachineDesc &M = Trial % 2 ? gtx680() : gtx580();
    SCOPED_TRACE("trial " + std::to_string(Trial) + " on " + M.Name +
                 " with " + std::to_string(Threads) + " threads");
    std::vector<LaneState> Init(Threads);
    for (LaneState &S : Init)
      for (int Reg = 0; Reg < NumRegs; ++Reg)
        S.Regs[FirstReg + Reg] = randomValue(R);

    GlobalMemory GM;
    uint32_t In = GM.allocate(Threads * NumRegs * 4);
    uint32_t Out = GM.allocate(Threads * OutWords * 4);
    // Thread-major layout: [thread][word].
    for (int T = 0; T < Threads; ++T)
      for (int Reg = 0; Reg < NumRegs; ++Reg)
        GM.store32(In + 4 * (T * NumRegs + Reg), Init[T].Regs[FirstReg + Reg]);

    Kernel K;
    K.Name = "random";
    // R0 = tid, R1 = in base + tid*NumRegs*4, R2 = out base + tid*OutWords*4.
    K.Code.push_back(makeS2R(0, SpecialReg::TID_X));
    K.Code.push_back(makeIMADImm(1, 0, NumRegs * 4, RegRZ));
    K.Code.push_back(makeIADDImm(1, 1, static_cast<int32_t>(In)));
    K.Code.push_back(makeIMADImm(2, 0, OutWords * 4, RegRZ));
    K.Code.push_back(makeIADDImm(2, 2, static_cast<int32_t>(Out)));
    for (int Reg = 0; Reg < NumRegs; ++Reg)
      K.Code.push_back(makeLD(MemWidth::B32,
                              static_cast<uint8_t>(FirstReg + Reg), 1,
                              4 * Reg));

    std::vector<Instruction> Body;
    for (int I = 0; I < 100; ++I)
      Body.push_back(randomMathInst(R));
    for (const Instruction &I : Body)
      K.Code.push_back(I);

    for (int Reg = 0; Reg < NumRegs; ++Reg)
      K.Code.push_back(makeST(MemWidth::B32, 2, 4 * Reg,
                              static_cast<uint8_t>(FirstReg + Reg)));
    // P0..P3 as 0/1 words, through R3.
    for (int P = 0; P < NumPredRegs; ++P) {
      K.Code.push_back(makeMOV32I(3, 0));
      Instruction Set = makeMOV32I(3, 1);
      Set.GuardPred = static_cast<uint8_t>(P);
      K.Code.push_back(Set);
      K.Code.push_back(makeST(MemWidth::B32, 2, 4 * (NumRegs + P), 3));
    }
    K.Code.push_back(makeEXIT());
    K.recomputeRegUsage();

    LaunchConfig Config;
    Config.Dims.BlockX = Threads;
    auto Result = launchKernel(M, K, Config, GM);
    ASSERT_TRUE(Result.hasValue()) << Result.message();

    for (int T = 0; T < Threads; ++T) {
      LaneState S = Init[T];
      for (const Instruction &I : Body)
        interpret(I, S);
      for (int Reg = 0; Reg < NumRegs; ++Reg)
        ASSERT_EQ(GM.load32(Out + 4 * (T * OutWords + Reg)),
                  S.Regs[FirstReg + Reg])
            << "thread " << T << " R" << FirstReg + Reg;
      for (int P = 0; P < NumPredRegs; ++P)
        ASSERT_EQ(GM.load32(Out + 4 * (T * OutWords + NumRegs + P)),
                  S.Preds[P] ? 1u : 0u)
            << "thread " << T << " P" << P;
    }
  }
}

TEST(SimProperty, MultiRoundBarrierRotation) {
  // 8 warps rotate a token through shared memory over 16 barrier rounds;
  // the final value proves every round's release/reacquire worked.
  constexpr int Threads = 256;
  constexpr int Rounds = 16;
  GlobalMemory GM;
  uint32_t Out = GM.allocate(Threads * 4);

  Kernel K;
  K.Name = "rotate";
  // R0 = tid; R1 = tid*4 (my slot); R2 = ((tid+1)%256)*4 (next slot);
  // R3 = value.
  K.Code.push_back(makeS2R(0, SpecialReg::TID_X));
  K.Code.push_back(makeSHLImm(1, 0, 2));
  K.Code.push_back(makeIADDImm(2, 0, 1));
  K.Code.push_back(makeXORImm(3, 2, 0)); // R3 = tid+1 (copy).
  {
    Instruction And;
    And.Op = Opcode::LOP_AND;
    And.Dst = 2;
    And.Src[0] = 3;
    And.HasImm = true;
    And.Imm = Threads - 1;
    K.Code.push_back(And);
  }
  K.Code.push_back(makeSHLImm(2, 2, 2));
  K.Code.push_back(makeMOV(3, 0)); // Value starts as tid.
  for (int Round = 0; Round < Rounds; ++Round) {
    K.Code.push_back(makeSTS(MemWidth::B32, 1, 0, 3));
    K.Code.push_back(makeBAR());
    K.Code.push_back(makeLDS(MemWidth::B32, 3, 2, 0));
    K.Code.push_back(makeBAR());
  }
  K.Code.push_back(makeIADDImm(2, 1, static_cast<int32_t>(Out)));
  K.Code.push_back(makeST(MemWidth::B32, 2, 0, 3));
  K.Code.push_back(makeEXIT());
  K.recomputeRegUsage();
  K.SharedBytes = Threads * 4;

  LaunchConfig Config;
  Config.Dims.BlockX = Threads;
  auto Result = launchKernel(gtx580(), K, Config, GM);
  ASSERT_TRUE(Result.hasValue()) << Result.message();
  EXPECT_EQ(Result->Stats.BarrierWaits,
            static_cast<uint64_t>(2 * Rounds * Threads / 32));
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(GM.load32(Out + 4 * T),
              static_cast<uint32_t>((T + Rounds) % Threads))
        << "thread " << T;
}
