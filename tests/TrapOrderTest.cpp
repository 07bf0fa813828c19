//===- tests/TrapOrderTest.cpp - per-lane trap order of LD/ST -------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Known-answer tests of the memory path's trap order. When lane k of a
/// warp access is misaligned or out of bounds, the live lanes below k have
/// performed their loads and stores, lane k's trap is reported with its
/// lane and address, and lanes k and up touch nothing. Pinned for
/// LD/ST/LDS/STS at 32, 64 and 128 bits, on the executor directly (where
/// registers and shared memory are visible after the trap) and through
/// whole launches at Jobs=1 and Jobs=3 (trap report and global image).
///
//===----------------------------------------------------------------------===//

#include "sim/DecodedKernel.h"
#include "sim/Launcher.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

using namespace gpuperf;

namespace {

constexpr uint32_t Sentinel = 0xdeadbeefu;
constexpr int SharedBytes = 4096;
constexpr int GlobalBytes = 1 << 16;
/// First global address of the per-lane slots; shared slots start at 0.
constexpr uint32_t GlobalBase = 1024;
/// Address register, first data register (stores), first destination
/// register (loads).
constexpr uint8_t AddrReg = 1, DataReg = 4, DstReg = 8;

enum class Fault { Misaligned, OutOfBounds };

struct MemCase {
  Opcode Op;
  MemWidth Width;
  Fault Kind;
  int Lane; ///< The first faulting lane, k.
};

bool isShared(Opcode Op) { return Op == Opcode::LDS || Op == Opcode::STS; }
bool isLoad(Opcode Op) { return Op == Opcode::LDS || Op == Opcode::LD; }

std::string caseName(const MemCase &C) {
  return std::string(opcodeMnemonic(C.Op)) + memWidthSuffix(C.Width) +
         (C.Kind == Fault::Misaligned ? " misaligned" : " out of bounds") +
         " at lane " + std::to_string(C.Lane);
}

/// Every (opcode, width, fault) at the first, a middle and the last lane.
std::vector<MemCase> allCases() {
  std::vector<MemCase> Cases;
  for (Opcode Op : {Opcode::LDS, Opcode::STS, Opcode::LD, Opcode::ST})
    for (MemWidth W : {MemWidth::B32, MemWidth::B64, MemWidth::B128})
      for (Fault F : {Fault::Misaligned, Fault::OutOfBounds})
        for (int Lane : {0, 13, 31})
          Cases.push_back({Op, W, F, Lane});
  return Cases;
}

TrapKind expectedTrap(const MemCase &C) {
  if (C.Kind == Fault::Misaligned)
    return TrapKind::MisalignedAccess;
  if (isShared(C.Op))
    return isLoad(C.Op) ? TrapKind::SharedLoadOOB : TrapKind::SharedStoreOOB;
  return isLoad(C.Op) ? TrapKind::GlobalLoadOOB : TrapKind::GlobalStoreOOB;
}

/// The faulting lane's address: one word past its slot (two bytes for
/// 32-bit accesses), or the first aligned address past the memory.
uint32_t faultAddress(const MemCase &C, uint32_t Slot) {
  int Bytes = memWidthBytes(C.Width);
  if (C.Kind == Fault::Misaligned)
    return Slot + (Bytes == 4 ? 2 : 4);
  return isShared(C.Op) ? SharedBytes : GlobalBytes;
}

Instruction memInst(const MemCase &C) {
  switch (C.Op) {
  case Opcode::LDS:
    return makeLDS(C.Width, DstReg, AddrReg, 0);
  case Opcode::STS:
    return makeSTS(C.Width, AddrReg, 0, DataReg);
  case Opcode::LD:
    return makeLD(C.Width, DstReg, AddrReg, 0);
  default:
    return makeST(C.Width, AddrReg, 0, DataReg);
  }
}

/// Value stored by lane \p Lane's data word \p Word.
uint32_t dataValue(int Lane, int Word) {
  return 0x1000u * (Word + 1) + static_cast<uint32_t>(Lane);
}

/// Value a load finds at byte address \p Addr.
uint32_t memValue(uint32_t Addr) { return Addr * 3 + 7; }

uint32_t &reg(WarpContext &W, int Reg, int Lane) {
  return W.Regs[static_cast<size_t>(Reg) * WarpSize + Lane];
}

/// Executes \p I once for warp \p W (block 0) through the executor.
ExecEffects executeOnce(const MachineDesc &M, const Instruction &I,
                        WarpContext &W, GlobalMemory &GM,
                        SharedMemory &Shared) {
  static const std::vector<uint32_t> NoParams;
  LaunchDims Dims;
  Dims.BlockX = WarpSize;
  Executor Exec(M, GM, NoParams, Dims);
  Kernel K;
  K.Code = {I};
  K.RegsPerThread = W.numRegs();
  return Exec.execute(I, decodeKernel(M, K)[0], W, 0, Shared);
}

/// Runs one case on the executor directly and checks every lane's effect.
void checkExecutorCase(const MemCase &C, uint32_t Live) {
  SCOPED_TRACE(caseName(C));
  const int Bytes = memWidthBytes(C.Width), Words = memWidthRegs(C.Width);
  const uint32_t Base = isShared(C.Op) ? 0 : GlobalBase;
  GlobalMemory GM(GlobalBytes);
  SharedMemory Shared(SharedBytes);
  auto Load = [&](uint32_t A) {
    return isShared(C.Op) ? Shared.load32(A) : GM.load32(A);
  };
  auto Store = [&](uint32_t A, uint32_t V) {
    isShared(C.Op) ? Shared.store32(A, V) : GM.store32(A, V);
  };
  const uint32_t End = Base + WarpSize * Bytes + 16;
  for (uint32_t A = Base; A < End; A += 4)
    Store(A, isLoad(C.Op) ? memValue(A) : Sentinel);

  WarpContext W;
  W.reset(16);
  W.ActiveMask = Live;
  uint32_t Addr[WarpSize];
  for (int Lane = 0; Lane < WarpSize; ++Lane) {
    Addr[Lane] = Base + static_cast<uint32_t>(Lane * Bytes);
    if (Lane == C.Lane)
      Addr[Lane] = faultAddress(C, Addr[Lane]);
    reg(W, AddrReg, Lane) = Addr[Lane];
    for (int Word = 0; Word < Words; ++Word) {
      reg(W, DataReg + Word, Lane) = dataValue(Lane, Word);
      reg(W, DstReg + Word, Lane) = Sentinel;
    }
  }

  ExecEffects Fx = executeOnce(gtx580(), memInst(C), W, GM, Shared);
  ASSERT_EQ(Fx.Trap, expectedTrap(C));
  EXPECT_EQ(Fx.TrapLane, C.Lane);
  EXPECT_EQ(Fx.TrapAddress, Addr[C.Lane]);

  for (int Lane = 0; Lane < WarpSize; ++Lane) {
    const bool Done = Lane < C.Lane && (Live >> Lane & 1);
    for (int Word = 0; Word < Words; ++Word) {
      // Lane k's own slot (which a misaligned access would overlap) and
      // every later slot keep their initial contents.
      uint32_t Slot = Base + static_cast<uint32_t>(Lane * Bytes + 4 * Word);
      if (isLoad(C.Op))
        EXPECT_EQ(reg(W, DstReg + Word, Lane),
                  Done ? memValue(Slot) : Sentinel)
            << "lane " << Lane << " word " << Word;
      else
        EXPECT_EQ(Load(Slot), Done ? dataValue(Lane, Word) : Sentinel)
            << "lane " << Lane << " word " << Word;
    }
  }
  if (isLoad(C.Op))
    return;
  for (uint32_t A = Base + WarpSize * Bytes; A < End; A += 4)
    EXPECT_EQ(Load(A), Sentinel) << "past the slots at " << A;
}

/// A 4-block x 32-thread kernel in which thread k of block 2 faults.
/// Every other thread accesses its own slot: global threads by global
/// thread index from GlobalBase, shared threads by lane from 0.
Kernel faultingKernel(const MemCase &C) {
  const int Bytes = memWidthBytes(C.Width);
  Kernel K;
  K.Name = "fault";
  K.SharedBytes = SharedBytes;
  K.Code.push_back(makeS2R(0, SpecialReg::TID_X));
  K.Code.push_back(makeS2R(2, SpecialReg::CTAID_X));
  K.Code.push_back(makeIMADImm(2, 2, WarpSize, 0)); // R2 = global thread
  Instruction IsFaulting = makeISETP(CmpOp::EQ, 0, 2, RegRZ);
  IsFaulting.HasImm = true;
  IsFaulting.Imm = 2 * WarpSize + C.Lane;
  K.Code.push_back(IsFaulting);
  if (isShared(C.Op)) {
    K.Code.push_back(makeIMADImm(AddrReg, 0, Bytes, RegRZ));
  } else {
    K.Code.push_back(makeIMADImm(AddrReg, 2, Bytes, RegRZ));
    K.Code.push_back(
        makeIADDImm(AddrReg, AddrReg, static_cast<int32_t>(GlobalBase)));
  }
  Instruction Fault =
      C.Kind == Fault::Misaligned
          ? makeIADDImm(AddrReg, AddrReg, Bytes == 4 ? 2 : 4)
          : makeMOV32I(AddrReg, faultAddress(C, 0));
  Fault.GuardPred = 0;
  K.Code.push_back(Fault);
  // Data word w of global thread g is 0x1000 * (w + 1) + g.
  for (int Word = 0; Word < memWidthRegs(C.Width); ++Word)
    K.Code.push_back(makeIADDImm(static_cast<uint8_t>(DataReg + Word), 2,
                                 0x1000 * (Word + 1)));
  K.Code.push_back(memInst(C));
  K.Code.push_back(makeEXIT());
  K.recomputeRegUsage();
  return K;
}

} // namespace

TEST(TrapOrder, LanesBelowTheFaultingLaneCompleteOnTheExecutor) {
  for (const MemCase &C : allCases())
    checkExecutorCase(C, 0xffffffffu);
}

TEST(TrapOrder, InactiveLanesNeitherFaultNorAccess) {
  // Every other lane holds no thread: the odd lanes below k are skipped,
  // and an inactive faulting lane raises nothing.
  for (const MemCase &C : allCases())
    if (C.Lane % 2 == 0)
      checkExecutorCase(C, 0x55555555u);
  for (const MemCase &C : allCases()) {
    if (C.Lane != 13)
      continue;
    SCOPED_TRACE(caseName(C));
    GlobalMemory GM(GlobalBytes);
    SharedMemory Shared(SharedBytes);
    WarpContext W;
    W.reset(16);
    W.ActiveMask = ~(1u << C.Lane);
    const uint32_t Base = isShared(C.Op) ? 0 : GlobalBase;
    const int Bytes = memWidthBytes(C.Width);
    for (int Lane = 0; Lane < WarpSize; ++Lane)
      reg(W, AddrReg, Lane) = Base + static_cast<uint32_t>(Lane * Bytes);
    reg(W, AddrReg, C.Lane) = faultAddress(C, Base + C.Lane * Bytes);
    ExecEffects Fx = executeOnce(gtx580(), memInst(C), W, GM, Shared);
    EXPECT_EQ(Fx.Trap, TrapKind::None);
  }
}

TEST(TrapOrder, StoresToOneWordKeepTheHighestLiveLane) {
  // Lanes store in ascending order, so when every lane writes the same
  // word the highest live lane's value remains.
  for (Opcode Op : {Opcode::STS, Opcode::ST})
    for (MemWidth Width : {MemWidth::B32, MemWidth::B64, MemWidth::B128})
      for (uint32_t Live : {0xffffffffu, 0x0000ffffu, 0x00010001u}) {
        MemCase C{Op, Width, Fault::Misaligned, 0};
        SCOPED_TRACE(std::string(opcodeMnemonic(Op)) + memWidthSuffix(Width));
        const uint32_t Base = isShared(Op) ? 0 : GlobalBase;
        GlobalMemory GM(GlobalBytes);
        SharedMemory Shared(SharedBytes);
        WarpContext W;
        W.reset(16);
        W.ActiveMask = Live;
        for (int Lane = 0; Lane < WarpSize; ++Lane) {
          reg(W, AddrReg, Lane) = Base;
          for (int Word = 0; Word < memWidthRegs(Width); ++Word)
            reg(W, DataReg + Word, Lane) = dataValue(Lane, Word);
        }
        ExecEffects Fx = executeOnce(gtx580(), memInst(C), W, GM, Shared);
        ASSERT_FALSE(Fx.faulted());
        const int Last = 31 - std::countl_zero(Live);
        for (int Word = 0; Word < memWidthRegs(Width); ++Word)
          EXPECT_EQ(isShared(Op) ? Shared.load32(Base + 4 * Word)
                                 : GM.load32(Base + 4 * Word),
                    dataValue(Last, Word))
              << "word " << Word;
      }
}

TEST(TrapOrder, LaunchesReportTheFaultingLaneAtEveryJobs) {
  for (const MemCase &C : allCases()) {
    SCOPED_TRACE(caseName(C));
    Kernel K = faultingKernel(C);
    const int Bytes = memWidthBytes(C.Width), Words = memWidthRegs(C.Width);
    std::vector<uint32_t> Image;
    for (int Jobs : {1, 3}) {
      SCOPED_TRACE("Jobs=" + std::to_string(Jobs));
      GlobalMemory GM(GlobalBytes);
      for (uint32_t A = 0; A < GlobalBytes; A += 4)
        GM.store32(A, Sentinel);
      LaunchConfig Config;
      Config.Dims.GridX = 4;
      Config.Dims.BlockX = WarpSize;
      Config.Jobs = Jobs;
      TrapInfo Trap;
      auto R = launchKernel(gtx580(), K, Config, GM, &Trap);
      ASSERT_FALSE(R.hasValue());
      EXPECT_EQ(Trap.Kind, expectedTrap(C));
      EXPECT_EQ(Trap.BlockId, 2);
      EXPECT_EQ(Trap.Lane, C.Lane);
      EXPECT_EQ(Trap.Address,
                faultAddress(C, (isShared(C.Op) ? 0 : GlobalBase) +
                                    (isShared(C.Op) ? C.Lane
                                                    : 2 * WarpSize + C.Lane) *
                                        Bytes));
      if (C.Op != Opcode::ST)
        continue;
      // Blocks 0 and 1 (earlier SMs) stored everything, block 2 stored
      // its lanes below k, and block 3 never ran.
      for (int Thread = 0; Thread < 4 * WarpSize; ++Thread) {
        const bool Done = Thread < 2 * WarpSize + C.Lane;
        for (int Word = 0; Word < Words; ++Word)
          EXPECT_EQ(GM.load32(GlobalBase + Thread * Bytes + 4 * Word),
                    Done ? dataValue(Thread, Word) : Sentinel)
              << "thread " << Thread << " word " << Word;
      }
      std::vector<uint32_t> Now;
      for (uint32_t A = 0; A < GlobalBytes; A += 4)
        Now.push_back(GM.load32(A));
      if (Jobs == 1)
        Image = Now;
      else
        EXPECT_EQ(Now, Image) << "global image differs from Jobs=1";
    }
  }
}
