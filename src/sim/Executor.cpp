//===- sim/Executor.cpp - functional execution of warp instructions -------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/Executor.h"

#include "support/Format.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

using namespace gpuperf;

namespace {

float asFloat(uint32_t Bits) {
  float F;
  std::memcpy(&F, &Bits, 4);
  return F;
}

uint32_t asBits(float F) {
  uint32_t Bits;
  std::memcpy(&Bits, &F, 4);
  return Bits;
}

/// Single-precision results are canonicalized as on real GPUs: SASS
/// float ops return one canonical quiet NaN rather than propagating
/// input payloads. Host compilers leave NaN payload selection to the
/// CPU's (operand-order-dependent) rules, so canonicalizing is also
/// what keeps simulation results bit-reproducible across builds.
uint32_t floatResultBits(float F) {
  return std::isnan(F) ? 0x7fffffffu : asBits(F);
}

/// Bounds of the LD/ST path's stack buffers. Accesses are at most 128
/// bits wide and banks at least 4 bytes, so one lane touches at most 4
/// consecutive bank words -- at most one word in any bank -- and at most
/// two 128-byte segments.
constexpr int MaxAccessBytes = 16;
constexpr int MaxSharedBanks = 32;
constexpr int MaxSegments = 2 * WarpSize;

/// Computes the shared-memory serialization multiplier for a warp access
/// to the \p NumAddrs byte addresses in \p Addrs.
///
/// Banks are NumBanks words of BankBytes; lanes touching distinct words in
/// the same bank serialize, while lanes reading the same word broadcast.
/// The multiplier is normalized by the *inherent* degree of a perfectly
/// sequential access of this width (e.g. LDS.64 on Fermi inherently takes
/// two passes, which the base pipe cost already covers).
double sharedSerialization(const int64_t *Addrs, int NumAddrs, int Width,
                           int NumBanks, int BankBytes) {
  assert(Width <= MaxAccessBytes && BankBytes >= 4 &&
         NumBanks >= MaxAccessBytes / 4 && NumBanks <= MaxSharedBanks &&
         "stack buffer bounds");
  if (NumAddrs == 0)
    return 1.0;
  // Distinct words per bank; the worst bank's count is the degree.
  int64_t Words[MaxSharedBanks][WarpSize];
  int Count[MaxSharedBanks] = {};
  int Degree = 0;
  for (int A = 0; A < NumAddrs; ++A) {
    for (int Offset = 0; Offset < Width; Offset += BankBytes) {
      int64_t Word = (Addrs[A] + Offset) / BankBytes;
      int Bank = static_cast<int>(Word % NumBanks);
      int64_t *List = Words[Bank];
      if (std::find(List, List + Count[Bank], Word) != List + Count[Bank])
        continue;
      List[Count[Bank]++] = Word;
      Degree = std::max(Degree, Count[Bank]);
    }
  }
  int Ideal = std::max(1, NumAddrs * Width / BankBytes / NumBanks);
  return std::max(1.0, static_cast<double>(Degree) / Ideal);
}

/// Number of distinct 128-byte segments the \p NumAddrs accesses of
/// \p Width bytes at \p Addrs touch: the coalesced transaction count.
int globalSegments(const int64_t *Addrs, int NumAddrs, int Width) {
  assert(Width <= MaxAccessBytes && "stack buffer bound");
  int64_t Segments[MaxSegments];
  int NumSegments = 0;
  for (int A = 0; A < NumAddrs; ++A) {
    int64_t First = Addrs[A] / 128;
    int64_t Last = (Addrs[A] + Width - 1) / 128;
    for (int64_t S = First; S <= Last; ++S)
      if (std::find(Segments, Segments + NumSegments, S) ==
          Segments + NumSegments)
        Segments[NumSegments++] = S;
  }
  return NumSegments;
}

} // namespace

ExecEffects Executor::execute(const Instruction &I, WarpContext &W,
                              int BlockIdxLinear,
                              SharedMemory &Shared) const {
  ExecEffects Fx;
  const int CtaX = BlockIdxLinear % Dims.GridX;
  const int CtaY = BlockIdxLinear / Dims.GridX;
  // Lanes that hold a thread and pass the guard predicate.
  const uint32_t Lanes = W.ActiveMask & W.guardMask(I);

  auto LinearTid = [&](int Lane) { return W.WarpInBlock * WarpSize + Lane; };

  switch (I.Op) {
  case Opcode::NOP:
    return Fx;
  case Opcode::EXIT:
    Fx.IsExit = true;
    return Fx;
  case Opcode::BAR:
    Fx.IsBarrier = true;
    return Fx;
  case Opcode::BRA: {
    // Require warp-uniform branching (the paper's kernels are uniform;
    // per-lane work is predicated instead).
    if (Lanes != 0 && Lanes != W.ActiveMask) {
      // Report the first active lane that disagrees with the lowest one.
      bool LowestTaken = Lanes & (W.ActiveMask & -W.ActiveMask);
      uint32_t Disagree = LowestTaken ? W.ActiveMask & ~Lanes : Lanes;
      Fx.Trap = TrapKind::DivergentBranch;
      Fx.TrapLane = std::countr_zero(Disagree);
      Fx.TrapDetail = "divergent branch is not supported by the simulator";
      return Fx;
    }
    Fx.BranchTaken = Lanes != 0;
    return Fx;
  }
  default:
    break;
  }

  // Per-lane execution for everything else.
  const OpClass Class = opcodeInfo(I.Op).Class;
  if (Class == OpClass::SharedMem || Class == OpClass::GlobalMem) {
    int64_t Addrs[WarpSize];
    int NumAddrs = 0;
    const int Width = memWidthBytes(I.Width);
    const int Words = memWidthRegs(I.Width);
    const bool IsLoad = I.Op == Opcode::LDS || I.Op == Opcode::LD;
    const bool IsShared = Class == OpClass::SharedMem;
    for (uint32_t Live = Lanes; Live; Live &= Live - 1) {
      const int Lane = std::countr_zero(Live);
      int64_t Addr =
          static_cast<int64_t>(W.readReg(I.Src[0], Lane)) + I.Imm;
      if (Addr % Width != 0) {
        Fx.Trap = TrapKind::MisalignedAccess;
        Fx.TrapAddress = static_cast<uint64_t>(Addr);
        Fx.TrapLane = Lane;
        Fx.TrapDetail = formatString("%d-byte access", Width);
        return Fx;
      }
      bool Ok = IsShared ? Shared.inBounds(Addr, Width)
                         : Addr >= 0 && Global.inBounds(
                                            static_cast<uint64_t>(Addr),
                                            Width);
      if (!Ok) {
        Fx.Trap = IsShared ? (IsLoad ? TrapKind::SharedLoadOOB
                                     : TrapKind::SharedStoreOOB)
                           : (IsLoad ? TrapKind::GlobalLoadOOB
                                     : TrapKind::GlobalStoreOOB);
        Fx.TrapAddress = static_cast<uint64_t>(Addr);
        Fx.TrapLane = Lane;
        Fx.TrapDetail = formatString(
            "%s of %d bytes against a %lld-byte %s allocation",
            IsLoad ? "load" : "store", Width,
            IsShared ? static_cast<long long>(Shared.size())
                     : static_cast<long long>(Global.size()),
            IsShared ? "shared" : "global");
        return Fx;
      }
      Addrs[NumAddrs++] = Addr;
      for (int Word = 0; Word < Words; ++Word) {
        int64_t A = Addr + 4 * Word;
        if (IsLoad) {
          uint32_t V = IsShared ? Shared.load32(A)
                                : Global.load32(static_cast<uint32_t>(A));
          W.writeReg(static_cast<uint8_t>(I.Dst + Word), Lane, V);
        } else {
          uint32_t V =
              W.readReg(static_cast<uint8_t>(I.Src[1] + Word), Lane);
          if (IsShared)
            Shared.store32(A, V);
          else
            Global.store32(static_cast<uint32_t>(A), V);
        }
      }
    }
    if (IsShared) {
      Fx.SharedSerialization =
          sharedSerialization(Addrs, NumAddrs, Width, M.SharedMemBanks,
                              M.SharedMemBankBytes);
    } else {
      Fx.GlobalTransactions = globalSegments(Addrs, NumAddrs, Width);
      Fx.GlobalBytes = Fx.GlobalTransactions * 128;
    }
    return Fx;
  }

  for (uint32_t Live = Lanes; Live; Live &= Live - 1) {
    const int Lane = std::countr_zero(Live);
    uint32_t A = W.readReg(I.Src[0], Lane);
    uint32_t B = I.immReplacesSrc1() ? static_cast<uint32_t>(I.Imm)
                                     : W.readReg(I.Src[1], Lane);
    uint32_t C = W.readReg(I.Src[2], Lane);
    uint32_t Result = 0;
    switch (I.Op) {
    case Opcode::FFMA:
      Result = floatResultBits(std::fma(asFloat(A), asFloat(B), asFloat(C)));
      break;
    case Opcode::FADD:
      Result = floatResultBits(asFloat(A) + asFloat(B));
      break;
    case Opcode::FMUL:
      Result = floatResultBits(asFloat(A) * asFloat(B));
      break;
    case Opcode::IADD:
      Result = A + B;
      break;
    case Opcode::IMUL:
      Result = A * B;
      break;
    case Opcode::IMAD:
      Result = A * B + C;
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
    case Opcode::S2R: {
      int Tid = LinearTid(Lane);
      switch (I.specialReg()) {
      case SpecialReg::TID_X:
        Result = static_cast<uint32_t>(Tid % Dims.BlockX);
        break;
      case SpecialReg::TID_Y:
        Result = static_cast<uint32_t>(Tid / Dims.BlockX);
        break;
      case SpecialReg::CTAID_X:
        Result = static_cast<uint32_t>(CtaX);
        break;
      case SpecialReg::CTAID_Y:
        Result = static_cast<uint32_t>(CtaY);
        break;
      case SpecialReg::NTID_X:
        Result = static_cast<uint32_t>(Dims.BlockX);
        break;
      case SpecialReg::NTID_Y:
        Result = static_cast<uint32_t>(Dims.BlockY);
        break;
      case SpecialReg::NCTAID_X:
        Result = static_cast<uint32_t>(Dims.GridX);
        break;
      case SpecialReg::NCTAID_Y:
        Result = static_cast<uint32_t>(Dims.GridY);
        break;
      }
      break;
    }
    case Opcode::LDC: {
      size_t Index = static_cast<uint32_t>(I.Imm) / 4;
      if (Index >= Params.size()) {
        Fx.Trap = TrapKind::InvalidConstOffset;
        Fx.TrapAddress = static_cast<uint32_t>(I.Imm);
        Fx.TrapLane = Lane;
        Fx.TrapDetail = formatString(
            "LDC offset 0x%x beyond the %zu parameter words",
            static_cast<uint32_t>(I.Imm), Params.size());
        return Fx;
      }
      Result = Params[Index];
      break;
    }
    case Opcode::ISETP: {
      int32_t SA = static_cast<int32_t>(A);
      int32_t SB = static_cast<int32_t>(B);
      bool P = false;
      switch (I.cmpOp()) {
      case CmpOp::LT:
        P = SA < SB;
        break;
      case CmpOp::LE:
        P = SA <= SB;
        break;
      case CmpOp::GT:
        P = SA > SB;
        break;
      case CmpOp::GE:
        P = SA >= SB;
        break;
      case CmpOp::EQ:
        P = SA == SB;
        break;
      case CmpOp::NE:
        P = SA != SB;
        break;
      }
      W.writePred(I.Dst, Lane, P);
      continue;
    }
    default:
      Fx.Trap = TrapKind::UnimplementedOpcode;
      Fx.TrapLane = Lane;
      Fx.TrapDetail = formatString(
          "opcode %s decodes but has no executable semantics",
          std::string(opcodeMnemonic(I.Op)).c_str());
      return Fx;
    }
    W.writeReg(I.Dst, Lane, Result);
  }
  return Fx;
}
