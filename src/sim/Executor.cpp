//===- sim/Executor.cpp - functional execution of warp instructions -------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/Executor.h"

#include "support/Format.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

using namespace gpuperf;

// FFMA's row loop is compiled twice on x86-64: once for hardware FMA and
// once for the baseline ISA, picked at load time. IEEE fma is correctly
// rounded, so both clones are bit-identical to libm's fmaf. ThreadSanitizer
// builds keep the baseline loop only: the sanitizer instruments the
// clones' load-time resolver, which then runs before its runtime exists.
#if defined(__SANITIZE_THREAD__)
#define GPUPERF_NO_LOAD_TIME_DISPATCH
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GPUPERF_NO_LOAD_TIME_DISPATCH
#endif
#endif
#if defined(__x86_64__) && defined(__has_attribute) &&                      \
    !defined(GPUPERF_NO_LOAD_TIME_DISPATCH)
#if __has_attribute(target_clones)
#define GPUPERF_FMA_CLONES __attribute__((target_clones("fma", "default")))
#endif
#endif
#ifndef GPUPERF_FMA_CLONES
#define GPUPERF_FMA_CLONES
#endif

namespace {

/// One row: a register's (or a result's) 32 lane words.
using Row = uint32_t[WarpSize];

/// LaneBit[L] is the lane-mask bit of lane L.
constexpr auto LaneBit = [] {
  std::array<uint32_t, WarpSize> Bits{};
  for (int L = 0; L < WarpSize; ++L)
    Bits[L] = 1u << L;
  return Bits;
}();

/// All ones when \p B holds, else zero: a branch-free select mask.
uint32_t allOnesIf(bool B) { return 0u - static_cast<uint32_t>(B); }

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

/// Out[L] = F(A[L], B[L], C[L]) for every lane.
template <typename Fn>
void mapRow(uint32_t *__restrict Out, const uint32_t *A, const uint32_t *B,
            const uint32_t *C, Fn F) {
  for (int L = 0; L < WarpSize; ++L)
    Out[L] = F(A[L], B[L], C[L]);
}

GPUPERF_FMA_CLONES
void ffmaRow(uint32_t *__restrict Out, const uint32_t *A, const uint32_t *B,
             const uint32_t *C) {
  for (int L = 0; L < WarpSize; ++L)
    Out[L] =
        floatResultBits(std::fma(asFloat(A[L]), asFloat(B[L]), asFloat(C[L])));
}

/// Bit L of the result is Cmp(A[L], B[L]) on signed lane values.
template <typename Cmp>
uint32_t compareRow(const uint32_t *A, const uint32_t *B, Cmp C) {
  uint32_t P = 0;
  for (int L = 0; L < WarpSize; ++L)
    P |= LaneBit[L] &
         allOnesIf(C(static_cast<int32_t>(A[L]), static_cast<int32_t>(B[L])));
  return P;
}

/// Writes the lanes of \p Out set in \p Lanes to \p Dst; the other lanes
/// keep their value. A null \p Dst (RZ, out of file) drops the write.
void writeRow(uint32_t *__restrict Dst, const uint32_t *__restrict Out,
              uint32_t Lanes) {
  if (!Dst)
    return;
  for (int L = 0; L < WarpSize; ++L) {
    const uint32_t Live = allOnesIf((Lanes & LaneBit[L]) != 0);
    Dst[L] = (Out[L] & Live) | (Dst[L] & ~Live);
  }
}

void fillRow(uint32_t *Out, uint32_t V) { std::fill(Out, Out + WarpSize, V); }

/// Accesses are at most 128 bits wide: four register words.
constexpr int MaxAccessWords = 4;
constexpr int MaxSharedBanks = 32;

/// Computes the shared-memory serialization multiplier for a warp access
/// of 2^WidthLog2 bytes at the byte addresses Addrs[L] of the lanes in
/// \p Lanes. Every address is in bounds and aligned to the width.
///
/// Banks are 2^BanksLog2 words of 2^BankShift bytes; lanes touching
/// distinct words in the same bank serialize, while lanes reading the same
/// word broadcast. The multiplier is normalized by the *inherent* degree
/// of a perfectly sequential access of this width (e.g. LDS.64 on Fermi
/// inherently takes two passes, which the base pipe cost already covers).
double sharedSerialization(const uint32_t *Addrs, uint32_t Lanes,
                           int WidthLog2, int BankShift, int BanksLog2) {
  assert(BanksLog2 <= 5 && (1 << BanksLog2) >= MaxAccessWords &&
         "bank counters bound");
  // Aligned accesses of one width touch the same words when they share the
  // unit max(Width, bank word) they fall in, and disjoint words otherwise,
  // so the distinct words are the distinct units' words: each unit covers
  // max(1, Width / bank word) consecutive words, which land in as many
  // distinct banks. Units are deduplicated in a small open-addressing set.
  const int UnitShift = std::max(WidthLog2, BankShift);
  const int WordsPerUnit = 1 << std::max(0, WidthLog2 - BankShift);
  const int BankMask = (1 << BanksLog2) - 1;
  constexpr int SetSlots = 2 * WarpSize;
  constexpr uint32_t Empty = ~0u; // Units are below 2^30.
  uint32_t Seen[SetSlots];
  std::fill(Seen, Seen + SetSlots, Empty);
  int Count[MaxSharedBanks] = {};
  int Degree = 0;
  uint32_t Prev = Empty;
  for (uint32_t Live = Lanes; Live; Live &= Live - 1) {
    const uint32_t Unit = Addrs[std::countr_zero(Live)] >> UnitShift;
    // A lane repeating the previous live lane's unit (a broadcast) adds
    // nothing and skips the set.
    if (Unit == Prev)
      continue;
    Prev = Unit;
    // Fibonacci hashing: the top 6 bits of the product pick the slot.
    uint32_t Slot = (Unit * 0x9e3779b9u) >> 26;
    while (Seen[Slot] != Empty && Seen[Slot] != Unit)
      Slot = (Slot + 1) & (SetSlots - 1);
    if (Seen[Slot] == Unit)
      continue;
    Seen[Slot] = Unit;
    const uint32_t FirstWord = Unit << (UnitShift - BankShift);
    for (int Word = 0; Word < WordsPerUnit; ++Word)
      Degree = std::max(Degree, ++Count[(FirstWord + Word) & BankMask]);
  }
  const int Ideal = std::max(
      1, std::popcount(Lanes) << WidthLog2 >> (BankShift + BanksLog2));
  return std::max(1.0, static_cast<double>(Degree) / Ideal);
}

/// Number of distinct 128-byte segments the accesses at Addrs[L] of the
/// lanes in \p Lanes touch: the coalesced transaction count. Accesses are
/// aligned and at most 16 bytes, so none crosses a segment.
int globalSegments(const uint32_t *Addrs, uint32_t Lanes) {
  uint32_t Segments[WarpSize];
  int NumSegments = 0;
  for (uint32_t Live = Lanes; Live; Live &= Live - 1) {
    const uint32_t S = Addrs[std::countr_zero(Live)] >> 7;
    if (std::find(Segments, Segments + NumSegments, S) ==
        Segments + NumSegments)
      Segments[NumSegments++] = S;
  }
  return NumSegments;
}

/// Loads \p Words words per lane at Addrs[L] into rows Dst[0..Words) for
/// the lanes in \p Lanes (non-zero), with Load(A, V) reading the Words
/// words at A into V. The other lanes read the first live lane's
/// (in-bounds) address and keep their value, so the loop has no branch.
template <int Words, typename LoadFn>
void loadLanes(uint32_t *const *Dst, const uint32_t *Addrs, uint32_t Lanes,
               LoadFn Load) {
  const uint32_t Safe = Addrs[std::countr_zero(Lanes)];
  for (int L = 0; L < WarpSize; ++L) {
    const uint32_t Live = allOnesIf((Lanes & LaneBit[L]) != 0);
    uint32_t V[Words];
    Load((Addrs[L] & Live) | (Safe & ~Live), V);
    for (int Word = 0; Word < Words; ++Word)
      Dst[Word][L] = (V[Word] & Live) | (Dst[Word][L] & ~Live);
  }
}

/// Stores rows Src[0..Words) at Addrs[L], with Store(A, V) writing the
/// Words words V at A, for the lanes in \p Lanes in ascending order (the
/// last lane to write a word wins).
template <int Words, typename StoreFn>
void storeLanes(const uint32_t *const *Src, const uint32_t *Addrs,
                uint32_t Lanes, StoreFn Store) {
  for (uint32_t Live = Lanes; Live; Live &= Live - 1) {
    const int L = std::countr_zero(Live);
    uint32_t V[Words];
    for (int Word = 0; Word < Words; ++Word)
      V[Word] = Src[Word][L];
    Store(Addrs[L], V);
  }
}

/// Calls F with the access's word count (1, 2 or 4) as a compile-time
/// constant.
template <typename Fn> void withWordCount(int Words, Fn F) {
  switch (Words) {
  case 1:
    return F(std::integral_constant<int, 1>());
  case 2:
    return F(std::integral_constant<int, 2>());
  default:
    assert(Words == MaxAccessWords && "access is 1, 2 or 4 words");
    return F(std::integral_constant<int, MaxAccessWords>());
  }
}

TrapKind outOfBoundsTrap(bool IsShared, bool IsLoad) {
  if (IsShared)
    return IsLoad ? TrapKind::SharedLoadOOB : TrapKind::SharedStoreOOB;
  return IsLoad ? TrapKind::GlobalLoadOOB : TrapKind::GlobalStoreOOB;
}

} // namespace

Executor::Executor(const MachineDesc &M, GlobalMemoryView Global,
                   const std::vector<uint32_t> &Params, const LaunchDims &Dims)
    : Global(Global), Params(Params), Dims(Dims),
      BankShift(std::countr_zero(static_cast<unsigned>(M.SharedMemBankBytes))),
      BanksLog2(std::countr_zero(static_cast<unsigned>(M.SharedMemBanks))) {
  assert(std::has_single_bit(static_cast<unsigned>(M.SharedMemBankBytes)) &&
         std::has_single_bit(static_cast<unsigned>(M.SharedMemBanks)) &&
         "shared-memory bank geometry must be powers of two");
}

ExecEffects Executor::execute(const Instruction &I, const DecodedInst &D,
                              WarpContext &W, int BlockIdxLinear,
                              SharedMemory &Shared) const {
  ExecEffects Fx;
  // Lanes that hold a thread and pass the guard predicate.
  const uint32_t Lanes = W.ActiveMask & W.guardMask(I);

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
      return Fx;
    }
    Fx.BranchTaken = Lanes != 0;
    return Fx;
  }
  default:
    break;
  }
  // With no live lane an instruction neither writes nor traps.
  if (Lanes == 0)
    return Fx;
  if (D.Class == OpClass::SharedMem || D.Class == OpClass::GlobalMem)
    return executeMemory(I, D, W, Lanes, Shared);

  const uint32_t *A = W.row(I.Src[0]);
  Row ImmRow;
  const uint32_t *B = W.row(I.Src[1]);
  if (D.ImmSrc1) {
    fillRow(ImmRow, static_cast<uint32_t>(I.Imm));
    B = ImmRow;
  }
  const uint32_t *C = W.row(I.Src[2]);
  Row Out;
  switch (I.Op) {
  case Opcode::FFMA:
    ffmaRow(Out, A, B, C);
    break;
  case Opcode::FADD:
    mapRow(Out, A, B, C, [](uint32_t X, uint32_t Y, uint32_t) {
      return floatResultBits(asFloat(X) + asFloat(Y));
    });
    break;
  case Opcode::FMUL:
    mapRow(Out, A, B, C, [](uint32_t X, uint32_t Y, uint32_t) {
      return floatResultBits(asFloat(X) * asFloat(Y));
    });
    break;
  case Opcode::IADD:
    mapRow(Out, A, B, C,
           [](uint32_t X, uint32_t Y, uint32_t) { return X + Y; });
    break;
  case Opcode::IMUL:
    mapRow(Out, A, B, C,
           [](uint32_t X, uint32_t Y, uint32_t) { return X * Y; });
    break;
  case Opcode::IMAD:
    mapRow(Out, A, B, C,
           [](uint32_t X, uint32_t Y, uint32_t Z) { return X * Y + Z; });
    break;
  case Opcode::ISCADD: {
    const int Shift = I.iscaddShift();
    mapRow(Out, A, B, C, [Shift](uint32_t X, uint32_t Y, uint32_t) {
      return (X << Shift) + Y;
    });
    break;
  }
  case Opcode::SHL:
    mapRow(Out, A, B, C,
           [](uint32_t X, uint32_t Y, uint32_t) { return X << (Y & 31); });
    break;
  case Opcode::SHR:
    mapRow(Out, A, B, C,
           [](uint32_t X, uint32_t Y, uint32_t) { return X >> (Y & 31); });
    break;
  case Opcode::LOP_AND:
    mapRow(Out, A, B, C,
           [](uint32_t X, uint32_t Y, uint32_t) { return X & Y; });
    break;
  case Opcode::LOP_OR:
    mapRow(Out, A, B, C,
           [](uint32_t X, uint32_t Y, uint32_t) { return X | Y; });
    break;
  case Opcode::LOP_XOR:
    mapRow(Out, A, B, C,
           [](uint32_t X, uint32_t Y, uint32_t) { return X ^ Y; });
    break;
  case Opcode::MOV:
    std::copy(A, A + WarpSize, Out);
    break;
  case Opcode::MOV32I:
    fillRow(Out, static_cast<uint32_t>(I.Imm));
    break;
  case Opcode::S2R: {
    const SpecialReg SR = I.specialReg();
    if (SR == SpecialReg::TID_X || SR == SpecialReg::TID_Y) {
      // Walk the lanes' (x, y) thread coordinates from the warp's first
      // thread, so no lane divides.
      const int First = W.WarpInBlock * WarpSize;
      int X = First % Dims.BlockX, Y = First / Dims.BlockX;
      for (int L = 0; L < WarpSize; ++L) {
        Out[L] = static_cast<uint32_t>(SR == SpecialReg::TID_X ? X : Y);
        if (++X == Dims.BlockX) {
          X = 0;
          ++Y;
        }
      }
      break;
    }
    int V = 0;
    switch (SR) {
    case SpecialReg::CTAID_X:
      V = BlockIdxLinear % Dims.GridX;
      break;
    case SpecialReg::CTAID_Y:
      V = BlockIdxLinear / Dims.GridX;
      break;
    case SpecialReg::NTID_X:
      V = Dims.BlockX;
      break;
    case SpecialReg::NTID_Y:
      V = Dims.BlockY;
      break;
    case SpecialReg::NCTAID_X:
      V = Dims.GridX;
      break;
    case SpecialReg::NCTAID_Y:
      V = Dims.GridY;
      break;
    default:
      break;
    }
    fillRow(Out, static_cast<uint32_t>(V));
    break;
  }
  case Opcode::LDC: {
    const size_t Index = static_cast<uint32_t>(I.Imm) / 4;
    if (Index >= Params.size()) {
      Fx.Trap = TrapKind::InvalidConstOffset;
      Fx.TrapAddress = static_cast<uint32_t>(I.Imm);
      Fx.TrapLane = std::countr_zero(Lanes);
      return Fx;
    }
    fillRow(Out, Params[Index]);
    break;
  }
  case Opcode::ISETP: {
    uint32_t P = 0;
    switch (I.cmpOp()) {
    case CmpOp::LT:
      P = compareRow(A, B, [](int32_t X, int32_t Y) { return X < Y; });
      break;
    case CmpOp::LE:
      P = compareRow(A, B, [](int32_t X, int32_t Y) { return X <= Y; });
      break;
    case CmpOp::GT:
      P = compareRow(A, B, [](int32_t X, int32_t Y) { return X > Y; });
      break;
    case CmpOp::GE:
      P = compareRow(A, B, [](int32_t X, int32_t Y) { return X >= Y; });
      break;
    case CmpOp::EQ:
      P = compareRow(A, B, [](int32_t X, int32_t Y) { return X == Y; });
      break;
    case CmpOp::NE:
      P = compareRow(A, B, [](int32_t X, int32_t Y) { return X != Y; });
      break;
    }
    // P4..P6 are not architectural: decodeKernel marks them invalid, so
    // the scheduler traps first; a missed path drops the write.
    assert(I.Dst < NumPredRegs && "write to invalid predicate");
    if (I.Dst < NumPredRegs)
      W.Preds[I.Dst] = (W.Preds[I.Dst] & ~Lanes) | (P & Lanes);
    return Fx;
  }
  default:
    Fx.Trap = TrapKind::UnimplementedOpcode;
    Fx.TrapLane = std::countr_zero(Lanes);
    return Fx;
  }
  writeRow(W.writableRow(I.Dst), Out, Lanes);
  return Fx;
}

ExecEffects Executor::executeMemory(const Instruction &I, const DecodedInst &D,
                                    WarpContext &W, uint32_t Lanes,
                                    SharedMemory &Shared) const {
  ExecEffects Fx;
  const bool IsShared = D.Class == OpClass::SharedMem;
  const bool IsLoad = I.Op == Opcode::LDS || I.Op == Opcode::LD;
  const int Width = D.WidthBytes;

  // Lane addresses as a row. An in-bounds access starts in
  // [0, Size - Width] and Size <= 2^32, so in-bounds addresses are exact in
  // 32 bits; a faulting lane's address is rebuilt in 64 bits for the trap.
  const uint32_t *Base = W.row(I.Src[0]);
  Row Addr;
  for (int L = 0; L < WarpSize; ++L)
    Addr[L] = Base[L] + static_cast<uint32_t>(I.Imm);

  // The live lanes that are misaligned or out of bounds. In bounds means
  // Base in [Lo, Hi], one unsigned range check per lane.
  const int64_t Size = IsShared ? static_cast<int64_t>(Shared.size())
                                : static_cast<int64_t>(Global.size());
  const int64_t Lo = std::max<int64_t>(0, -static_cast<int64_t>(I.Imm));
  const int64_t Hi = std::min<int64_t>(UINT32_MAX, Size - Width - I.Imm);
  uint32_t Faults = Lanes;
  if (Lo <= Hi) {
    const uint32_t From = static_cast<uint32_t>(Lo);
    const uint32_t Span = static_cast<uint32_t>(Hi - Lo);
    const uint32_t AlignMask = static_cast<uint32_t>(Width - 1);
    uint32_t Bad = 0;
    for (int L = 0; L < WarpSize; ++L)
      Bad |= LaneBit[L] & allOnesIf(((Addr[L] & AlignMask) != 0) |
                                    (Base[L] - From > Span));
    Faults &= Bad;
  }
  if (Faults) {
    const int Lane = std::countr_zero(Faults);
    Fx.Trap = Addr[Lane] & (Width - 1) ? TrapKind::MisalignedAccess
                                       : outOfBoundsTrap(IsShared, IsLoad);
    Fx.TrapAddress = static_cast<uint64_t>(static_cast<int64_t>(Base[Lane]) +
                                           I.Imm);
    Fx.TrapLane = Lane;
  }
  // The live lanes below the first faulting lane perform their accesses.
  const uint32_t Done = Faults ? Lanes & ((Faults & -Faults) - 1) : Lanes;

  withWordCount(Width >> 2, [&](auto WordCount) {
    constexpr int Words = WordCount;
    if (IsLoad && Done) {
      Row Sink = {};
      uint32_t *Dst[Words];
      for (int Word = 0; Word < Words; ++Word) {
        Dst[Word] = W.writableRow(static_cast<uint8_t>(I.Dst + Word));
        if (!Dst[Word])
          Dst[Word] = Sink;
      }
      if (IsShared)
        loadLanes<Words>(Dst, Addr, Done,
                         [Bytes = Shared.data()](uint32_t A, uint32_t *V) {
                           std::memcpy(V, Bytes + A, 4 * Words);
                         });
      else
        loadLanes<Words>(Dst, Addr, Done, [&](uint32_t A, uint32_t *V) {
          for (int Word = 0; Word < Words; ++Word)
            V[Word] = Global.load32(A + 4 * Word);
        });
    } else if (!IsLoad) {
      const uint32_t *Src[Words];
      for (int Word = 0; Word < Words; ++Word)
        Src[Word] = W.row(static_cast<uint8_t>(I.Src[1] + Word));
      if (IsShared)
        storeLanes<Words>(
            Src, Addr, Done,
            [Bytes = Shared.data()](uint32_t A, const uint32_t *V) {
              std::memcpy(Bytes + A, V, 4 * Words);
            });
      else
        storeLanes<Words>(Src, Addr, Done, [&](uint32_t A, const uint32_t *V) {
          for (int Word = 0; Word < Words; ++Word)
            Global.store32(A + 4 * Word, V[Word]);
        });
    }
  });

  if (Faults)
    return Fx;
  if (IsShared) {
    Fx.SharedSerialization =
        sharedSerialization(Addr, Lanes, D.WidthLog2, BankShift, BanksLog2);
  } else {
    Fx.GlobalTransactions = globalSegments(Addr, Lanes);
    Fx.GlobalBytes = Fx.GlobalTransactions * 128;
  }
  return Fx;
}

std::string Executor::trapDetail(const Instruction &I, const ExecEffects &Fx,
                                 const SharedMemory &Shared) const {
  const int Width = memWidthBytes(I.Width);
  switch (Fx.Trap) {
  case TrapKind::MisalignedAccess:
    return formatString("%d-byte access", Width);
  case TrapKind::SharedLoadOOB:
  case TrapKind::SharedStoreOOB:
  case TrapKind::GlobalLoadOOB:
  case TrapKind::GlobalStoreOOB: {
    const bool IsShared = Fx.Trap == TrapKind::SharedLoadOOB ||
                          Fx.Trap == TrapKind::SharedStoreOOB;
    const bool IsLoad = Fx.Trap == TrapKind::SharedLoadOOB ||
                        Fx.Trap == TrapKind::GlobalLoadOOB;
    return formatString(
        "%s of %d bytes against a %lld-byte %s allocation",
        IsLoad ? "load" : "store", Width,
        IsShared ? static_cast<long long>(Shared.size())
                 : static_cast<long long>(Global.size()),
        IsShared ? "shared" : "global");
  }
  case TrapKind::InvalidConstOffset:
    return formatString("LDC offset 0x%x beyond the %zu parameter words",
                        static_cast<uint32_t>(I.Imm), Params.size());
  case TrapKind::DivergentBranch:
    return "divergent branch is not supported by the simulator";
  case TrapKind::UnimplementedOpcode:
    return formatString("opcode %s decodes but has no executable semantics",
                        std::string(opcodeMnemonic(I.Op)).c_str());
  default:
    return "";
  }
}
