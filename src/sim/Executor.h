//===- sim/Executor.h - functional execution of warp instructions -*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one instruction functionally for all 32 lanes of a warp, and
/// reports the side information the timing model needs: shared-memory bank
/// serialization, global-memory transaction counts, and control effects.
/// Execution works on register rows (a register's 32 lane words, see
/// WarpContext::row): each opcode is one loop over whole rows that applies
/// the guard/active lane mask as a select.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_EXECUTOR_H
#define GPUPERF_SIM_EXECUTOR_H

#include "arch/MachineDesc.h"
#include "isa/Module.h"
#include "sim/DecodedKernel.h"
#include "sim/Memory.h"
#include "sim/Trap.h"
#include "sim/Warp.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace gpuperf {

/// Grid/block geometry of a launch (2D is all the paper's kernels need).
struct LaunchDims {
  int GridX = 1, GridY = 1;
  int BlockX = 1, BlockY = 1;

  int threadsPerBlock() const { return BlockX * BlockY; }
  int numBlocks() const { return GridX * GridY; }
  int warpsPerBlock() const {
    return (threadsPerBlock() + WarpSize - 1) / WarpSize;
  }
};

/// Timing-relevant side effects of executing one warp instruction.
struct ExecEffects {
  bool BranchTaken = false;
  bool IsBarrier = false;
  bool IsExit = false;
  /// Shared access serialization multiplier (>= 1); 1 for non-shared ops.
  double SharedSerialization = 1.0;
  /// Number of 128-byte global transactions generated (0 for non-global).
  int GlobalTransactions = 0;
  /// Total bytes moved to/from global memory.
  int GlobalBytes = 0;
  /// Runtime trap raised by this instruction (TrapKind::None when OK):
  /// out-of-bounds or misaligned accesses, divergent branches, invalid
  /// register indices, unimplemented opcodes.
  TrapKind Trap = TrapKind::None;
  /// Faulting address (memory traps) and first faulting lane. The
  /// diagnostic text is built on the trap path only (Executor::trapDetail).
  uint64_t TrapAddress = 0;
  int TrapLane = -1;

  bool faulted() const { return Trap != TrapKind::None; }
};

/// Functional executor bound to one launch's memories and geometry.
///
/// Global memory is accessed through a GlobalMemoryView, so the same
/// executor code serves both the serial path (direct view) and the
/// parallel per-SM path (view over a private write overlay).
class Executor {
public:
  /// The bank and segment arithmetic uses shifts and masks, so the
  /// machine's SharedMemBanks and SharedMemBankBytes must be powers of two
  /// (asserted; tests/ArchTest.cpp checks every built-in machine).
  Executor(const MachineDesc &M, GlobalMemoryView Global,
           const std::vector<uint32_t> &Params, const LaunchDims &Dims);

  /// Executes \p I, whose decoded entry is \p D, for warp \p W whose
  /// block is \p BlockIdxLinear (linearized ctaid) with shared memory
  /// \p Shared. Advances nothing; the caller owns the PC.
  ///
  /// A memory instruction traps at the first live lane k whose address is
  /// misaligned or out of bounds: the live lanes below k have performed
  /// their loads and stores, and lanes k and up touch nothing.
  ExecEffects execute(const Instruction &I, const DecodedInst &D,
                      WarpContext &W, int BlockIdxLinear,
                      SharedMemory &Shared) const;

  /// The diagnostic context of the trap \p Fx that execute() raised for
  /// \p I (e.g. the access width or the allocation size).
  std::string trapDetail(const Instruction &I, const ExecEffects &Fx,
                         const SharedMemory &Shared) const;

private:
  /// execute()'s LD/ST path, for the live lanes \p Lanes (non-zero).
  ExecEffects executeMemory(const Instruction &I, const DecodedInst &D,
                            WarpContext &W, uint32_t Lanes,
                            SharedMemory &Shared) const;

  GlobalMemoryView Global;
  const std::vector<uint32_t> &Params;
  const LaunchDims &Dims;
  /// log2(SharedMemBankBytes) and log2(SharedMemBanks).
  int BankShift, BanksLog2;
};

} // namespace gpuperf

#endif // GPUPERF_SIM_EXECUTOR_H
