//===- sim/DecodedKernel.h - per-PC facts the issue loop reads --*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat per-PC table of every static fact the SM simulator's issue loop
/// and executor need: register lists, the Timing.h pipe costs, latency, op
/// class, the immediate-operand rule, the access width, the Kepler control
/// field and the register-validity bit. The SM simulator asks these
/// questions for every warp on every cycle, while their answers depend
/// only on the machine and the instruction, so launchKernel decodes the
/// kernel once and every SM and every wave read the table.
///
/// Each field caches exactly one Timing.h rule or Instruction query; the
/// table adds no cost rule of its own (tests/SimTimingTest.cpp checks
/// every field against the function it caches).
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_DECODEDKERNEL_H
#define GPUPERF_SIM_DECODEDKERNEL_H

#include "arch/MachineDesc.h"
#include "isa/Module.h"

#include <vector>

namespace gpuperf {

/// The decoded facts of one static instruction on one machine.
struct DecodedInst {
  RegList Srcs; ///< Instruction::sourceRegs().
  RegList Dsts; ///< Instruction::destRegs().
  double DispatchPort = 0.0;     ///< dispatchPortCycles().
  double IssuePipe = 0.0;        ///< issuePipeCycles().
  double MathPipe = 0.0;         ///< mathPipeCycles().
  double LdstPipe = 0.0;         ///< ldstPipeCycles().
  double ConflictExtra = 0.0;    ///< bankConflictExtraCycles().
  double ImplicitConflict = 1.0; ///< implicitConflictAllowance().
  int Latency = 0;               ///< resultLatency().
  OpClass Class = OpClass::Control;
  bool WritesPred = false; ///< Instruction::writesPredicate().
  bool ImmSrc1 = false;    ///< Instruction::immReplacesSrc1().
  int WidthBytes = 4;      ///< memWidthBytes(Width).
  int WidthLog2 = 2;       ///< log2 of WidthBytes.
  /// Every register and predicate index fits the allocated files; false
  /// makes the instruction trap at issue (see decodeKernel).
  bool RegsOk = true;
  /// The instruction's Kepler control field; zeros on other machines and
  /// for kernels that carry no notations.
  ControlField Ctrl;
};

/// One DecodedInst per PC of a kernel.
using DecodedKernel = std::vector<DecodedInst>;

/// Decodes every instruction of \p K for machine \p M. RegsOk is false when
/// an instruction references a register at or past K.RegsPerThread (wide
/// accesses included) or a non-architectural predicate P4..P6: the 6-bit
/// and 3-bit encodings admit such indices, so corrupted binaries can name
/// state that does not exist, and those instructions trap instead of
/// reaching it. Kepler kernels with notations must carry one control word
/// per NotationGroupSize instructions (launchKernel checks this first).
DecodedKernel decodeKernel(const MachineDesc &M, const Kernel &K);

} // namespace gpuperf

#endif // GPUPERF_SIM_DECODEDKERNEL_H
