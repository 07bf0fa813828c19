//===- sim/DecodedKernel.cpp - per-PC facts the SM simulator reads --------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/DecodedKernel.h"

#include "sim/Timing.h"

#include <algorithm>
#include <bit>

using namespace gpuperf;

DecodedKernel gpuperf::decodeKernel(const MachineDesc &M, const Kernel &K) {
  const int NumRegs = std::max(K.RegsPerThread, 1);
  const bool KeplerNotations =
      M.Generation == GpuGeneration::Kepler && K.hasNotations();
  DecodedKernel D(K.Code.size());
  for (size_t PC = 0; PC < K.Code.size(); ++PC) {
    const Instruction &I = K.Code[PC];
    DecodedInst &E = D[PC];
    E.Srcs = I.sourceRegs();
    E.Dsts = I.destRegs();
    E.DispatchPort = dispatchPortCycles(M, I);
    E.IssuePipe = issuePipeCycles(M, I);
    E.MathPipe = mathPipeCycles(M, I);
    E.LdstPipe = ldstPipeCycles(M, I);
    E.ConflictExtra = bankConflictExtraCycles(M, I);
    E.ImplicitConflict = implicitConflictAllowance(M, I);
    E.Latency = resultLatency(M, I);
    E.Class = opcodeInfo(I.Op).Class;
    E.WritesPred = I.writesPredicate();
    E.ImmSrc1 = I.immReplacesSrc1();
    E.WidthBytes = memWidthBytes(I.Width);
    E.WidthLog2 = std::countr_zero(static_cast<unsigned>(E.WidthBytes));
    auto Allocated = [&](uint8_t Reg) {
      return Reg == RegRZ || Reg < NumRegs;
    };
    E.RegsOk = std::all_of(E.Srcs.begin(), E.Srcs.end(), Allocated) &&
               std::all_of(E.Dsts.begin(), E.Dsts.end(), Allocated) &&
               (I.GuardPred == PredPT || I.GuardPred < NumPredRegs) &&
               (!E.WritesPred || I.Dst < NumPredRegs);
    if (KeplerNotations)
      E.Ctrl = K.Notations[PC / NotationGroupSize]
                   .Fields[PC % NotationGroupSize];
  }
  return D;
}
