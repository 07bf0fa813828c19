//===- bench/toolchain_microbench.cpp - toolchain performance -------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// google-benchmark microbenchmarks of the reproduction's own toolchain:
// instruction encode/decode, assembly, disassembly, kernel generation,
// the simulator's layers (one warp instruction through the executor, the
// per-launch kernel decode) and simulation throughput. Not a paper experiment -- this keeps the
// substrate's performance visible so the big sweeps stay tractable.
//
//===----------------------------------------------------------------------===//

#include "asmtool/Assembler.h"
#include "asmtool/Disassembler.h"
#include "isa/Encoding.h"
#include "kernelgen/SgemmGenerator.h"
#include "sgemm/SgemmRunner.h"
#include "sim/DecodedKernel.h"
#include "sim/Executor.h"

#include <benchmark/benchmark.h>

using namespace gpuperf;

namespace {

SgemmKernelConfig benchConfig() {
  SgemmKernelConfig Cfg;
  Cfg.M = Cfg.N = Cfg.K = 960;
  Cfg.Lda = Cfg.Ldb = Cfg.Ldc = 960;
  return Cfg;
}

void BM_EncodeDecode(benchmark::State &State) {
  Instruction I = makeFFMA(10, 1, 4, 10);
  for (auto _ : State) {
    uint64_t Word = encodeInstruction(I);
    auto Back = decodeInstruction(Word);
    benchmark::DoNotOptimize(Back);
  }
}
BENCHMARK(BM_EncodeDecode);

void BM_GenerateSgemmKernel(benchmark::State &State) {
  for (auto _ : State) {
    auto K = generateSgemmKernel(gtx580(), benchConfig());
    benchmark::DoNotOptimize(K);
  }
}
BENCHMARK(BM_GenerateSgemmKernel);

void BM_DisassembleSgemm(benchmark::State &State) {
  auto K = generateSgemmKernel(gtx580(), benchConfig());
  for (auto _ : State) {
    std::string Text = disassembleKernel(*K);
    benchmark::DoNotOptimize(Text);
  }
}
BENCHMARK(BM_DisassembleSgemm);

void BM_AssembleSgemm(benchmark::State &State) {
  auto K = generateSgemmKernel(gtx580(), benchConfig());
  Module M;
  M.Arch = GpuGeneration::Fermi;
  M.Kernels.push_back(*K);
  std::string Text = disassembleModule(M);
  for (auto _ : State) {
    auto Back = assembleText(Text);
    benchmark::DoNotOptimize(Back);
  }
}
BENCHMARK(BM_AssembleSgemm);

void BM_SerializeModule(benchmark::State &State) {
  auto K = generateSgemmKernel(gtx680(), benchConfig());
  Module M;
  M.Arch = GpuGeneration::Kepler;
  M.Kernels.push_back(*K);
  for (auto _ : State) {
    auto Bytes = M.serialize();
    benchmark::DoNotOptimize(Bytes);
  }
}
BENCHMARK(BM_SerializeModule);

/// Runs \p I for one full warp through Executor::execute, with R1 holding
/// lane * \p Stride + \p Base as the address register.
void executeWarpInst(benchmark::State &State, const MachineDesc &M,
                     const Instruction &I, int Stride, int Base) {
  GlobalMemory Global(1 << 16);
  std::vector<uint32_t> Params;
  LaunchDims Dims;
  Dims.BlockX = WarpSize;
  Executor Exec(M, Global, Params, Dims);
  SharedMemory Shared(4096);
  WarpContext W;
  W.reset(16);
  for (int Lane = 0; Lane < WarpSize; ++Lane)
    W.writeReg(1, Lane, static_cast<uint32_t>(Lane * Stride + Base));
  for (auto _ : State) {
    ExecEffects Fx = Exec.execute(I, W, 0, Shared);
    benchmark::DoNotOptimize(Fx);
  }
}

void BM_ExecuteFFMA(benchmark::State &State) {
  executeWarpInst(State, gtx680(), makeFFMA(10, 1, 4, 10), 0, 0);
}
BENCHMARK(BM_ExecuteFFMA);

void BM_ExecuteLDS64(benchmark::State &State) {
  executeWarpInst(State, gtx580(), makeLDS(MemWidth::B64, 4, 1, 0), 8, 0);
}
BENCHMARK(BM_ExecuteLDS64);

void BM_ExecuteLD(benchmark::State &State) {
  executeWarpInst(State, gtx580(), makeLD(MemWidth::B32, 4, 1, 0), 4, 512);
}
BENCHMARK(BM_ExecuteLD);

void BM_DecodeKernel(benchmark::State &State) {
  auto K = generateSgemmKernel(gtx680(), benchConfig());
  for (auto _ : State) {
    DecodedKernel D = decodeKernel(gtx680(), *K);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_DecodeKernel);

void BM_SimulateSgemmWave(benchmark::State &State) {
  SgemmProblem P;
  P.M = P.N = P.K = 480;
  SgemmRunOptions O;
  O.Mode = SimMode::ProjectOneWave;
  for (auto _ : State) {
    auto R = runSgemm(gtx580(), SgemmImpl::AsmTuned, P, O);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SimulateSgemmWave)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
