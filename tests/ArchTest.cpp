//===- tests/ArchTest.cpp - machine description unit tests ----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "arch/MachineDesc.h"
#include "arch/Occupancy.h"
#include "arch/RegisterBank.h"
#include "isa/Instruction.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

using namespace gpuperf;

// --- Table 1 data ----------------------------------------------------------

TEST(MachineDesc, Table1Fermi) {
  const MachineDesc &M = gtx580();
  EXPECT_EQ(M.ChipName, "GF110");
  EXPECT_DOUBLE_EQ(M.CoreClockMHz, 772);
  EXPECT_DOUBLE_EQ(M.ShaderClockMHz, 1544);
  EXPECT_EQ(M.WarpSchedulersPerSM, 2);
  EXPECT_EQ(M.DispatchUnitsPerSM, 2);
  EXPECT_EQ(M.SPsPerSM, 32);
  EXPECT_EQ(M.LdStUnitsPerSM, 16);
  EXPECT_EQ(M.SharedMemBytesPerSM, 48 * 1024);
  EXPECT_EQ(M.RegistersPerSM, 32 * 1024);
  EXPECT_EQ(M.MaxRegsPerThread, 63);
  // 512 SPs * 2 flops * 1.544 GHz = 1581 GFLOPS.
  EXPECT_NEAR(M.theoreticalPeakGflops(), 1581, 1.0);
}

TEST(MachineDesc, Table1Kepler) {
  const MachineDesc &M = gtx680();
  EXPECT_EQ(M.ChipName, "GK104");
  EXPECT_DOUBLE_EQ(M.ShaderClockMHz, 1006); // Single clock domain.
  EXPECT_EQ(M.WarpSchedulersPerSM, 4);
  EXPECT_EQ(M.DispatchUnitsPerSM, 8);
  EXPECT_EQ(M.SPsPerSM, 192);
  EXPECT_EQ(M.RegistersPerSM, 64 * 1024);
  EXPECT_EQ(M.MaxRegsPerThread, 63); // Still the 6-bit encoding limit.
  EXPECT_NEAR(M.theoreticalPeakGflops(), 3090, 2.0);
  // Section 3.3 issue ceiling and register banking.
  EXPECT_NEAR(M.MathIssueSlotsPerCycle, 132, 0.5);
  EXPECT_EQ(M.RegisterFileBanks, 4);
}

TEST(MachineDesc, Table1GT200) {
  const MachineDesc &M = gt200();
  EXPECT_EQ(M.SPsPerSM, 8);
  EXPECT_EQ(M.WarpSchedulersPerSM, 1);
  EXPECT_EQ(M.MaxRegsPerThread, 127);
  EXPECT_NEAR(M.theoreticalPeakGflops(), 933, 12.0);
}

TEST(MachineDesc, FindMachine) {
  EXPECT_EQ(findMachine("GTX580"), &gtx580());
  EXPECT_EQ(findMachine("gtx680"), &gtx680());
  EXPECT_EQ(findMachine("Fermi"), &gtx580());
  EXPECT_EQ(findMachine("Kepler"), &gtx680());
  EXPECT_EQ(findMachine("GTX280"), &gt200());
  EXPECT_EQ(findMachine("RTX4090"), nullptr);
}

TEST(MachineDesc, SharedBankGeometryIsPowersOfTwo) {
  // The executor maps shared addresses to banks and global addresses to
  // segments with shifts and masks, which is exact only for power-of-two
  // bank counts, bank words and access widths.
  for (const MachineDesc *M : {&gt200(), &gtx580(), &gtx680(), &teslaK20X()}) {
    EXPECT_TRUE(std::has_single_bit(static_cast<unsigned>(M->SharedMemBanks)))
        << M->Name;
    EXPECT_TRUE(
        std::has_single_bit(static_cast<unsigned>(M->SharedMemBankBytes)))
        << M->Name;
  }
  for (MemWidth W : {MemWidth::B32, MemWidth::B64, MemWidth::B128})
    EXPECT_TRUE(std::has_single_bit(static_cast<unsigned>(memWidthBytes(W))));
}

// --- Register banks (Section 3.3) -------------------------------------------

TEST(RegisterBank, PaperFormula) {
  // even0: idx%8<4 && even; even1: idx%8>=4 && even; analogously odd.
  EXPECT_EQ(registerBank(0), RegBank::Even0);
  EXPECT_EQ(registerBank(1), RegBank::Odd0);
  EXPECT_EQ(registerBank(2), RegBank::Even0);
  EXPECT_EQ(registerBank(3), RegBank::Odd0);
  EXPECT_EQ(registerBank(4), RegBank::Even1);
  EXPECT_EQ(registerBank(5), RegBank::Odd1);
  EXPECT_EQ(registerBank(6), RegBank::Even1);
  EXPECT_EQ(registerBank(7), RegBank::Odd1);
  EXPECT_EQ(registerBank(8), RegBank::Even0);
  EXPECT_EQ(registerBank(9), RegBank::Odd0);
}

TEST(RegisterBank, PeriodicWithPeriod8) {
  for (unsigned Reg = 0; Reg < 55; ++Reg)
    EXPECT_EQ(registerBank(Reg), registerBank(Reg + 8));
}

TEST(RegisterBank, BalancedDistribution) {
  int Count[4] = {0, 0, 0, 0};
  for (unsigned Reg = 0; Reg < 64; ++Reg)
    ++Count[registerBankIndex(Reg)];
  for (int Bank = 0; Bank < 4; ++Bank)
    EXPECT_EQ(Count[Bank], 16);
}

TEST(RegisterBank, ConflictDegree) {
  // Table 2 operand patterns: {R1,R4,R5} spans three banks.
  std::vector<unsigned> NoConflict = {1, 4, 5};
  EXPECT_EQ(bankConflictDegree(NoConflict), 1);
  // {R1,R3} both odd0: 2-way.
  std::vector<unsigned> TwoWay = {1, 3, 5};
  EXPECT_EQ(bankConflictDegree(TwoWay), 2);
  // {R1,R3,R9} all odd0: 3-way.
  std::vector<unsigned> ThreeWay = {1, 3, 9};
  EXPECT_EQ(bankConflictDegree(ThreeWay), 3);
  std::vector<unsigned> Empty;
  EXPECT_EQ(bankConflictDegree(Empty), 1);
}

TEST(RegisterBank, Names) {
  EXPECT_STREQ(registerBankName(RegBank::Even0), "E0");
  EXPECT_STREQ(registerBankName(RegBank::Odd1), "O1");
}

// --- Occupancy (Equation 1) ---------------------------------------------------

TEST(Occupancy, SgemmFermiConfiguration) {
  // The paper's Fermi SGEMM: 63 regs/thread, 256 threads/block. Equation 1
  // gives 32K / (63*256) = 2 blocks -> 512 active threads (Section 4.5).
  KernelResources Res;
  Res.RegsPerThread = 63;
  Res.ThreadsPerBlock = 256;
  Res.SharedBytesPerBlock = 2 * 96 * 16 * 4; // two strided panels
  Occupancy O = computeOccupancy(gtx580(), Res);
  EXPECT_EQ(O.ActiveBlocks, 2);
  EXPECT_EQ(O.ActiveThreads, 512);
  EXPECT_EQ(O.Limit, OccupancyLimit::Registers);
}

TEST(Occupancy, SgemmKeplerConfiguration) {
  // On Kepler 64K registers support 1024 active threads at 63 regs
  // (Section 4.5).
  KernelResources Res;
  Res.RegsPerThread = 63;
  Res.ThreadsPerBlock = 256;
  Res.SharedBytesPerBlock = 2 * 96 * 16 * 4;
  Occupancy O = computeOccupancy(gtx680(), Res);
  EXPECT_EQ(O.ActiveBlocks, 4);
  EXPECT_EQ(O.ActiveThreads, 1024);
  EXPECT_EQ(O.Limit, OccupancyLimit::Registers);
}

TEST(Occupancy, SharedMemoryBound) {
  KernelResources Res;
  Res.RegsPerThread = 16;
  Res.ThreadsPerBlock = 128;
  Res.SharedBytesPerBlock = 20 * 1024; // Two blocks exhaust 40 of 48 KB.
  Occupancy O = computeOccupancy(gtx580(), Res);
  EXPECT_EQ(O.ActiveBlocks, 2);
  EXPECT_EQ(O.Limit, OccupancyLimit::SharedMemory);
}

TEST(Occupancy, ThreadLimitBound) {
  KernelResources Res;
  Res.RegsPerThread = 10;
  Res.ThreadsPerBlock = 1024;
  Occupancy O = computeOccupancy(gtx580(), Res);
  EXPECT_EQ(O.ActiveBlocks, 1); // 1536 / 1024.
  EXPECT_EQ(O.Limit, OccupancyLimit::ThreadsPerSM);
}

TEST(Occupancy, BlockLimitBound) {
  KernelResources Res;
  Res.RegsPerThread = 4;
  Res.ThreadsPerBlock = 32;
  Occupancy O = computeOccupancy(gtx580(), Res);
  EXPECT_EQ(O.ActiveBlocks, 8);
  EXPECT_EQ(O.Limit, OccupancyLimit::BlocksPerSM);
}

TEST(Occupancy, Unlaunchable) {
  KernelResources Res;
  Res.RegsPerThread = 64; // Over the 63-register ISA limit.
  Res.ThreadsPerBlock = 256;
  Occupancy O = computeOccupancy(gtx580(), Res);
  EXPECT_FALSE(O.launchable());
  EXPECT_EQ(O.Limit, OccupancyLimit::BlockTooLarge);
}

TEST(Occupancy, LimitNamesAreStable) {
  EXPECT_STREQ(occupancyLimitName(OccupancyLimit::Registers), "registers");
  EXPECT_STREQ(occupancyLimitName(OccupancyLimit::SharedMemory),
               "shared memory");
}

TEST(Occupancy, SingleLimitBindsAlone) {
  // The Fermi SGEMM configuration is register-bound and nothing else:
  // BindingLimits must contain exactly that one bit.
  KernelResources Res;
  Res.RegsPerThread = 63;
  Res.ThreadsPerBlock = 256;
  Res.SharedBytesPerBlock = 2 * 96 * 16 * 4;
  Occupancy O = computeOccupancy(gtx580(), Res);
  EXPECT_EQ(O.BindingLimits, occupancyLimitBit(OccupancyLimit::Registers));
  EXPECT_TRUE(O.limitBinds(OccupancyLimit::Registers));
  EXPECT_FALSE(O.limitBinds(OccupancyLimit::ThreadsPerSM));
  EXPECT_EQ(occupancyBindingLimitNames(O), "registers");
}

TEST(Occupancy, RegisterThreadTieIsDeterministic) {
  // 21 regs x 512 threads: Equation 1 gives 32K/10752 = 3 blocks, and the
  // 1536-thread cap gives 1536/512 = 3 as well. Both bind; the attributed
  // Limit is the documented priority winner (registers).
  KernelResources Res;
  Res.RegsPerThread = 21;
  Res.ThreadsPerBlock = 512;
  Occupancy O = computeOccupancy(gtx580(), Res);
  EXPECT_EQ(O.ActiveBlocks, 3);
  EXPECT_EQ(O.Limit, OccupancyLimit::Registers);
  EXPECT_TRUE(O.limitBinds(OccupancyLimit::Registers));
  EXPECT_TRUE(O.limitBinds(OccupancyLimit::ThreadsPerSM));
  EXPECT_FALSE(O.limitBinds(OccupancyLimit::SharedMemory));
  EXPECT_FALSE(O.limitBinds(OccupancyLimit::BlocksPerSM));
  EXPECT_EQ(occupancyBindingLimitNames(O),
            "registers + max threads per SM");
}

TEST(Occupancy, SharedBlockTieIsDeterministic) {
  // 6 KB of shared per block: 48K/6K = 8 blocks, exactly the hardware
  // block cap. Shared memory outranks the block cap in the priority.
  KernelResources Res;
  Res.RegsPerThread = 10;
  Res.ThreadsPerBlock = 96;
  Res.SharedBytesPerBlock = 6 * 1024;
  Occupancy O = computeOccupancy(gtx580(), Res);
  EXPECT_EQ(O.ActiveBlocks, 8);
  EXPECT_EQ(O.Limit, OccupancyLimit::SharedMemory);
  EXPECT_TRUE(O.limitBinds(OccupancyLimit::SharedMemory));
  EXPECT_TRUE(O.limitBinds(OccupancyLimit::BlocksPerSM));
  EXPECT_FALSE(O.limitBinds(OccupancyLimit::Registers));
  EXPECT_EQ(occupancyBindingLimitNames(O),
            "shared memory + max blocks per SM");
}
