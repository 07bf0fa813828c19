//===- tests/SweepTest.cpp - checkpointed, resumable sweeps ---------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep engine's contract: every point runs at most once, a failed
/// point is listed with its reason instead of aborting the sweep (and is
/// never checkpointed, so a resume re-runs exactly it), and --resume
/// serves checkpointed points without ever re-running them -- with the
/// combined output (rows and digest) bit-identical to an uninterrupted
/// run for every job count. A bench record resumed entirely from its
/// checkpoint still names the machines of its sweeps.
///
//===----------------------------------------------------------------------===//

#include "ubench/SweepRunner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

using namespace gpuperf;

namespace {

/// Rows a healthy point I produces (deterministic, index-dependent).
SweepRows rowsFor(size_t I) {
  return {"point " + std::to_string(I), std::to_string(I * I)};
}

Expected<SweepRows> healthyPoint(size_t I) { return rowsFor(I); }

class Sweep : public ::testing::Test {
protected:
  void SetUp() override {
    CkptPath =
        testing::TempDir() + "gpuperf_sweep_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".ckpt";
    std::remove(CkptPath.c_str());
  }
  void TearDown() override { std::remove(CkptPath.c_str()); }

  std::string CkptPath;
};

TEST_F(Sweep, HealthySweepMatchesPlainOutput) {
  // With every point healthy, the engine's rows are exactly what a plain
  // runSweep produces, for any job count.
  for (int Jobs : {1, 4}) {
    SweepResult R =
        runCheckpointedSweep(Jobs, nullptr, "healthy", 8, healthyPoint);
    ASSERT_TRUE(R.Report.complete());
    EXPECT_EQ(R.Report.Completed, 8u);
    EXPECT_EQ(R.Report.Resumed, 0u);
    for (size_t I = 0; I < 8; ++I) {
      ASSERT_TRUE(R.Rows[I].has_value());
      EXPECT_EQ(*R.Rows[I], rowsFor(I)) << "point " << I;
    }
  }
}

TEST_F(Sweep, FailedPointRunsOnceAndIsListedButNotCheckpointed) {
  std::atomic<int> FailedRuns{0};
  SweepCheckpoint Ckpt(CkptPath, /*Resume=*/false);
  SweepResult R = runCheckpointedSweep(
      1, &Ckpt, "failing", 3, [&](size_t I) -> Expected<SweepRows> {
        if (I == 1) {
          ++FailedRuns;
          return Status::error("deterministic trap");
        }
        return rowsFor(I);
      });
  // The simulator is deterministic, so a failed point is never re-run.
  EXPECT_EQ(FailedRuns.load(), 1);
  // The sweep completes minus an explicit incomplete list -- it never
  // aborts, and healthy points are unaffected.
  EXPECT_FALSE(R.Report.complete());
  EXPECT_EQ(R.Report.Completed, 2u);
  ASSERT_EQ(R.Report.Incomplete.size(), 1u);
  EXPECT_EQ(R.Report.Incomplete[0].Point, 1u);
  EXPECT_EQ(R.Report.Incomplete[0].Reason, "deterministic trap");
  EXPECT_FALSE(R.Rows[1].has_value());
  ASSERT_TRUE(R.Rows[0].has_value());
  EXPECT_EQ(*R.Rows[0], rowsFor(0));
  ASSERT_TRUE(R.Rows[2].has_value());
  EXPECT_EQ(*R.Rows[2], rowsFor(2));
  EXPECT_EQ(Ckpt.recordCount(), 2u);
  EXPECT_EQ(Ckpt.lookup("failing", 1), nullptr)
      << "a failed point must not be checkpointed";
}

TEST_F(Sweep, CheckpointPreventsDoubleRuns) {
  std::atomic<int> Runs{0};
  auto Point = [&](size_t I) -> Expected<SweepRows> {
    ++Runs;
    return rowsFor(I);
  };
  uint64_t FirstHash;
  {
    SweepCheckpoint Ckpt(CkptPath, /*Resume=*/false);
    SweepResult R = runCheckpointedSweep(1, &Ckpt, "sweep", 5, Point);
    EXPECT_EQ(R.Report.Completed, 5u);
    EXPECT_EQ(Runs.load(), 5);
    FirstHash = R.Report.RowsHash;
  }
  // Resume with every point recorded: zero invocations, same rows, and
  // the digest matches the uninterrupted run exactly.
  SweepCheckpoint Ckpt(CkptPath, /*Resume=*/true);
  EXPECT_EQ(Ckpt.recordCount(), 5u);
  SweepResult R = runCheckpointedSweep(1, &Ckpt, "sweep", 5, Point);
  EXPECT_EQ(Runs.load(), 5) << "no completed point may ever re-run";
  EXPECT_EQ(R.Report.Completed, 5u);
  EXPECT_EQ(R.Report.Resumed, 5u);
  EXPECT_EQ(R.Report.RowsHash, FirstHash);
  for (size_t I = 0; I < 5; ++I) {
    ASSERT_TRUE(R.Rows[I].has_value());
    EXPECT_EQ(*R.Rows[I], rowsFor(I));
  }
}

TEST_F(Sweep, ResumeRunsOnlyTheMissingPoints) {
  // First run: point 2 fails, the rest complete and are checkpointed.
  {
    SweepCheckpoint Ckpt(CkptPath, false);
    SweepResult R = runCheckpointedSweep(
        1, &Ckpt, "sweep", 5, [](size_t I) -> Expected<SweepRows> {
          if (I == 2)
            return Status::error("hostile point");
          return rowsFor(I);
        });
    EXPECT_EQ(R.Report.Completed, 4u);
    ASSERT_EQ(R.Report.Incomplete.size(), 1u);
  }
  // Resumed run with the point healthy again: exactly one invocation,
  // and the combined result equals a full uninterrupted run's.
  std::atomic<int> Runs{0};
  SweepCheckpoint Ckpt(CkptPath, true);
  EXPECT_EQ(Ckpt.recordCount(), 4u);
  SweepResult R = runCheckpointedSweep(
      1, &Ckpt, "sweep", 5, [&](size_t I) -> Expected<SweepRows> {
        ++Runs;
        return rowsFor(I);
      });
  EXPECT_EQ(Runs.load(), 1) << "only the missing point may run";
  EXPECT_EQ(R.Report.Completed, 5u);
  EXPECT_EQ(R.Report.Resumed, 4u);

  SweepResult Uninterrupted =
      runCheckpointedSweep(1, nullptr, "sweep", 5, healthyPoint);
  EXPECT_EQ(R.Report.RowsHash, Uninterrupted.Report.RowsHash)
      << "kill+resume must digest identically to an uninterrupted run";
  for (size_t I = 0; I < 5; ++I)
    EXPECT_EQ(*R.Rows[I], *Uninterrupted.Rows[I]);
}

TEST_F(Sweep, FreshRunTruncatesAnOldCheckpoint) {
  {
    SweepCheckpoint Ckpt(CkptPath, false);
    ASSERT_FALSE(Ckpt.markDone("sweep", 0, rowsFor(0)).failed());
  }
  // Without --resume the file is emptied: a fresh run re-runs all.
  SweepCheckpoint Fresh(CkptPath, false);
  EXPECT_EQ(Fresh.recordCount(), 0u);
  EXPECT_EQ(Fresh.lookup("sweep", 0), nullptr);
}

TEST_F(Sweep, CheckpointRecoversFromTornTail) {
  {
    SweepCheckpoint Ckpt(CkptPath, false);
    ASSERT_FALSE(Ckpt.markDone("sweep", 0, rowsFor(0)).failed());
    ASSERT_FALSE(Ckpt.markDone("sweep", 3, rowsFor(3)).failed());
  }
  // A kill mid-append leaves half a frame; resume must keep both intact
  // records and drop the tail.
  {
    std::ofstream Out(CkptPath, std::ios::binary | std::ios::app);
    const char Torn[] = {0x40, 0, 0, 0, 0x12, 0x34};
    Out.write(Torn, sizeof(Torn));
  }
  SweepCheckpoint Ckpt(CkptPath, true);
  EXPECT_EQ(Ckpt.recordCount(), 2u);
  ASSERT_NE(Ckpt.lookup("sweep", 0), nullptr);
  EXPECT_EQ(*Ckpt.lookup("sweep", 0), rowsFor(0));
  ASSERT_NE(Ckpt.lookup("sweep", 3), nullptr);
  EXPECT_EQ(*Ckpt.lookup("sweep", 3), rowsFor(3));
  EXPECT_EQ(Ckpt.lookup("sweep", 1), nullptr);
  // And appends after recovery extend the cleaned file.
  ASSERT_FALSE(Ckpt.markDone("sweep", 1, rowsFor(1)).failed());
  SweepCheckpoint Again(CkptPath, true);
  EXPECT_EQ(Again.recordCount(), 3u);
}

TEST_F(Sweep, CheckpointKeysBySweepName) {
  SweepCheckpoint Ckpt(CkptPath, false);
  ASSERT_FALSE(Ckpt.markDone("alpha", 0, rowsFor(0)).failed());
  EXPECT_NE(Ckpt.lookup("alpha", 0), nullptr);
  EXPECT_EQ(Ckpt.lookup("beta", 0), nullptr)
      << "two sweeps sharing a checkpoint must not cross-serve points";
}

TEST_F(Sweep, RowsHashIsPinned) {
  // rows_fnv1a is compared across builds and runs (the crash-recovery
  // gate diffs it), so the digest layout -- per completed point, its
  // index as 8 little-endian bytes, then each row's bytes followed by its
  // length as 8 little-endian bytes -- must never change.
  EXPECT_EQ(runCheckpointedSweep(1, nullptr, "s", 4, healthyPoint)
                .Report.RowsHash,
            0xebacf905d6851769ull);
}

TEST_F(Sweep, RowsHashIgnoresExecutionOrder) {
  // The digest is computed in index order from per-index slots, so jobs
  // and scheduling cannot perturb it.
  EXPECT_EQ(
      runCheckpointedSweep(1, nullptr, "s", 16, healthyPoint)
          .Report.RowsHash,
      runCheckpointedSweep(8, nullptr, "s", 16, healthyPoint)
          .Report.RowsHash);
}

TEST_F(Sweep, ResumeServingEveryPointNamesTheSweepMachines) {
  // A resume that finds every point in the checkpoint simulates nothing
  // (what CI's crash-recovery stage sees when its kill lands after the
  // bench finished). Its record must still name the machines of the
  // uninterrupted run, or perfdiff refuses the pair.
  const std::string Base = CkptPath + ".fig4";
  auto Fig4 = [&](const std::string &Json, const char *Extra) {
    return std::system(
        (std::string(GPUPERF_FIG4_PATH) + " --jobs 2 --no-cache" +
         " --checkpoint " + Base + ".ckpt --json " + Json + Extra +
         " > " + Json + ".txt 2> /dev/null")
            .c_str());
  };
  ASSERT_EQ(Fig4(Base + ".full.json", ""), 0);
  ASSERT_EQ(Fig4(Base + ".resumed.json", " --resume"), 0);
  std::ifstream In(Base + ".resumed.json");
  std::string Record((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(Record.find("\"machines\":[\"GTX580\",\"GTX680\"]"),
            std::string::npos)
      << Record;
  EXPECT_NE(Record.find("\"sim_cycles\":0,"), std::string::npos)
      << "every point should have come from the checkpoint: " << Record;
  EXPECT_EQ(std::system((std::string(GPUPERF_PERFDIFF_PATH) + " " + Base +
                         ".full.json " + Base + ".resumed.json" +
                         " --ignore sim_cycles --ignore issue_slots" +
                         " > /dev/null")
                            .c_str()),
            0);
  for (const char *Suffix : {".ckpt", ".full.json", ".full.json.txt",
                             ".resumed.json", ".resumed.json.txt"})
    std::remove((Base + Suffix).c_str());
}

} // namespace
