//===- ubench/SweepRunner.cpp - checkpointed, resumable sweeps ------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "ubench/SweepRunner.h"

#include "support/Fnv1a.h"
#include "support/ThreadPool.h"

using namespace gpuperf;

SweepResult gpuperf::runCheckpointedSweep(int Jobs,
                                          SweepCheckpoint *Checkpoint,
                                          const std::string &Name,
                                          size_t N,
                                          const SweepPointFn &Point) {
  SweepResult Out;
  Out.Rows.resize(N);
  Out.Report.Name = Name;
  Out.Report.Points = N;

  // Per-index slots keep the parallel run deterministic: workers write
  // only their own point's state; everything order-sensitive (report
  // assembly, digest) happens on the calling thread afterwards.
  std::vector<std::string> Failures(N);
  std::vector<uint8_t> FromCheckpoint(N, 0);
  std::vector<std::string> CheckpointErrors(N);

  parallelFor(Jobs, N, [&](size_t I) {
    if (Checkpoint) {
      if (const SweepRows *Rows = Checkpoint->lookup(Name, I)) {
        Out.Rows[I] = *Rows;
        FromCheckpoint[I] = 1;
        return; // Never double-run a completed point.
      }
    }

    Expected<SweepRows> Rows = Point(I);
    if (!Rows) {
      Failures[I] = Rows.takeError();
      return;
    }
    if (Checkpoint) {
      // Record completion durably before exposing the result: once the
      // sweep moves on, a kill must not cause a double run.
      if (Status S = Checkpoint->markDone(Name, I, *Rows); S.failed())
        CheckpointErrors[I] = S.message();
    }
    Out.Rows[I] = Rows.take();
  });

  uint64_t Hash = Fnv1aBasis;
  for (size_t I = 0; I < N; ++I) {
    if (Out.Rows[I]) {
      ++Out.Report.Completed;
      if (FromCheckpoint[I])
        ++Out.Report.Resumed;
      Hash = fnv1aLittleEndian(Hash, static_cast<uint64_t>(I));
      for (const std::string &Row : *Out.Rows[I]) {
        Hash = fnv1a(Hash, Row.data(), Row.size());
        Hash = fnv1aLittleEndian(Hash, static_cast<uint64_t>(Row.size()));
      }
    } else {
      Out.Report.Incomplete.push_back({I, std::move(Failures[I])});
    }
    if (!CheckpointErrors[I].empty()) {
      if (Out.Report.CheckpointErrors == 0)
        Out.Report.FirstCheckpointError = CheckpointErrors[I];
      ++Out.Report.CheckpointErrors;
    }
  }
  Out.Report.RowsHash = Hash;
  return Out;
}
