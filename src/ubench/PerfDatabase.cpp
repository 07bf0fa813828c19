//===- ubench/PerfDatabase.cpp - measured-throughput database -------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "ubench/PerfDatabase.h"

#include "support/Crc32.h"
#include "support/FileIO.h"
#include "support/Fnv1a.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace gpuperf;

namespace {

/// Snapshot-file layout (all integers little-endian):
///   "GPDB" | u32 version | u32 entry count
///   then per entry: u32 key length | key bytes | u64 value bits (double)
/// This is the compaction output format; it predates the journal, so
/// old caches load unchanged.
constexpr uint32_t CacheMagic = 0x42445047; // "GPDB"
constexpr uint32_t CacheVersion = 1;

/// Journal-file layout (the append-only write-ahead log that sits next
/// to the snapshot as <snapshot>.journal):
///   "GPDJ" | u32 version
///   then per frame: u32 payload length | u32 crc32(payload) | payload
///   payload: u32 key length | key bytes | u64 value bits (double)
/// Every acknowledged measurement is one fsync'd frame. Recovery scans
/// frames until the first structural or CRC failure and truncates the
/// file there: a torn tail costs at most the unacknowledged frame,
/// never the records before it.
constexpr uint32_t JournalMagic = 0x4a445047; // "GPDJ"
constexpr uint32_t JournalVersion = 1;
constexpr size_t JournalHeaderBytes = 8;

/// Sanity caps, same stance as Module::deserialize: any structurally
/// impossible size means corruption, and we reject before allocating.
constexpr uint32_t MaxCacheEntries = 1u << 20;
constexpr uint32_t MaxKeyBytes = 1u << 12;
constexpr uint32_t MaxJournalPayload = 4 + MaxKeyBytes + 8;

/// Journal size at which an append triggers compaction into the
/// snapshot (test hook below can lower it).
constexpr size_t DefaultCompactionThreshold = 256u << 10;
size_t CompactionThresholdOverride = 0;

size_t compactionThreshold() {
  return CompactionThresholdOverride ? CompactionThresholdOverride
                                     : DefaultCompactionThreshold;
}

void appendU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void appendU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// Bounds-checked little-endian cursor over the raw file bytes.
class CacheReader {
public:
  explicit CacheReader(const std::vector<uint8_t> &Bytes) : Bytes(Bytes) {}

  bool readU32(uint32_t &V) {
    if (Pos + 4 > Bytes.size())
      return false;
    V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Bytes[Pos++]) << (8 * I);
    return true;
  }
  bool readU64(uint64_t &V) {
    if (Pos + 8 > Bytes.size())
      return false;
    V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Bytes[Pos++]) << (8 * I);
    return true;
  }
  bool readBytes(std::string &S, uint32_t N) {
    if (Pos + N > Bytes.size())
      return false;
    S.assign(reinterpret_cast<const char *>(Bytes.data() + Pos), N);
    Pos += N;
    return true;
  }
  bool atEnd() const { return Pos == Bytes.size(); }
  size_t pos() const { return Pos; }

private:
  const std::vector<uint8_t> &Bytes;
  size_t Pos = 0;
};

/// Parses a snapshot file into a key->value map. Every failure names
/// the structural check that fired so a truncated or bit-flipped file
/// is diagnosable rather than silently half-loaded.
Expected<std::map<std::string, double>>
parseCacheFile(const std::string &Path) {
  using Result = Expected<std::map<std::string, double>>;
  auto File = readFileBytes(Path);
  if (!File)
    return Result::error("cannot open perf cache '" + Path + "'");
  const std::vector<uint8_t> &Bytes = *File;

  CacheReader R(Bytes);
  uint32_t Magic = 0, Version = 0, Count = 0;
  if (!R.readU32(Magic) || Magic != CacheMagic)
    return Result::error("perf cache: bad magic (not a GPDB file)");
  if (!R.readU32(Version) || Version != CacheVersion)
    return Result::error(
        formatString("perf cache: unsupported version %u", Version));
  if (!R.readU32(Count))
    return Result::error("perf cache: truncated header");
  if (Count > MaxCacheEntries)
    return Result::error(
        formatString("perf cache: entry count %u exceeds cap", Count));

  std::map<std::string, double> Entries;
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t KeyLen = 0;
    std::string Key;
    uint64_t Bits = 0;
    if (!R.readU32(KeyLen))
      return Result::error("perf cache: truncated entry header");
    if (KeyLen == 0 || KeyLen > MaxKeyBytes)
      return Result::error(
          formatString("perf cache: key length %u exceeds cap", KeyLen));
    if (!R.readBytes(Key, KeyLen) || !R.readU64(Bits))
      return Result::error("perf cache: truncated entry");
    double Value;
    std::memcpy(&Value, &Bits, 8);
    Entries[Key] = Value;
  }
  if (!R.atEnd())
    return Result::error("perf cache: trailing bytes after last entry");
  return Entries;
}

/// Lenient journal replay result: everything that could be recovered
/// plus where the valid prefix ends. Replay never fails wholesale --
/// a corrupt header just means "no valid bytes".
struct JournalReplay {
  std::map<std::string, double> Entries;
  size_t ValidBytes = 0; ///< Length of the intact prefix (0 when the
                         ///< header itself is unusable).
  size_t FileBytes = 0;  ///< Actual file size (0 when missing).
};

/// Decodes one frame's payload. Returns false on any structural
/// violation (the frame is then treated as corrupt).
bool decodeJournalPayload(const std::vector<uint8_t> &Payload,
                          std::string &Key, double &Value) {
  CacheReader R(Payload);
  uint32_t KeyLen = 0;
  uint64_t Bits = 0;
  if (!R.readU32(KeyLen) || KeyLen == 0 || KeyLen > MaxKeyBytes)
    return false;
  if (!R.readBytes(Key, KeyLen) || !R.readU64(Bits) || !R.atEnd())
    return false;
  std::memcpy(&Value, &Bits, 8);
  return true;
}

/// Replays the journal at \p Path, stopping at the first corrupt or
/// torn frame.
JournalReplay replayJournalFile(const std::string &Path) {
  JournalReplay Out;
  auto File = readFileBytes(Path);
  if (!File)
    return Out; // Missing journal: normal cold state.
  const std::vector<uint8_t> &Bytes = *File;
  Out.FileBytes = Bytes.size();

  CacheReader R(Bytes);
  uint32_t Magic = 0, Version = 0;
  if (!R.readU32(Magic) || Magic != JournalMagic || !R.readU32(Version) ||
      Version != JournalVersion)
    return Out; // Unusable header: recover nothing, truncate to zero.
  Out.ValidBytes = JournalHeaderBytes;

  for (;;) {
    uint32_t Len = 0, Crc = 0;
    if (!R.readU32(Len) || Len == 0 || Len > MaxJournalPayload)
      return Out;
    if (!R.readU32(Crc))
      return Out;
    std::string PayloadStr;
    if (!R.readBytes(PayloadStr, Len))
      return Out;
    if (crc32(PayloadStr.data(), PayloadStr.size()) != Crc)
      return Out;
    std::vector<uint8_t> Payload(PayloadStr.begin(), PayloadStr.end());
    std::string Key;
    double Value = 0;
    if (!decodeJournalPayload(Payload, Key, Value))
      return Out;
    Out.Entries[Key] = Value;
    Out.ValidBytes = R.pos();
  }
}

Status writeCacheFile(const std::string &Path,
                      const std::map<std::string, double> &Entries) {
  assert(Entries.size() <= MaxCacheEntries && "cache grew past its cap");
  std::vector<uint8_t> Out;
  appendU32(Out, CacheMagic);
  appendU32(Out, CacheVersion);
  appendU32(Out, static_cast<uint32_t>(Entries.size()));
  for (const auto &[Key, Value] : Entries) {
    appendU32(Out, static_cast<uint32_t>(Key.size()));
    Out.insert(Out.end(), Key.begin(), Key.end());
    uint64_t Bits;
    std::memcpy(&Bits, &Value, 8);
    appendU64(Out, Bits);
  }

  // Durable atomic replace (temp + fsync + rename + directory sync): a
  // crash, full disk or short write mid-save leaves the previous cache
  // file untouched instead of replacing it with a truncated one, and a
  // power loss after the rename cannot publish an empty file.
  if (Status S = writeFileDurable(Path, Out.data(), Out.size()); S.failed())
    return Status::error(S.message() + " while saving perf cache '" + Path +
                         "' (previous cache left intact)");
  return Status::success();
}

} // namespace

void gpuperf::setPerfCacheSaveByteLimitForTesting(size_t Limit) {
  setDurableWriteByteLimitForTesting(Limit);
}

void gpuperf::setPerfJournalCompactionThresholdForTesting(size_t Bytes) {
  CompactionThresholdOverride = Bytes;
}

PerfDatabase::PerfDatabase(const MachineDesc &M, std::string CachePath)
    : M(M), CachePath(std::move(CachePath)) {
  // A missing file is the normal cold-cache case; a corrupt snapshot is
  // treated the same (it will be rewritten wholesale on save), and the
  // journal replay inside load() recovers every acknowledged record a
  // crashed predecessor got to fsync. Callers that need to distinguish
  // use load() directly.
  if (!this->CachePath.empty())
    (void)load(this->CachePath);
}

PerfDatabase::~PerfDatabase() {
  bool NeedSave;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    NeedSave = Dirty && !CachePath.empty();
  }
  // The journal already holds every measurement durably; the exit save
  // is compaction housekeeping (fold the journal into the snapshot so
  // the next load replays nothing).
  if (NeedSave)
    if (Status S = save(CachePath); S.failed())
      std::fprintf(stderr, "warning: %s\n", S.message().c_str());
  if (JournalFd >= 0)
    ::close(JournalFd);
}

uint64_t PerfDatabase::kernelHash(const Kernel &K, GpuGeneration Arch) {
  Module Mod;
  Mod.Arch = Arch;
  Mod.Kernels.push_back(K);
  std::vector<uint8_t> Bytes = Mod.serialize();
  return fnv1a(Fnv1aBasis, Bytes.data(), Bytes.size());
}

std::string PerfDatabase::defaultCachePath() {
  if (const char *Env = std::getenv("GPUPERF_PERF_CACHE"))
    return Env;
  return "gpuperf_perf_cache.gpdb";
}

std::string PerfDatabase::keyFor(const Kernel &K,
                                 const MeasureConfig &Cfg) const {
  // The code hash covers the instruction stream, register count, and
  // shared size, so generator or encoder changes invalidate exactly the
  // entries they affect; the name keeps keys human-readable in dumps.
  return formatString("%s|%s|tb%d|bpsm%d|%016llx", M.Name.c_str(),
                      K.Name.c_str(), Cfg.ThreadsPerBlock, Cfg.BlocksPerSM,
                      static_cast<unsigned long long>(
                          kernelHash(K, M.Generation)));
}

double PerfDatabase::measureKernel(const Kernel &K,
                                   const MeasureConfig &Cfg) {
  std::string Key = keyFor(K, Cfg);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (auto It = Store.find(Key); It != Store.end()) {
      ++Hits;
      return It->second;
    }
    ++Misses;
  }
  // Measure outside the lock so concurrent sweep threads overlap their
  // simulations. Two threads racing on one key both measure it; the
  // simulator is deterministic, so the duplicated work is harmless (the
  // journal replay is idempotent for the duplicated frame too).
  double T = measureThroughput(M, K, Cfg);
  std::lock_guard<std::mutex> Lock(Mutex);
  Store[Key] = T;
  Dirty = true;
  // Acknowledge durably before returning: once a caller has seen this
  // value, no crash may lose it. Append failures degrade to in-memory
  // (the value is still correct; only durability is reduced).
  if (Status S = appendJournalLocked(Key, T); S.failed())
    std::fprintf(stderr, "warning: perf journal: %s\n",
                 S.message().c_str());
  return T;
}

Status PerfDatabase::appendJournalLocked(const std::string &Key,
                                         double Value) {
  if (CachePath.empty())
    return Status::success();
  std::string JPath = journalPath(CachePath);
  if (JournalFd < 0) {
    JournalFd = ::open(JPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (JournalFd < 0)
      return Status::error("cannot open '" + JPath + "' for append");
    // Make the journal's directory entry itself durable: without this,
    // a power loss could lose the whole file even though every frame
    // inside it was fsync'd.
    syncDirectoryOf(JPath);
  }

  // Re-check the size every append: recovery (or a concurrent save to
  // the same path) may have truncated the file under our O_APPEND fd,
  // in which case the header must be written again.
  struct stat St;
  size_t FileBytes = 0;
  if (::fstat(JournalFd, &St) == 0)
    FileBytes = static_cast<size_t>(St.st_size);

  std::vector<uint8_t> Payload;
  appendU32(Payload, static_cast<uint32_t>(Key.size()));
  Payload.insert(Payload.end(), Key.begin(), Key.end());
  uint64_t Bits;
  std::memcpy(&Bits, &Value, 8);
  appendU64(Payload, Bits);

  std::vector<uint8_t> Frame;
  if (FileBytes == 0) {
    appendU32(Frame, JournalMagic);
    appendU32(Frame, JournalVersion);
  }
  appendU32(Frame, static_cast<uint32_t>(Payload.size()));
  appendU32(Frame, crc32(Payload.data(), Payload.size()));
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());

  size_t Done = 0;
  while (Done < Frame.size()) {
    ssize_t N = ::write(JournalFd, Frame.data() + Done, Frame.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Done += static_cast<size_t>(N);
  }
  if (Done != Frame.size()) {
    // Tear off our partial frame so the on-disk tail stays clean; if
    // even that fails, recovery's CRC scan handles the torn tail.
    (void)::ftruncate(JournalFd, static_cast<off_t>(FileBytes));
    return Status::error("short append to '" + JPath + "'");
  }
  // The acknowledgment barrier: the record is only considered durable
  // (and the measurement only returned to the caller) once it is on
  // the platter, not in the page cache.
  if (::fsync(JournalFd) != 0)
    return Status::error("cannot fsync '" + JPath + "'");
  JournalBytes = FileBytes + Frame.size();

  if (JournalBytes > compactionThreshold())
    compactLocked();
  return Status::success();
}

void PerfDatabase::compactLocked() {
  // Fold snapshot + journal + in-memory store into a fresh snapshot,
  // then drop the journal. Order is the invariant: the journal is only
  // truncated *after* the snapshot write is durable, so a crash at any
  // point leaves every record in the snapshot, the journal, or both
  // (replay is idempotent) -- never in neither.
  std::map<std::string, double> Merged;
  if (auto OnDisk = parseCacheFile(CachePath))
    Merged = std::move(*OnDisk);
  for (const auto &[Key, Value] :
       replayJournalFile(journalPath(CachePath)).Entries)
    Merged[Key] = Value;
  for (const auto &[Key, Value] : Store)
    Merged[Key] = Value;

  if (Status S = writeCacheFile(CachePath, Merged); S.failed()) {
    // Compaction is an optimization; the journal still holds the
    // records, so a failed (or crash-injected) snapshot write must not
    // touch it.
    std::fprintf(stderr, "warning: perf cache compaction: %s\n",
                 S.message().c_str());
    return;
  }
  if (JournalFd >= 0 && ::ftruncate(JournalFd, 0) == 0)
    JournalBytes = 0;
  Dirty = false;
}

double PerfDatabase::mixThroughput(int FfmaPerLds, MemWidth Width,
                                   bool Dependent, int ActiveThreads,
                                   int DepChains, bool Pipelined) {
  assert(ActiveThreads >= WarpSize && "need at least one warp");

  MixBenchParams P;
  P.FfmaPerLds = FfmaPerLds;
  P.Width = Width;
  P.Dependent = Dependent;
  P.DepChains = DepChains;
  P.PipelinedConsume = Pipelined;
  Kernel K = generateMixBench(M, P);

  MeasureConfig Cfg;
  if (ActiveThreads <= M.MaxThreadsPerBlock) {
    Cfg.ThreadsPerBlock = ActiveThreads;
    Cfg.BlocksPerSM = 1;
  } else {
    Cfg.BlocksPerSM =
        (ActiveThreads + M.MaxThreadsPerBlock - 1) / M.MaxThreadsPerBlock;
    Cfg.ThreadsPerBlock = ActiveThreads / Cfg.BlocksPerSM;
  }
  return measureKernel(K, Cfg);
}

double PerfDatabase::mixThroughputSaturated(int FfmaPerLds, MemWidth Width,
                                            bool Dependent) {
  // The benchmark kernels use 32 registers/thread, so the register file
  // bounds the reachable occupancy: 1024 threads on Fermi (32K regs),
  // 2048 on Kepler (64K regs).
  int Threads = std::min(M.MaxThreadsPerSM, M.RegistersPerSM / 32);
  return mixThroughput(FfmaPerLds, Width, Dependent, Threads);
}

double PerfDatabase::ffmaPeak() {
  return mixThroughputSaturated(-1, MemWidth::B64, false);
}

size_t PerfDatabase::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

size_t PerfDatabase::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

size_t PerfDatabase::entryCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Store.size();
}

Status PerfDatabase::load(const std::string &Path) {
  auto Entries = parseCacheFile(Path);

  // The journal is replayed regardless of the snapshot's fate: records
  // appended after the last compaction exist nowhere else, and a
  // missing snapshot next to a journal is the normal state of a
  // database that crashed before its first compaction.
  JournalReplay Replay = replayJournalFile(journalPath(Path));
  if (Replay.ValidBytes < Replay.FileBytes) {
    // Torn or corrupt tail: physically truncate at the first bad frame
    // so subsequent appends extend a clean prefix instead of burying
    // valid frames behind garbage.
    (void)::truncate(journalPath(Path).c_str(),
                     static_cast<off_t>(Replay.ValidBytes));
  }

  std::lock_guard<std::mutex> Lock(Mutex);
  if (Entries)
    for (auto &[Key, Value] : *Entries)
      Store.insert({Key, Value}); // Freshly-measured values win.
  for (auto &[Key, Value] : Replay.Entries)
    Store.insert({Key, Value});
  if (!Replay.Entries.empty() && Path == CachePath)
    Dirty = true; // Compact the replayed journal into the snapshot on exit.
  if (!Entries)
    return Entries.takeStatus();
  return Status::success();
}

Status PerfDatabase::save(const std::string &Path) {
  std::map<std::string, double> Merged;
  // Keep entries another process appended since our load -- unless we
  // re-measured the same key, in which case ours is at least as fresh.
  // Both the foreign snapshot and its journal count.
  if (auto OnDisk = parseCacheFile(Path))
    Merged = std::move(*OnDisk);
  for (const auto &[Key, Value] : replayJournalFile(journalPath(Path)).Entries)
    Merged[Key] = Value;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &[Key, Value] : Store)
      Merged[Key] = Value;
  }
  if (Status S = writeCacheFile(Path, Merged); S.failed())
    return S;

  // Snapshot is durable; the journal's records are now redundant.
  // Truncating (rather than unlinking) keeps any O_APPEND fd in this
  // or another database object usable -- appends re-write the header.
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Path == CachePath && JournalFd >= 0) {
    if (::ftruncate(JournalFd, 0) == 0)
      JournalBytes = 0;
  } else {
    (void)::truncate(journalPath(Path).c_str(), 0);
  }
  if (Path == CachePath)
    Dirty = false;
  return Status::success();
}
