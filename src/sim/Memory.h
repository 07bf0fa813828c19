//===- sim/Memory.h - simulated global and shared memories ------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-addressable simulated memories. Global memory uses 32-bit byte
/// addresses (the paper's kernels deliberately use 32-bit addressing to
/// save address registers, Section 5.2); shared memory is one allocation
/// per resident block.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_MEMORY_H
#define GPUPERF_SIM_MEMORY_H

#include "support/Error.h"

#include <array>
#include <bitset>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

namespace gpuperf {

/// The device's global memory plus a trivial bump allocator. The backing
/// store grows on allocate(), so small experiments stay cheap while
/// 4800x4800 SGEMM (276 MB of matrices) still fits the 32-bit space.
class GlobalMemory {
public:
  explicit GlobalMemory(size_t Bytes = 1ull << 20) : Data(Bytes, 0) {}

  /// Allocates \p Bytes aligned to 256 (like cudaMalloc); returns the byte
  /// address, or a recoverable error on 32-bit address-space exhaustion.
  Expected<uint32_t> tryAllocate(size_t Bytes) {
    size_t Aligned = (Next + 255) & ~size_t(255);
    if (Aligned + Bytes > (1ull << 32))
      return Expected<uint32_t>::error(
          "global address space exhausted (32-bit device addressing)");
    Next = Aligned + Bytes;
    if (Next > Data.size())
      Data.resize(Next, 0);
    return static_cast<uint32_t>(Aligned);
  }

  /// Allocation for callers whose sizes are known small; asserts (and, in
  /// release builds, clamps to the end of the address space) on
  /// exhaustion. Prefer tryAllocate for anything driven by user input.
  uint32_t allocate(size_t Bytes) {
    auto Addr = tryAllocate(Bytes);
    assert(Addr.hasValue() && "global address space exhausted");
    if (!Addr.hasValue())
      return 0xffffff00u; // Past every allocation: accesses trap as OOB.
    return *Addr;
  }

  /// Resets the allocator (contents preserved).
  void resetAllocator() { Next = 256; }

  bool inBounds(uint64_t Addr, int Bytes) const {
    return Addr + Bytes <= Data.size();
  }

  /// Accesses are total functions: the executor raises a trap *before*
  /// touching memory, and these guards make a missed check in some future
  /// caller read zero / drop the store instead of corrupting the host
  /// heap -- in release builds too (asserts compile out under NDEBUG).
  uint32_t load32(uint32_t Addr) const {
    assert(inBounds(Addr, 4) && "global load out of bounds");
    if (!inBounds(Addr, 4))
      return 0;
    uint32_t V;
    std::memcpy(&V, Data.data() + Addr, 4);
    return V;
  }
  void store32(uint32_t Addr, uint32_t Value) {
    assert(inBounds(Addr, 4) && "global store out of bounds");
    if (!inBounds(Addr, 4))
      return;
    std::memcpy(Data.data() + Addr, &Value, 4);
  }

  /// Typed host-side access for filling/checking matrices.
  float loadFloat(uint32_t Addr) const {
    uint32_t V = load32(Addr);
    float F;
    std::memcpy(&F, &V, 4);
    return F;
  }
  void storeFloat(uint32_t Addr, float F) {
    uint32_t V;
    std::memcpy(&V, &F, 4);
    store32(Addr, V);
  }

  size_t size() const { return Data.size(); }

private:
  std::vector<uint8_t> Data;
  size_t Next = 256; // Keep address 0 invalid-ish.
};

/// A word-granular write overlay over a GlobalMemory, the mechanism that
/// lets independent SMs of one launch simulate concurrently: every SM
/// executes against a private overlay (reads fall through to the shared
/// base image, writes land in the overlay), and after all SMs finish the
/// overlays are applied to the base *in SM index order* -- the exact
/// order the serial path wrote in. For kernels whose blocks are
/// independent (no inter-block communication through global memory
/// within a launch -- the CUDA execution-model contract every kernel in
/// this repo satisfies), the merged image and every per-SM simulation
/// are bit-identical to the serial path.
///
/// Tracking is per 32-bit word because the ISA's global accesses are
/// word-multiples and word-aligned (the executor traps misalignment
/// before memory is touched), so two SMs writing different words of the
/// same 4 KB page -- adjacent SGEMM C tiles do this constantly -- merge
/// exactly.
class GlobalWriteOverlay {
public:
  /// Overlay value if this overlay wrote \p Addr, else the base value.
  uint32_t load32(const GlobalMemory &Base, uint32_t Addr) const {
    assert(Addr % 4 == 0 && "global word access must be 4-byte aligned");
    auto It = Pages.find(Addr / PageBytes);
    if (It != Pages.end()) {
      uint32_t Word = (Addr % PageBytes) / 4;
      if (It->second.Dirty[Word])
        return It->second.Words[Word];
    }
    return Base.load32(Addr);
  }

  /// Records a write. Mirrors GlobalMemory::store32's total-function
  /// guard: out-of-bounds stores are dropped here too, so overlaid and
  /// direct execution stay indistinguishable even for a hypothetical
  /// missed bounds check upstream.
  void store32(const GlobalMemory &Base, uint32_t Addr, uint32_t Value) {
    assert(Addr % 4 == 0 && "global word access must be 4-byte aligned");
    if (!Base.inBounds(Addr, 4))
      return;
    Page &P = Pages[Addr / PageBytes];
    uint32_t Word = (Addr % PageBytes) / 4;
    P.Words[Word] = Value;
    P.Dirty[Word] = true;
  }

  /// Applies every recorded write to \p Base in ascending address order
  /// (the map is ordered, so this is deterministic).
  void applyTo(GlobalMemory &Base) const {
    for (const auto &[PageIdx, P] : Pages) {
      for (uint32_t Word = 0; Word < PageWords; ++Word)
        if (P.Dirty[Word])
          Base.store32(PageIdx * PageBytes + 4 * Word, P.Words[Word]);
    }
  }

  bool empty() const { return Pages.empty(); }

private:
  static constexpr uint32_t PageWords = 1024; ///< 4 KB pages.
  static constexpr uint32_t PageBytes = PageWords * 4;

  struct Page {
    std::array<uint32_t, PageWords> Words{};
    std::bitset<PageWords> Dirty;
  };

  std::map<uint32_t, Page> Pages;
};

/// What the executor reads and writes global memory through: either the
/// GlobalMemory directly (serial simulation -- zero behaviour change) or
/// base-plus-overlay (one overlay per concurrently-simulated SM).
class GlobalMemoryView {
public:
  /*implicit*/ GlobalMemoryView(GlobalMemory &Base) : Base(&Base) {}
  GlobalMemoryView(GlobalMemory &Base, GlobalWriteOverlay &Overlay)
      : Base(&Base), Overlay(&Overlay) {}

  /// Bounds always come from the base image: an overlay never extends
  /// the address space.
  bool inBounds(uint64_t Addr, int Bytes) const {
    return Base->inBounds(Addr, Bytes);
  }
  size_t size() const { return Base->size(); }

  uint32_t load32(uint32_t Addr) const {
    return Overlay ? Overlay->load32(*Base, Addr) : Base->load32(Addr);
  }
  /// const like the executor's execute(): the view is a handle; stores
  /// mutate the referenced memory (or overlay), not the view itself.
  void store32(uint32_t Addr, uint32_t Value) const {
    if (Overlay)
      Overlay->store32(*Base, Addr, Value);
    else
      Base->store32(Addr, Value);
  }

private:
  GlobalMemory *Base;
  GlobalWriteOverlay *Overlay = nullptr;
};

/// One block's shared memory.
class SharedMemory {
public:
  explicit SharedMemory(int Bytes)
      : Data(static_cast<size_t>(Bytes < 0 ? 0 : Bytes), 0) {}

  bool inBounds(int64_t Addr, int Bytes) const {
    return Addr >= 0 &&
           static_cast<size_t>(Addr + Bytes) <= Data.size();
  }
  /// Total functions for the same reason as GlobalMemory: the executor
  /// traps before calling these, and the guards keep NDEBUG builds safe.
  uint32_t load32(int64_t Addr) const {
    assert(inBounds(Addr, 4) && "shared load out of bounds");
    if (!inBounds(Addr, 4))
      return 0;
    uint32_t V;
    std::memcpy(&V, Data.data() + Addr, 4);
    return V;
  }
  void store32(int64_t Addr, uint32_t Value) {
    assert(inBounds(Addr, 4) && "shared store out of bounds");
    if (!inBounds(Addr, 4))
      return;
    std::memcpy(Data.data() + Addr, &Value, 4);
  }
  int size() const { return static_cast<int>(Data.size()); }
  /// The raw bytes, for the executor's LD/ST path, which checks a whole
  /// warp access against size() before touching any of them.
  uint8_t *data() { return Data.data(); }

private:
  std::vector<uint8_t> Data;
};

} // namespace gpuperf

#endif // GPUPERF_SIM_MEMORY_H
