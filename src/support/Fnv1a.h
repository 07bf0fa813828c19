//===- support/Fnv1a.h - 64-bit FNV-1a hashing ------------------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a, the one content hash behind the perf-cache kernel keys
/// (PerfDatabase::kernelHash), fault-injection result digests
/// (InjectionRun::ResultHash) and sweep row digests (rows_fnv1a). Every
/// one of those values is persisted or compared across runs, so the
/// byte order fed to the hash is part of the contract.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SUPPORT_FNV1A_H
#define GPUPERF_SUPPORT_FNV1A_H

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace gpuperf {

/// FNV-1a offset basis: the hash of the empty input.
constexpr uint64_t Fnv1aBasis = 0xcbf29ce484222325ull;

/// Folds \p Size bytes at \p Data into \p Hash.
inline uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

/// Folds the sizeof(T) bytes of \p V into \p Hash, least significant
/// first, so the digest does not depend on the host's byte order.
template <typename T> uint64_t fnv1aLittleEndian(uint64_t Hash, T V) {
  static_assert(std::is_unsigned_v<T>, "hash unsigned integers only");
  uint8_t Bytes[sizeof(T)];
  for (size_t I = 0; I < sizeof(T); ++I)
    Bytes[I] = static_cast<uint8_t>(V >> (8 * I));
  return fnv1a(Hash, Bytes, sizeof(T));
}

} // namespace gpuperf

#endif // GPUPERF_SUPPORT_FNV1A_H
