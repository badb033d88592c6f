#ifndef SETCOVER_UTIL_CRC32_H_
#define SETCOVER_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace setcover {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected), the checksum
/// guarding the on-disk robustness formats: stream-file headers, v2
/// chunks and run-supervisor checkpoints. Table-driven, slicing-by-8:
/// eight bytes per step through eight derived tables, in portable C++
/// (no intrinsics), so every host computes the same values.
///
/// Incremental use: feed the previous return value back as `seed` to
/// extend a checksum over multiple buffers; the default seed starts a
/// fresh computation. `Crc32(data, n)` equals the value produced by
/// zlib's crc32() over the same bytes.
uint32_t Crc32(const void* data, size_t bytes, uint32_t seed = 0);

/// CRC-32C (Castagnoli, polynomial 0x82F63B78, reflected) — the
/// checksum of the stream-file v3 chunk payloads and offset index.
/// Chosen for the v3 hot decode path because x86 CPUs compute it in
/// hardware (SSE4.2 crc32 instruction, dispatched at runtime); the
/// portable table fallback produces identical values, so files are
/// byte-identical across hosts. Same seed/incremental contract as
/// Crc32. `Crc32c("123456789", 9)` == 0xE3069283.
uint32_t Crc32c(const void* data, size_t bytes, uint32_t seed = 0);

/// The table-driven CRC-32C implementation, always taken on non-x86
/// hosts. Exposed so tests can pin the hardware path against it.
uint32_t Crc32cPortable(const void* data, size_t bytes, uint32_t seed = 0);

}  // namespace setcover

#endif  // SETCOVER_UTIL_CRC32_H_
