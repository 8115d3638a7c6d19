// Internal: the SHA-256 compression functions behind crypto::Sha256.
//
// Not part of the public API. Sha256 picks one block function per process
// (SHA-NI when the CPU has it, else scalar); this header exposes both so
// the differential tests and bench_micro can run each path directly, with
// the scalar loop as the oracle. It is a seam, not a switch: nothing here
// changes which function Sha256 uses.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace rev::crypto::internal {

// FIPS 180-4 §5.3.3 initial hash value H(0).
inline constexpr std::array<std::uint32_t, 8> kSha256InitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                               std::size_t blocks);

// Portable FIPS 180-4 loop: the fallback and the test oracle.
void Sha256BlocksScalar(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks);

// The x86-64 SHA extensions path, or nullptr when this build is not for
// x86-64 or the CPU lacks SHA/SSE4.1.
Sha256BlockFn Sha256BlocksShaNi();

// The function Sha256 uses: Sha256BlocksShaNi() if non-null, else scalar.
// Chosen on first call and fixed for the life of the process.
Sha256BlockFn Sha256BlocksDispatched();

}  // namespace rev::crypto::internal
