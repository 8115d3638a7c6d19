#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_blocks.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace rev::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t Rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__) && defined(__GNUC__)

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH (vector names list the 32-bit lanes from high to low). Each
// sha256rnds2 does two rounds and the pair swap roles, so four rounds
// restore the names. The message schedule runs one vector (four words)
// ahead of the rounds that consume it.
__attribute__((target("sha,sse4.1"))) void ShaNiBlocks(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* k = reinterpret_cast<const __m128i*>(kRoundConstants.data());

  // state[0..7] = A..H, so the two loads are DCBA and HGFE.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), byteswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), byteswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), byteswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), byteswap);
    for (int g = 0; g < 16; ++g) {
      const __m128i wk = _mm_add_epi32(w0, _mm_loadu_si128(k + g));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      // Schedule group g + 4 (words 4g+16 .. 4g+19) from groups g .. g + 3;
      // the last four groups need none.
      const __m128i next =
          g < 12 ? _mm_sha256msg2_epu32(
                       _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                     _mm_alignr_epi8(w3, w2, 4)),
                       w3)
                 : w0;
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif

}  // namespace

namespace internal {

void Sha256BlocksScalar(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256BlockFn Sha256BlocksShaNi() {
#if defined(__x86_64__) && defined(__GNUC__)
  // Safe before libgcc's own constructor has run (static initializers).
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
    return &ShaNiBlocks;
#endif
  return nullptr;
}

Sha256BlockFn Sha256BlocksDispatched() {
  static const Sha256BlockFn chosen = [] {
    const Sha256BlockFn shani = Sha256BlocksShaNi();
    return shani != nullptr ? shani : &Sha256BlocksScalar;
  }();
  return chosen;
}

}  // namespace internal

Sha256::Sha256() : state_(internal::kSha256InitialState), buffer_{} {}

void Sha256::ProcessBlocks(const std::uint8_t* data, std::size_t blocks) {
  internal::Sha256BlocksDispatched()(state_.data(), data, blocks);
}

void Sha256::Update(BytesView data) {
  if (data.empty()) return;
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(64 - buffered_, n);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    if (buffered_ < 64) return;
    ProcessBlocks(buffer_.data(), 1);
    buffered_ = 0;
    p += take;
    n -= take;
  }
  // Every whole block in one call, so the SHA-NI path regroups the state
  // once per Update rather than once per block.
  const std::size_t whole = n / 64;
  if (whole > 0) ProcessBlocks(p, whole);
  buffered_ = n % 64;
  if (buffered_ > 0) std::memcpy(buffer_.data(), p + whole * 64, buffered_);
}

Sha256Digest Sha256::Finish() {
  // The last one or two blocks: the buffered bytes, 0x80, zeros, then the
  // message length in bits as a big-endian 64-bit integer.
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t tail_blocks = buffered_ < 56 ? 1 : 2;
  const std::uint64_t bit_length = total_bytes_ * 8;
  for (std::size_t i = 0; i < 8; ++i)
    tail[tail_blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bit_length >> (8 * i));
  ProcessBlocks(tail, tail_blocks);
  buffered_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    digest[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    digest[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    digest[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(BytesView data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

Bytes Sha256Bytes(BytesView data) {
  const Sha256Digest d = Sha256::Hash(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace rev::crypto
