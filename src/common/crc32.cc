#include "src/common/crc32.h"

#include <array>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define INFERTURBO_CRC32_CLMUL 1
#endif

namespace inferturbo {
namespace {

constexpr std::array<std::uint32_t, 256> MakeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = MakeCrc32Table();

/// Advances the CRC state (the value between the entry and exit
/// inversions) over `size` bytes, one table lookup per byte.
std::uint32_t TableUpdate(std::uint32_t state, const unsigned char* bytes,
                          std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state = kCrc32Table[(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

#ifdef INFERTURBO_CRC32_CLMUL

#define INFERTURBO_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

INFERTURBO_CLMUL_TARGET inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `x` forward by the distance the constant pair `k` encodes, then
/// adds `next`: x.lo * k.lo + x.hi * k.hi + next over GF(2).
INFERTURBO_CLMUL_TARGET inline __m128i Fold128(__m128i x, __m128i k,
                                               __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

/// Advances the CRC state over `size` bytes by carry-less-multiply
/// folding (Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction", Intel 2009; the reflected-domain
/// constants of Linux's crc32-pclmul and zlib's crc32_simd). Requires
/// size >= 64 and size % 16 == 0. Four 128-bit lanes each fold 16 bytes
/// forward by 64 bytes per step; the lanes then fold into one, which
/// folds down to 64 bits and reduces to 32 by Barrett reduction.
INFERTURBO_CLMUL_TARGET std::uint32_t ClmulUpdate(std::uint32_t state,
                                                  const unsigned char* bytes,
                                                  std::size_t size) {
  // x^(4*128+32) and x^(4*128-32) mod P: fold a lane 512 bits forward.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // x^(128+32) and x^(128-32) mod P: fold 128 bits forward.
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64 mod P: fold 64 bits down to 32.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // P itself and the Barrett constant floor(x^64 / P), bit-reflected.
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load128(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = Load128(bytes + 16);
  __m128i x3 = Load128(bytes + 32);
  __m128i x4 = Load128(bytes + 48);
  bytes += 64;
  size -= 64;
  for (; size >= 64; bytes += 64, size -= 64) {
    x1 = Fold128(x1, k1k2, Load128(bytes));
    x2 = Fold128(x2, k1k2, Load128(bytes + 16));
    x3 = Fold128(x3, k1k2, Load128(bytes + 32));
    x4 = Fold128(x4, k1k2, Load128(bytes + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = Fold128(x1, k3k4, Load128(bytes));
  }

  // 128 -> 64 bits, then 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool ClmulAvailable() {
  __builtin_cpu_init();  // callers may run during static initialization
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // INFERTURBO_CRC32_CLMUL

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t state = ~seed;
#ifdef INFERTURBO_CRC32_CLMUL
  static const bool kClmul = ClmulAvailable();
  if (kClmul && size >= 64) {
    const std::size_t bulk = size & ~std::size_t{15};
    state = ClmulUpdate(state, bytes, bulk);
    bytes += bulk;
    size -= bulk;
  }
#endif
  return ~TableUpdate(state, bytes, size);
}

std::uint32_t Crc32Portable(const void* data, std::size_t size,
                            std::uint32_t seed) {
  return ~TableUpdate(~seed, static_cast<const unsigned char*>(data), size);
}

}  // namespace inferturbo
