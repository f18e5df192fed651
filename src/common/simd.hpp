// The single SIMD entry point of the codebase.
//
// Every intrinsic lives here — the delta_lint `raw-intrinsic` rule bans
// intrinsic headers and `_mm*`/`__builtin_prefetch` tokens everywhere else
// in src/, so callers always go through this dispatch layer and the scalar
// fallback stays exercised (CI builds -DDELTA_NO_SIMD=ON).
//
// Backend selection is compile-time: SSE2 on x86-64, and the scalar
// references everywhere else and when DELTA_NO_SIMD is defined.  The tag
// kernels compute *exact* 40-bit (cache tags) or 32-bit (UMON stacks)
// equality and the rank kernels exact byte compares, so the SSE2 path is
// bit-identical to its `*_scalar` reference by construction — the
// property the cache/UMON equivalence suites and the frozen legacy-oracle
// replay in micro_throughput verify end to end (docs/performance.md
// "Vectorized kernels").  micro_throughput also fails when an SSE2
// kernel's speedup over its scalar reference drops below a floor.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if !defined(DELTA_NO_SIMD) && \
    (defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC)))
#include <emmintrin.h>
#define DELTA_SIMD_SSE2 1
#endif

namespace delta::simd {

/// Name of the compiled-in backend, for bench/diagnostic output.
constexpr const char* backend_name() {
#if defined(DELTA_SIMD_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

/// Widest key the 40-bit tag kernels accept: keys at or above it match
/// nothing.
inline constexpr std::uint64_t kTag40Limit = std::uint64_t{1} << 40;

/// Lanes in one row of a set record: the tag, owner and rank kernels each
/// read exactly one 16-lane row, so a caller's rows must stay readable for
/// kRowLanes lanes whatever `n` is (lanes past `n` are masked off).
inline constexpr int kRowLanes = 16;

/// Scalar reference for match_tag40: bit i of the result is set iff the
/// 40-bit tag (hi[i] << 32 | lo[i]) equals `key`, for i in [0, n), n <= 32.
/// A key at or above kTag40Limit equals no tag.  The vector kernel below
/// must return exactly this value on every input; tests/test_simd.cpp
/// checks every width.
inline std::uint32_t match_tag40_scalar(const std::uint32_t* lo, const std::uint8_t* hi,
                                        int n, std::uint64_t key) {
  std::uint32_t m = 0;
  for (int i = 0; i < n; ++i)
    m |= static_cast<std::uint32_t>(((std::uint64_t{hi[i]} << 32) | lo[i]) == key) << i;
  return m;
}

/// 40-bit tag equality bitmask over split tag rows: bit i set iff
/// (hi[i] << 32 | lo[i]) == key, i in [0, n), n <= kRowLanes.  This is the
/// cache hit path's tag compare, the hottest kernel in the simulator
/// (mem/cache.hpp match_ways).  SSE2 compares the 16 lanes with four
/// 32-bit compares on the low row, packs them to bytes, and ANDs in one
/// byte compare on the high row before a single movemask.
inline std::uint32_t match_tag40(const std::uint32_t* lo, const std::uint8_t* hi, int n,
                                 std::uint64_t key) {
#if defined(DELTA_SIMD_SSE2)
  const __m128i klo = _mm_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(key)));
  const __m128i khi = _mm_set1_epi8(static_cast<char>(key >> 32));
  const auto* row = reinterpret_cast<const __m128i*>(lo);
  const __m128i e0 = _mm_cmpeq_epi32(_mm_loadu_si128(row), klo);
  const __m128i e1 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 1), klo);
  const __m128i e2 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 2), klo);
  const __m128i e3 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 3), klo);
  // Each compare lane is 0 or -1, so the saturating packs keep 0 / -1.
  const __m128i low = _mm_packs_epi16(_mm_packs_epi32(e0, e1), _mm_packs_epi32(e2, e3));
  const __m128i high =
      _mm_cmpeq_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(hi)), khi);
  const auto m = static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_and_si128(low, high)));
  return key < kTag40Limit ? m & ((std::uint32_t{1} << n) - 1) : 0;
#else
  return match_tag40_scalar(lo, hi, n, key);
#endif
}

/// Scalar reference for match_u8: bit i of the result is set iff
/// row[i] == key, for i in [0, n), n <= 32.
inline std::uint32_t match_u8_scalar(const std::uint8_t* row, int n, std::uint8_t key) {
  std::uint32_t m = 0;
  for (int i = 0; i < n; ++i) m |= static_cast<std::uint32_t>(row[i] == key) << i;
  return m;
}

/// Byte equality bitmask: bit i set iff row[i] == key, i in [0, n),
/// n <= kRowLanes.  Backs the bulk-invalidation sweep's owner filter
/// (mem/cache.hpp invalidate_if), one compare per set's owner row.  Like
/// match_tag40, SSE2 reads the whole kRowLanes-lane row.
inline std::uint32_t match_u8(const std::uint8_t* row, int n, std::uint8_t key) {
#if defined(DELTA_SIMD_SSE2)
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
  const auto m = static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(key)))));
  return m & ((std::uint32_t{1} << n) - 1);
#else
  return match_u8_scalar(row, n, key);
#endif
}

/// Scalar reference for find_u32 (first index of key in [0, n), else n).
inline std::size_t find_u32_scalar(const std::uint32_t* vals, std::size_t n,
                                   std::uint32_t key) {
  for (std::size_t i = 0; i < n; ++i)
    if (vals[i] == key) return i;
  return n;
}

/// First index i in [0, n) with vals[i] == key, or n when absent.  Backs
/// the UMON shadow-tag stack search (umon/umon.cpp), where stacks run to
/// hundreds of entries and most probes miss every lane.  SSE2 compares 16
/// lanes per step with four 32-bit compares packed to one byte movemask,
/// then 4 lanes per step, then the scalar tail.
inline std::size_t find_u32(const std::uint32_t* vals, std::size_t n, std::uint32_t key) {
#if defined(DELTA_SIMD_SSE2)
  const __m128i k = _mm_set1_epi32(static_cast<int>(key));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const auto* row = reinterpret_cast<const __m128i*>(vals + i);
    const __m128i e0 = _mm_cmpeq_epi32(_mm_loadu_si128(row), k);
    const __m128i e1 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 1), k);
    const __m128i e2 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 2), k);
    const __m128i e3 = _mm_cmpeq_epi32(_mm_loadu_si128(row + 3), k);
    // Each compare lane is 0 or -1, so the saturating packs keep 0 / -1.
    const auto m = static_cast<unsigned>(_mm_movemask_epi8(
        _mm_packs_epi16(_mm_packs_epi32(e0, e1), _mm_packs_epi32(e2, e3))));
    if (m != 0) return i + static_cast<std::size_t>(std::countr_zero(m));
  }
  for (; i + 4 <= n; i += 4) {
    const __m128i e =
        _mm_cmpeq_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + i)), k);
    const auto m = static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(e)));
    if (m != 0) return i + static_cast<std::size_t>(std::countr_zero(m));
  }
  for (; i < n; ++i)
    if (vals[i] == key) return i;
  return n;
#else
  return find_u32_scalar(vals, n, key);
#endif
}

// A recency-rank row is kRowLanes std::uint8_t ranks, one per way, 0 =
// MRU.  Lanes at or above the cache's way count hold their own index, so
// the ways in use always carry a permutation of [0, ways) and the spare
// lanes rank strictly older than every way.

/// Scalar reference for rank_promote: every lane of a `lanes`-lane row
/// ranked below ranks[way] ages by one and `way` becomes MRU (rank 0).
/// Ranks in a row are distinct, so "the lane whose rank equals
/// ranks[way]" is `way`.
inline void rank_promote_scalar(std::uint8_t* ranks, int lanes, int way) {
  const std::uint8_t r = ranks[way];
  for (int i = 0; i < lanes; ++i)
    ranks[i] = ranks[i] == r ? std::uint8_t{0}
                             : static_cast<std::uint8_t>(ranks[i] + (ranks[i] < r));
}

/// Scalar reference for rank_oldest: the lane in `mask` with the largest
/// rank (the least recently used), or -1 when `mask` is empty.  `mask`
/// selects lanes of the row, so the row's width does not enter.
inline int rank_oldest_scalar(const std::uint8_t* ranks, std::uint32_t mask) {
  int best = -1;
  for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    if (best < 0 || ranks[i] > ranks[best]) best = i;
  }
  return best;
}

#if defined(DELTA_SIMD_SSE2)
namespace detail {

/// Bit `kBit` of 16 ranks as a 16-bit lane mask: shifting each 16-bit
/// pair left by 7 - kBit moves that bit of both bytes into their sign
/// bits, which movemask_epi8 gathers.
template <int kBit>
inline std::uint32_t rank_bit_sse2(__m128i v) {
  return static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_slli_epi16(v, 7 - kBit)));
}

/// Keeps the candidates whose rank has the bit in `plane` set, if any do.
inline std::uint32_t keep_older(std::uint32_t cand, std::uint32_t plane) {
  const std::uint32_t older = cand & plane;
  return older != 0 ? older : cand;
}

}  // namespace detail
#endif

/// Promotes `way` of a rank row to MRU: lanes younger than it age by one
/// and it becomes 0.  The LRU update of every cache hit and fill
/// (mem/cache.hpp).
inline void rank_promote(std::uint8_t* ranks, int way) {
#if defined(DELTA_SIMD_SSE2)
  auto* const p = reinterpret_cast<__m128i*>(ranks);
  const __m128i r = _mm_set1_epi8(static_cast<char>(ranks[way]));
  const __m128i v = _mm_loadu_si128(p);
  // Ranks are below 16, so the signed byte compare is exact; cmplt is
  // all-ones (-1) on younger lanes, and subtracting it ages them.
  const __m128i aged = _mm_sub_epi8(v, _mm_cmplt_epi8(v, r));
  _mm_storeu_si128(p, _mm_andnot_si128(_mm_cmpeq_epi8(v, r), aged));
#else
  rank_promote_scalar(ranks, kRowLanes, way);
#endif
}

/// The least recently used lane of `mask` in a rank row, or -1 when `mask`
/// is empty; `mask` selects lanes below kRowLanes.  The LRU victim choice
/// of every cache miss (mem/cache.hpp).
inline int rank_oldest(const std::uint8_t* ranks, std::uint32_t mask) {
#if defined(DELTA_SIMD_SSE2)
  if (mask == 0) return -1;
  // Ranks are distinct and below 16: walking their four bits from the top,
  // keeping the candidates that have each bit set, leaves exactly the lane
  // of the largest rank.
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ranks));
  std::uint32_t cand = mask;
  cand = detail::keep_older(cand, detail::rank_bit_sse2<3>(v));
  cand = detail::keep_older(cand, detail::rank_bit_sse2<2>(v));
  cand = detail::keep_older(cand, detail::rank_bit_sse2<1>(v));
  cand = detail::keep_older(cand, detail::rank_bit_sse2<0>(v));
  return std::countr_zero(cand);
#else
  return rank_oldest_scalar(ranks, mask);
#endif
}

/// Read-intent prefetch hint; a no-op where unsupported.  Side-effect-free,
/// so callers (chip access pipelining, UMON) keep byte-identical results.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Write-intent prefetch hint (rank rows, validity words).
inline void prefetch_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

}  // namespace delta::simd
