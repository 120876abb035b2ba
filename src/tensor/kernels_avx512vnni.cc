/**
 * @file
 * AVX-512 VNNI int8 GEMM over packed weights. Compiled with -mavx512f
 * -mavx512bw -mavx512vl -mavx512vnni -ffp-contract=off (see simd.hh).
 *
 * VPDPBUSD multiplies unsigned bytes by signed bytes, so the A side is
 * biased by 128 (XOR 0x80 in two's complement):
 *     dpbusd(a + 128, w) = Σ a·w + 128·Σ w,
 * and the packed weights carry corr = -128·Σ w per (column, block), so
 * starting each block's int32 accumulator at corr leaves the exact
 * signed block dot after its eight VPDPBUSDs. A panel of A is biased
 * once into a stack buffer, not once per broadcast.
 *
 * Register tile: kTileRows A rows × two 16-column weight tiles. Per
 * block and group, each A row's 4 codes are broadcast (a load-port
 * VPBROADCASTD) and multiplied against both tiles' 64-byte weight
 * vectors, which stay in registers across the rows. After a block's
 * eight groups, each of the tile's int32 vectors takes one convert,
 * one scale multiply (sa[b] · sb[b] per lane) and one fused
 * multiply-add into its float accumulator — exactly the per-block
 * chain GemmQ8PackedFn pins, so the result is the scalar reference's
 * bit for bit.
 */

#if defined(__AVX512F__) && defined(__AVX512VNNI__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <cstring>

#include "tensor/simd.hh"

namespace leca::simd::detail {

namespace {

constexpr std::int64_t L = kPackedQ8Cols;

/** A rows per register tile: 4 rows × 2 tiles keeps 8 independent
 *  int32 chains in flight (enough to hide VPDPBUSD latency) plus 8
 *  float accumulators and the two weight vectors in 32 zmm. */
constexpr int kTileRows = 4;

/** A rows biased per staging pass. */
constexpr std::int64_t kPanelRows = 16;

/** A blocks biased per staging pass: 16 rows × 32 blocks × 32 bytes =
 *  16 KB of stack. Longer rows run in several passes; the float chains
 *  carry across them through c (a store and reload is exact). */
constexpr std::int64_t kChunkBlocks = 32;

constexpr std::int64_t kStageStride = kChunkBlocks * 32;

inline __mmask16
liveMask(std::int64_t live)
{
    return live >= L ? static_cast<__mmask16>(0xFFFF)
                     : static_cast<__mmask16>((1u << live) - 1u);
}

/** int32 -> float. The zero-masked form with a full mask is the same
 *  VCVTDQ2PS; GCC 12's unmasked intrinsic passes an "undefined" source
 *  that trips -Wmaybe-uninitialized once inlined into this kernel. */
inline __m512
cvt(__m512i v)
{
    return _mm512_maskz_cvtepi32_ps(static_cast<__mmask16>(0xFFFF), v);
}

/**
 * R staged A rows × C column tiles over blocks [b0, b0 + bn). @p first
 * starts every chain at +0; otherwise the chains continue from c.
 */
template <int R, int C>
void
tileKernel(const std::uint8_t *abuf, const float *sa, std::int64_t b0,
           std::int64_t bn, const PackedQ8View &b, std::int64_t tile0,
           float *c, std::int64_t ldc, bool first)
{
    const std::int64_t nb = b.nb;
    __mmask16 mask[C];
    for (int t = 0; t < C; ++t)
        mask[t] = liveMask(b.n - (tile0 + t) * L);
    __m512 facc[R][C];
    for (int r = 0; r < R; ++r)
        for (int t = 0; t < C; ++t)
            facc[r][t] = first ? _mm512_setzero_ps()
                               : _mm512_maskz_loadu_ps(
                                   mask[t], c + r * ldc + t * L);
    for (std::int64_t blk = 0; blk < bn; ++blk) {
        const std::int64_t gb = b0 + blk;
        const std::int8_t *w[C];
        __m512i acc[R][C];
        for (int t = 0; t < C; ++t) {
            const std::int64_t tb = (tile0 + t) * nb + gb;
            w[t] = b.q + tb * 32 * L;
            const __m512i corr = _mm512_loadu_si512(b.corr + tb * L);
            for (int r = 0; r < R; ++r)
                acc[r][t] = corr;
        }
        const std::uint8_t *ab = abuf + blk * 32;
#pragma GCC unroll 8
        for (int g = 0; g < 8; ++g) {
            __m512i wv[C];
            for (int t = 0; t < C; ++t)
                wv[t] = _mm512_loadu_si512(w[t] + g * 64);
            for (int r = 0; r < R; ++r) {
                std::int32_t a4;
                std::memcpy(&a4, ab + r * kStageStride + 4 * g, 4);
                const __m512i av = _mm512_set1_epi32(a4);
                for (int t = 0; t < C; ++t)
                    acc[r][t] = _mm512_dpbusd_epi32(acc[r][t], av, wv[t]);
            }
        }
        for (int t = 0; t < C; ++t) {
            const __m512 sw =
                _mm512_loadu_ps(b.scales + ((tile0 + t) * nb + gb) * L);
            for (int r = 0; r < R; ++r) {
                const __m512 s =
                    _mm512_mul_ps(_mm512_set1_ps(sa[r * nb + gb]), sw);
                facc[r][t] = _mm512_fmadd_ps(
                    s, cvt(acc[r][t]), facc[r][t]);
            }
        }
    }
    for (int r = 0; r < R; ++r)
        for (int t = 0; t < C; ++t)
            _mm512_mask_storeu_ps(c + r * ldc + t * L, mask[t], facc[r][t]);
}

template <int C>
void
tileRows(int rows, const std::uint8_t *abuf, const float *sa,
         std::int64_t b0, std::int64_t bn, const PackedQ8View &b,
         std::int64_t tile0, float *c, std::int64_t ldc, bool first)
{
    switch (rows) {
      case 1:
        tileKernel<1, C>(abuf, sa, b0, bn, b, tile0, c, ldc, first);
        break;
      case 2:
        tileKernel<2, C>(abuf, sa, b0, bn, b, tile0, c, ldc, first);
        break;
      case 3:
        tileKernel<3, C>(abuf, sa, b0, bn, b, tile0, c, ldc, first);
        break;
      default:
        tileKernel<kTileRows, C>(abuf, sa, b0, bn, b, tile0, c, ldc,
                                 first);
        break;
    }
}

} // namespace

// leca-analyze: entry
void
gemmQ8PackedVnni(std::int64_t m, const std::int8_t *qa, const float *sa,
                 const PackedQ8View &b, float *c, std::int64_t ldc)
{
    const std::int64_t nb = b.nb;
    const std::int64_t tiles = (b.n + L - 1) / L;
    const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
    alignas(64) std::uint8_t abuf[kPanelRows * kStageStride];
    for (std::int64_t i0 = 0; i0 < m; i0 += kPanelRows) {
        const std::int64_t mr = m - i0 < kPanelRows ? m - i0 : kPanelRows;
        for (std::int64_t b0 = 0; b0 < nb; b0 += kChunkBlocks) {
            const std::int64_t bn =
                nb - b0 < kChunkBlocks ? nb - b0 : kChunkBlocks;
            for (std::int64_t r = 0; r < mr; ++r) {
                const std::int8_t *src = qa + ((i0 + r) * nb + b0) * 32;
                std::uint8_t *dst = abuf + r * kStageStride;
                for (std::int64_t x = 0; x < bn * 32; x += 32)
                    _mm256_store_si256(
                        reinterpret_cast<__m256i *>(dst + x),
                        _mm256_xor_si256(
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i *>(src + x)),
                            bias));
            }
            const bool first = b0 == 0;
            for (std::int64_t t = 0; t < tiles; t += 2) {
                for (std::int64_t r0 = 0; r0 < mr; r0 += kTileRows) {
                    const int rows = static_cast<int>(
                        mr - r0 < kTileRows ? mr - r0 : kTileRows);
                    const std::uint8_t *ab = abuf + r0 * kStageStride;
                    const float *sar = sa + (i0 + r0) * nb;
                    float *cr = c + (i0 + r0) * ldc + t * L;
                    if (tiles - t >= 2)
                        tileRows<2>(rows, ab, sar, b0, bn, b, t, cr, ldc,
                                    first);
                    else
                        tileRows<1>(rows, ab, sar, b0, bn, b, t, cr, ldc,
                                    first);
                }
            }
        }
    }
}

} // namespace leca::simd::detail

#endif // __AVX512F__ && __AVX512VNNI__ && __AVX512VL__
