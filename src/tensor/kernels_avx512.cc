/**
 * @file
 * AVX-512 (F/BW/VL) kernels. Compiled with -mavx512f -mavx512bw
 * -mavx512vl -ffp-contract=off; nothing here may be inlined elsewhere
 * (see simd.hh).
 *
 * fp32: one 16-lane accumulator vector per micro-tile row — the whole
 * kMicroN extent in a single register — with explicit VMULPS+VADDPS
 * and masked C loads/stores, so edge tiles share the main path.
 *
 * Direct conv: CO output channels × XV 16-lane vectors of one output
 * row per register tile (CO·XV <= 24 of the 32 zmm), VMULPS+VADDPS per
 * tap, masked stores for the row tail.
 *
 * There is no AVX-512 int8 dot without VNNI (VPSIGNB does not exist in
 * EVEX form); isa.cc pairs this set's microF32 with the VNNI dot when
 * the host has it and the AVX2 dot otherwise.
 */

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <array>
#include <utility>

#include "tensor/simd.hh"

namespace leca::simd::detail {

namespace {

constexpr int kConvMaxCo = 8;
constexpr int kConvMaxXv = 4;
constexpr int kConvAccRegs = 24;

/**
 * Full lane mask. GCC 12's unmasked forms of several intrinsics pass an
 * "undefined" source that trips -Wmaybe-uninitialized once inlined; the
 * zero-masked form with every lane live is the same instruction.
 */
constexpr __mmask16 kAll = 0xFFFF;

/**
 * _mm512_reduce_max_ps with the masked extract: the same max tree
 * (upper half vs lower half, then 128-bit halves, then pairs), so the
 * same result bits, NaN lanes included.
 */
inline float
reduceMax(__m512 v)
{
    const __m512d d = _mm512_castps_pd(v);
    const __m256 hi =
        _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, d, 1));
    const __m256 lo =
        _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, d, 0));
    const __m256 t3 = _mm256_max_ps(hi, lo);
    const __m128 t6 = _mm_max_ps(_mm256_extractf128_ps(t3, 1),
                                 _mm256_extractf128_ps(t3, 0));
    const __m128 t8 =
        _mm_max_ps(t6, _mm_shuffle_ps(t6, t6, _MM_SHUFFLE(1, 0, 3, 2)));
    const __m128 t10 =
        _mm_max_ps(t8, _mm_shuffle_ps(t8, t8, _MM_SHUFFLE(0, 1, 0, 1)));
    return _mm_cvtss_f32(t10);
}

inline __mmask16
tailMask(int live)
{
    return live >= 16 ? static_cast<__mmask16>(0xFFFF)
                      : static_cast<__mmask16>((1u << live) - 1u);
}

/**
 * Output channels [co0, co0+CO) × lanes [x0, x0 + 16·XV) of output row
 * r, of which @p live lanes are stored: one VMULPS+VADDPS chain per
 * element over ascending (ci, ky, kx), then the ConvDirectF32Fn
 * epilogue.
 */
template <int CO, int XV>
void
convTile(const ConvDirectF32Args &g, int co0, int r, int x0, int live)
{
    const std::int64_t kdim =
        static_cast<std::int64_t>(g.cin) * g.kh * g.kw;
    const float *wt = g.w + co0 * kdim;
    __m512 acc[CO][XV];
    for (int c = 0; c < CO; ++c)
        for (int j = 0; j < XV; ++j)
            acc[c][j] = _mm512_setzero_ps();
    // One flat loop over the taps, (ci, ky, kx) ascending: measured
    // 10-20 % faster than nested ci/ky/kx loops, whose kx trip count is
    // only kw.
    const float *row = g.in + static_cast<std::int64_t>(r) * g.ld + x0;
    const std::int64_t next_plane = g.plane - (g.kh - 1) * g.ld;
    for (std::int64_t t = 0, kx = 0, ky = 0; t < kdim; ++t) {
        for (int c = 0; c < CO; ++c) {
            const __m512 wb = _mm512_set1_ps(wt[c * kdim + t]);
            for (int j = 0; j < XV; ++j)
                acc[c][j] = _mm512_add_ps(
                    acc[c][j],
                    _mm512_mul_ps(wb, _mm512_loadu_ps(row + kx + 16 * j)));
        }
        if (++kx == g.kw) {
            kx = 0;
            if (++ky == g.kh) {
                ky = 0;
                row += next_plane;
            } else {
                row += g.ld;
            }
        }
    }
    const __m512 zero = _mm512_setzero_ps();
    for (int c = 0; c < CO; ++c) {
        const int co = co0 + c;
        float *orow = g.out + co * g.ostride
                      + static_cast<std::int64_t>(r) * g.ow + x0;
        for (int j = 0; j < XV; ++j) {
            __m512 v = acc[c][j];
            if (g.bias)
                v = _mm512_add_ps(v, _mm512_set1_ps(g.bias[co]));
            if (g.a)
                v = _mm512_fmadd_ps(_mm512_set1_ps(g.a[co]), v,
                                    _mm512_set1_ps(g.b[co]));
            if (g.relu)
                // max(v, +0): the second operand is returned for NaN and
                // for (-0, +0) ties, matching the scalar v > 0 ? v : 0.
                v = _mm512_maskz_max_ps(kAll, v, zero);
            _mm512_mask_storeu_ps(orow + 16 * j, tailMask(live - 16 * j),
                                  v);
        }
    }
}

using ConvTileFn = void (*)(const ConvDirectF32Args &, int, int, int, int);

template <int... I>
constexpr auto
makeConvTiles(std::integer_sequence<int, I...>)
{
    return std::array<ConvTileFn, sizeof...(I)>{
        &convTile<I / kConvMaxXv + 1, I % kConvMaxXv + 1>...};
}

constexpr auto kConvTiles = makeConvTiles(
    std::make_integer_sequence<int, kConvMaxCo * kConvMaxXv>{});

} // namespace

void
microF32Avx512(std::int64_t kc, const float *ap, const float *bp, float *c,
               std::int64_t ldc, int mr, int nr, bool first)
{
    const __mmask16 m =
        nr >= 16 ? static_cast<__mmask16>(0xFFFF)
                 : static_cast<__mmask16>((1u << nr) - 1u);
    __m512 acc[4];
    for (int r = 0; r < 4; ++r)
        acc[r] = (!first && r < mr) ? _mm512_maskz_loadu_ps(m, c + r * ldc)
                                    : _mm512_setzero_ps();
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m512 b = _mm512_loadu_ps(bp + kk * 16);
        const float *arow = ap + kk * 4;
        for (int r = 0; r < 4; ++r) {
            const __m512 av = _mm512_set1_ps(arow[r]);
            acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b));
        }
    }
    for (int r = 0; r < mr; ++r)
        _mm512_mask_storeu_ps(c + r * ldc, m, acc[r]);
}

void
quantizeRowAvx512(const float *src, std::int64_t k, std::int8_t *q,
                  float *scales)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        if (lo + 32 <= k) {
            const __m512 v0 = _mm512_loadu_ps(src + lo);
            const __m512 v1 = _mm512_loadu_ps(src + lo + 16);
            const __m512 mx = _mm512_maskz_max_ps(kAll, _mm512_abs_ps(v0),
                                                  _mm512_abs_ps(v1));
            const float amax = reduceMax(mx);
            const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
            scales[b] = amax / 127.0f;
            const __m512 iv = _mm512_set1_ps(inv);
            const __m512i i0 =
                _mm512_maskz_cvtps_epi32(kAll, _mm512_mul_ps(v0, iv));
            const __m512i i1 =
                _mm512_maskz_cvtps_epi32(kAll, _mm512_mul_ps(v1, iv));
            // VPMOVSDB narrows lane-ordered — no repair permute needed.
            _mm_storeu_si128(reinterpret_cast<__m128i *>(q + lo),
                             _mm512_maskz_cvtsepi32_epi8(kAll, i0));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(q + lo + 16),
                             _mm512_maskz_cvtsepi32_epi8(kAll, i1));
        } else {
            float amax = 0.0f;
            for (std::int64_t jj = lo; jj < k; ++jj) {
                float a = src[jj] < 0.0f ? -src[jj] : src[jj];
                amax = amax > a ? amax : a;
            }
            const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
            scales[b] = amax / 127.0f;
            std::int64_t jj = lo;
            for (; jj < k; ++jj) {
                const __m128 x = _mm_mul_ss(_mm_set_ss(src[jj]),
                                            _mm_set_ss(inv));
                q[jj] = static_cast<std::int8_t>(_mm_cvtss_si32(x));
            }
            for (; jj < lo + 32; ++jj)
                q[jj] = 0;
        }
    }
}

void
affineReluRowAvx512(const float *src, const float *a, const float *b,
                    std::int64_t k, bool relu, float *dst)
{
    const __m512 zero = _mm512_setzero_ps();
    std::int64_t j = 0;
    for (; j + 16 <= k; j += 16) {
        __m512 v = _mm512_fmadd_ps(_mm512_loadu_ps(a + j),
                                   _mm512_loadu_ps(src + j),
                                   _mm512_loadu_ps(b + j));
        if (relu)
            // max(v, +0): second operand returned for (-0, +0) ties,
            // matching the scalar v > 0 ? v : 0.
            v = _mm512_maskz_max_ps(kAll, v, zero);
        _mm512_storeu_ps(dst + j, v);
    }
    if (j < k) {
        const __mmask16 m = static_cast<__mmask16>((1u << (k - j)) - 1u);
        __m512 v = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + j),
                                   _mm512_maskz_loadu_ps(m, src + j),
                                   _mm512_maskz_loadu_ps(m, b + j));
        if (relu)
            v = _mm512_maskz_max_ps(kAll, v, zero);
        _mm512_mask_storeu_ps(dst + j, m, v);
    }
}

// leca-analyze: entry
void
convDirectF32Avx512(const ConvDirectF32Args &g)
{
    // Balanced channel tiles (17 -> 6,6,5), each swept over the band's
    // rows in x chunks of up to kConvAccRegs/CO vectors.
    const int ntiles = (g.cout + kConvMaxCo - 1) / kConvMaxCo;
    for (int tile = 0, co0 = 0; tile < ntiles; ++tile) {
        const int co = (g.cout - co0 + (ntiles - tile) - 1) / (ntiles - tile);
        const int xv_max = kConvAccRegs / co < kConvMaxXv
                               ? kConvAccRegs / co
                               : kConvMaxXv;
        for (int r = 0; r < g.rows; ++r)
            for (int x0 = 0; x0 < g.ow;) {
                const int nvec = (g.ow - x0 + 15) / 16;
                const int xv = nvec < xv_max ? nvec : xv_max;
                kConvTiles[(co - 1) * kConvMaxXv + xv - 1](g, co0, r, x0,
                                                            g.ow - x0);
                x0 += 16 * xv;
            }
        co0 += co;
    }
}

void
dequantizeRowAvx512(const std::int8_t *q, const float *scales,
                    std::int64_t k, float *dst)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        const float s = scales[b];
        if (lo + 32 <= k) {
            const __m512 sv = _mm512_set1_ps(s);
            for (int h = 0; h < 2; ++h) {
                const __m128i q8 = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(q + lo + 16 * h));
                const __m512i q32 = _mm512_maskz_cvtepi8_epi32(kAll, q8);
                const __m512 f = _mm512_maskz_cvtepi32_ps(kAll, q32);
                _mm512_storeu_ps(dst + lo + 16 * h,
                                 _mm512_mul_ps(f, sv));
            }
        } else {
            for (std::int64_t jj = lo; jj < k; ++jj)
                dst[jj] = static_cast<float>(q[jj]) * s;
        }
    }
}

} // namespace leca::simd::detail

#endif // __AVX512F__ && __AVX512BW__
