/**
 * @file
 * AVX2 kernels. Compiled with -mavx2 -ffp-contract=off; nothing in
 * this TU may be inlined elsewhere (see simd.hh).
 *
 * fp32: two 8-lane accumulator vectors per micro-tile row, explicit
 * VMULPS+VADDPS (never VFMADD — the cross-ISA bit-exactness policy).
 * C-edge tiles use VMASKMOVPS so there is no separate tail path; the
 * packed panels are already zero-padded along both k and n.
 *
 * int8: the VPMADDUBSW sign trick (ggml-style) on signed A and
 * unbiased packed B: |a| as the unsigned operand and sign(a)·w as the
 * signed one, so each product is a·w. Quantization never produces
 * -128, which bounds every s16 pair sum by 2·127·127 < 32767 —
 * VPMADDUBSW cannot saturate. (Biasing A to unsigned bytes instead, as
 * the VNNI kernel does, would: 2·255·127 > 32767.) VPMADDWD against
 * ones then yields exact int32 4-element group sums, added into the
 * block's int32 dot. This kernel also serves AVX-512 hosts without
 * VNNI.
 *
 * Direct conv: CO output channels × XV 8-lane vectors of one output row
 * per register tile (CO·XV <= 12 accumulators, leaving ymm for the
 * weight broadcast and the products), VMULPS+VADDPS per tap with the
 * input row loads folded in, VMASKMOVPS for the row tail.
 */

#if defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <cstring>
#include <utility>

#include "tensor/simd.hh"

namespace leca::simd::detail {

namespace {

/** Lane mask for an 8-float vector covering lanes [base, base+8) of a
 *  row whose live extent is @p nr. */
inline __m256i
laneMask(int nr, int base)
{
    const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(nr - base), idx);
}

constexpr std::int64_t L = kPackedQ8Cols;

/**
 * R A rows × H 8-column halves of one 16-column weight tile, over all
 * nb blocks: one float chain per output element, one fused update per
 * block, exactly the GemmQ8PackedFn contract. A tile with at most 8
 * live columns (e.g. a 3-channel conv head) runs only its first half.
 * R·H = 4 keeps the int32 and float accumulators, the weight halves,
 * the broadcast A group, its absolute value and the ones vector within
 * the 16 ymm registers.
 */
template <int R, int H>
void
tileKernel(const std::int8_t *qa, const float *sa, const PackedQ8View &b,
           std::int64_t tile, float *c, std::int64_t ldc)
{
    const std::int64_t nb = b.nb;
    const __m256i ones = _mm256_set1_epi16(1);
    __m256 facc[R][H];
    for (int r = 0; r < R; ++r)
        for (int h = 0; h < H; ++h)
            facc[r][h] = _mm256_setzero_ps();
    for (std::int64_t blk = 0; blk < nb; ++blk) {
        const std::int8_t *w = b.q + (tile * nb + blk) * 32 * L;
        __m256i acc[R][H];
        for (int r = 0; r < R; ++r)
            for (int h = 0; h < H; ++h)
                acc[r][h] = _mm256_setzero_si256();
        for (int g = 0; g < 8; ++g) {
            __m256i wv[H];
            for (int h = 0; h < H; ++h)
                wv[h] = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(w + g * 64 + h * 32));
            for (int r = 0; r < R; ++r) {
                std::int32_t a4;
                std::memcpy(&a4, qa + (r * nb + blk) * 32 + 4 * g, 4);
                const __m256i av = _mm256_set1_epi32(a4);
                const __m256i ax = _mm256_sign_epi8(av, av);
                for (int h = 0; h < H; ++h) {
                    const __m256i p =
                        _mm256_maddubs_epi16(ax, _mm256_sign_epi8(wv[h], av));
                    acc[r][h] = _mm256_add_epi32(acc[r][h],
                                                 _mm256_madd_epi16(p, ones));
                }
            }
        }
        const float *sw = b.scales + (tile * nb + blk) * L;
        for (int h = 0; h < H; ++h) {
            const __m256 swh = _mm256_loadu_ps(sw + 8 * h);
            for (int r = 0; r < R; ++r)
                facc[r][h] = _mm256_fmadd_ps(
                    _mm256_mul_ps(_mm256_set1_ps(sa[r * nb + blk]), swh),
                    _mm256_cvtepi32_ps(acc[r][h]), facc[r][h]);
        }
    }
    const int live = static_cast<int>(b.n - tile * L < L ? b.n - tile * L : L);
    for (int h = 0; h < H; ++h) {
        const __m256i mask = laneMask(live, 8 * h);
        for (int r = 0; r < R; ++r)
            _mm256_maskstore_ps(c + r * ldc + 8 * h, mask, facc[r][h]);
    }
}

/** Rows [i0, ie) against one tile: R-row register tiles, then singles. */
template <int R, int H>
void
tileRows(std::int64_t i0, std::int64_t ie, const std::int8_t *qa,
         const float *sa, const PackedQ8View &b, std::int64_t tile,
         float *c, std::int64_t ldc)
{
    const std::int64_t nb = b.nb;
    std::int64_t i = i0;
    for (; i + R <= ie; i += R)
        tileKernel<R, H>(qa + i * nb * 32, sa + i * nb, b, tile,
                         c + i * ldc + tile * L, ldc);
    for (; i < ie; ++i)
        tileKernel<1, H>(qa + i * nb * 32, sa + i * nb, b, tile,
                         c + i * ldc + tile * L, ldc);
}

constexpr int kConvMaxCo = 4;
constexpr int kConvMaxXv = 4;
constexpr int kConvAccRegs = 12;

/**
 * Output channels [co0, co0+CO) × lanes [x0, x0 + 8·XV) of output row
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
    __m256 acc[CO][XV];
    for (int c = 0; c < CO; ++c)
        for (int j = 0; j < XV; ++j)
            acc[c][j] = _mm256_setzero_ps();
    // One flat loop over the taps, (ci, ky, kx) ascending: measured
    // 10-20 % faster than nested ci/ky/kx loops, whose kx trip count is
    // only kw.
    const float *row = g.in + static_cast<std::int64_t>(r) * g.ld + x0;
    const std::int64_t next_plane = g.plane - (g.kh - 1) * g.ld;
    for (std::int64_t t = 0, kx = 0, ky = 0; t < kdim; ++t) {
        for (int c = 0; c < CO; ++c) {
            // set1, not _mm256_broadcast_ss: with the latter GCC 12
            // stores every accumulator back to the stack on each tap.
            const __m256 wb = _mm256_set1_ps(wt[c * kdim + t]);
            for (int j = 0; j < XV; ++j)
                acc[c][j] = _mm256_add_ps(
                    acc[c][j],
                    _mm256_mul_ps(wb, _mm256_loadu_ps(row + kx + 8 * j)));
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
    const __m256 zero = _mm256_setzero_ps();
    for (int c = 0; c < CO; ++c) {
        const int co = co0 + c;
        float *orow = g.out + co * g.ostride
                      + static_cast<std::int64_t>(r) * g.ow + x0;
        for (int j = 0; j < XV; ++j) {
            __m256 v = acc[c][j];
            if (g.bias)
                v = _mm256_add_ps(v, _mm256_set1_ps(g.bias[co]));
            if (g.a)
                v = _mm256_fmadd_ps(_mm256_set1_ps(g.a[co]), v,
                                    _mm256_set1_ps(g.b[co]));
            if (g.relu)
                // max(v, +0): the second operand is returned for NaN and
                // for (-0, +0) ties, matching the scalar v > 0 ? v : 0.
                v = _mm256_max_ps(v, zero);
            if (live - 8 * j >= 8)
                _mm256_storeu_ps(orow + 8 * j, v);
            else
                _mm256_maskstore_ps(orow + 8 * j, laneMask(live, 8 * j), v);
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
microF32Avx2(std::int64_t kc, const float *ap, const float *bp, float *c,
             std::int64_t ldc, int mr, int nr, bool first)
{
    const __m256i m0 = laneMask(nr, 0);
    const __m256i m1 = laneMask(nr, 8);
    __m256 acc[4][2];
    for (int r = 0; r < 4; ++r) {
        if (!first && r < mr) {
            acc[r][0] = _mm256_maskload_ps(c + r * ldc, m0);
            acc[r][1] = _mm256_maskload_ps(c + r * ldc + 8, m1);
        } else {
            acc[r][0] = _mm256_setzero_ps();
            acc[r][1] = _mm256_setzero_ps();
        }
    }
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(bp + kk * 16);
        const __m256 b1 = _mm256_loadu_ps(bp + kk * 16 + 8);
        const float *arow = ap + kk * 4;
        for (int r = 0; r < 4; ++r) {
            const __m256 av = _mm256_broadcast_ss(arow + r);
            acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
            acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
        }
    }
    for (int r = 0; r < mr; ++r) {
        _mm256_maskstore_ps(c + r * ldc, m0, acc[r][0]);
        _mm256_maskstore_ps(c + r * ldc + 8, m1, acc[r][1]);
    }
}

// leca-analyze: entry
void
gemmQ8PackedAvx2(std::int64_t m, const std::int8_t *qa, const float *sa,
                 const PackedQ8View &b, float *c, std::int64_t ldc)
{
    // 16-row A panels stay L1-resident while they sweep every tile.
    constexpr std::int64_t kPanelRows = 16;
    const std::int64_t tiles = (b.n + L - 1) / L;
    for (std::int64_t i0 = 0; i0 < m; i0 += kPanelRows) {
        const std::int64_t ie = m - i0 < kPanelRows ? m : i0 + kPanelRows;
        for (std::int64_t t = 0; t < tiles; ++t) {
            if (b.n - t * L > 8)
                tileRows<2, 2>(i0, ie, qa, sa, b, t, c, ldc);
            else
                tileRows<4, 1>(i0, ie, qa, sa, b, t, c, ldc);
        }
    }
}

void
quantizeRowAvx2(const float *src, std::int64_t k, std::int8_t *q,
                float *scales)
{
    const std::int64_t nb = (k + 31) / 32;
    const __m256 absMask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        if (lo + 32 <= k) {
            const __m256 v0 = _mm256_loadu_ps(src + lo);
            const __m256 v1 = _mm256_loadu_ps(src + lo + 8);
            const __m256 v2 = _mm256_loadu_ps(src + lo + 16);
            const __m256 v3 = _mm256_loadu_ps(src + lo + 24);
            __m256 mx = _mm256_max_ps(_mm256_and_ps(v0, absMask),
                                      _mm256_and_ps(v1, absMask));
            mx = _mm256_max_ps(mx, _mm256_and_ps(v2, absMask));
            mx = _mm256_max_ps(mx, _mm256_and_ps(v3, absMask));
            __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(mx),
                                   _mm256_extractf128_ps(mx, 1));
            m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
            m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 0x55));
            const float amax = _mm_cvtss_f32(m4);
            const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
            scales[b] = amax / 127.0f;
            const __m256 iv = _mm256_set1_ps(inv);
            // Round-to-nearest-even conversion — identical to the
            // scalar nearbyintf under the default rounding mode.
            __m256i i0 = _mm256_cvtps_epi32(_mm256_mul_ps(v0, iv));
            __m256i i1 = _mm256_cvtps_epi32(_mm256_mul_ps(v1, iv));
            __m256i i2 = _mm256_cvtps_epi32(_mm256_mul_ps(v2, iv));
            __m256i i3 = _mm256_cvtps_epi32(_mm256_mul_ps(v3, iv));
            // Narrow 32 s32 -> 32 s8. The saturating packs are
            // value-preserving (everything is in ±127); the permute
            // undoes their per-128-bit-lane interleaving.
            i0 = _mm256_packs_epi32(i0, i1);
            i2 = _mm256_packs_epi32(i2, i3);
            i0 = _mm256_packs_epi16(i0, i2);
            const __m256i perm =
                _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
            i0 = _mm256_permutevar8x32_epi32(i0, perm);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(q + lo), i0);
        } else {
            // Tail block: same math, element at a time.
            const std::int64_t hi = k;
            float amax = 0.0f;
            for (std::int64_t jj = lo; jj < hi; ++jj) {
                float a = src[jj] < 0.0f ? -src[jj] : src[jj];
                amax = amax > a ? amax : a;
            }
            const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
            scales[b] = amax / 127.0f;
            std::int64_t jj = lo;
            for (; jj < hi; ++jj) {
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
affineReluRowAvx2(const float *src, const float *a, const float *b,
                  std::int64_t k, bool relu, float *dst)
{
    const __m256 zero = _mm256_setzero_ps();
    std::int64_t j = 0;
    for (; j + 8 <= k; j += 8) {
        __m256 v = _mm256_fmadd_ps(_mm256_loadu_ps(a + j),
                                   _mm256_loadu_ps(src + j),
                                   _mm256_loadu_ps(b + j));
        if (relu)
            // max(v, +0): the second operand is returned for (-0, +0)
            // ties, matching the scalar v > 0 ? v : 0.
            v = _mm256_max_ps(v, zero);
        _mm256_storeu_ps(dst + j, v);
    }
    for (; j < k; ++j) {
        const __m128 v = _mm_fmadd_ss(_mm_set_ss(a[j]), _mm_set_ss(src[j]),
                                      _mm_set_ss(b[j]));
        const float f = _mm_cvtss_f32(relu ? _mm_max_ss(v, _mm_setzero_ps())
                                           : v);
        dst[j] = f;
    }
}

// leca-analyze: entry
void
convDirectF32Avx2(const ConvDirectF32Args &g)
{
    // Balanced channel tiles (17 -> 4,4,3,3,3), each swept over the
    // band's rows in x chunks of up to kConvAccRegs/CO vectors.
    const int ntiles = (g.cout + kConvMaxCo - 1) / kConvMaxCo;
    for (int tile = 0, co0 = 0; tile < ntiles; ++tile) {
        const int co = (g.cout - co0 + (ntiles - tile) - 1) / (ntiles - tile);
        const int xv_max = kConvAccRegs / co < kConvMaxXv
                               ? kConvAccRegs / co
                               : kConvMaxXv;
        for (int r = 0; r < g.rows; ++r)
            for (int x0 = 0; x0 < g.ow;) {
                const int nvec = (g.ow - x0 + 7) / 8;
                const int xv = nvec < xv_max ? nvec : xv_max;
                kConvTiles[(co - 1) * kConvMaxXv + xv - 1](g, co0, r, x0,
                                                            g.ow - x0);
                x0 += 8 * xv;
            }
        co0 += co;
    }
}

void
dequantizeRowAvx2(const std::int8_t *q, const float *scales,
                  std::int64_t k, float *dst)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        const float s = scales[b];
        if (lo + 32 <= k) {
            const __m256 sv = _mm256_set1_ps(s);
            for (int h = 0; h < 4; ++h) {
                const __m128i q8 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(q + lo + 8 * h));
                const __m256i q32 = _mm256_cvtepi8_epi32(q8);
                const __m256 f = _mm256_cvtepi32_ps(q32);
                _mm256_storeu_ps(dst + lo + 8 * h,
                                 _mm256_mul_ps(f, sv));
            }
        } else {
            for (std::int64_t jj = lo; jj < k; ++jj)
                dst[jj] = static_cast<float>(q[jj]) * s;
        }
    }
}

} // namespace leca::simd::detail

#endif // __AVX2__
