/**
 * @file
 * Scalar reference kernels: the bit-exactness baseline every SIMD
 * variant is pinned against (DESIGN.md §12). Compiled with
 * -ffp-contract=off like every other kernel TU, so the explicit
 * multiply-then-add chains here are what the AVX2/AVX-512/NEON
 * variants must reproduce exactly.
 *
 * The fp32 micro-kernel is the original PR 3 compiler-vector kernel,
 * moved verbatim from kernels.cc: the GCC vector extension pins the
 * SIMD axis to the packed-B lane dimension, so even the "scalar"
 * reference autovectorises well under whatever -march the build uses —
 * per-lane chains are identical regardless of vector width.
 */

#include <cmath>
#include <cstring>

#include "tensor/kernels.hh"
#include "tensor/simd.hh"

namespace leca::simd::detail {

namespace {

constexpr int MR = kMicroM;
constexpr int NR = kMicroN;

#if defined(__GNUC__) || defined(__clang__)
typedef float VecN __attribute__((vector_size(NR * sizeof(float))));
#else
struct VecN { // Portable fallback: plain per-lane arithmetic.
    float v[NR];
    float &operator[](int l) { return v[l]; }
    VecN &operator+=(const VecN &o)
    {
        for (int l = 0; l < NR; ++l)
            v[l] += o.v[l];
        return *this;
    }
    friend VecN operator*(float s, const VecN &o)
    {
        VecN r;
        for (int l = 0; l < NR; ++l)
            r.v[l] = s * o.v[l];
        return r;
    }
};
#endif

} // namespace

void
microF32Scalar(std::int64_t kc, const float *ap, const float *bp, float *c,
               std::int64_t ldc, int mr, int nr, bool first)
{
    VecN acc[MR];
    for (int r = 0; r < MR; ++r)
        for (int l = 0; l < NR; ++l)
            acc[r][l] = (!first && r < mr && l < nr) ? c[r * ldc + l] : 0.0f;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float *arow = ap + kk * MR;
        VecN bv;
        std::memcpy(&bv, bp + kk * NR, sizeof(bv));
        for (int r = 0; r < MR; ++r)
            acc[r] += arow[r] * bv;
    }
    for (int r = 0; r < mr; ++r)
        for (int l = 0; l < nr; ++l)
            c[r * ldc + l] = acc[r][l];
}

// leca-analyze: entry
void
gemmQ8PackedScalar(std::int64_t m, const std::int8_t *qa, const float *sa,
                   const PackedQ8View &b, float *c, std::int64_t ldc)
{
    constexpr std::int64_t L = kPackedQ8Cols;
    const std::int64_t nb = b.nb;
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int8_t *arow = qa + i * nb * 32;
        const float *sarow = sa + i * nb;
        for (std::int64_t j0 = 0; j0 < b.n; j0 += L) {
            const std::int64_t tile = j0 / L;
            const std::int64_t live = b.n - j0 < L ? b.n - j0 : L;
            // The GemmQ8PackedFn contract, literally: per column one
            // float chain from +0, one fused update per block.
            float acc[L];
            for (std::int64_t l = 0; l < L; ++l)
                acc[l] = 0.0f;
            for (std::int64_t blk = 0; blk < nb; ++blk) {
                const std::int8_t *pa = arow + blk * 32;
                const std::int8_t *pw = b.q + (tile * nb + blk) * 32 * L;
                const float *sw = b.scales + (tile * nb + blk) * L;
                std::int32_t d[L] = {0};
                for (int g = 0; g < 8; ++g)
                    for (std::int64_t l = 0; l < L; ++l)
                        for (int t = 0; t < 4; ++t)
                            d[l] += static_cast<std::int32_t>(pa[4 * g + t])
                                    * static_cast<std::int32_t>(
                                        pw[(g * L + l) * 4 + t]);
                for (std::int64_t l = 0; l < L; ++l)
                    acc[l] = std::fmaf(sarow[blk] * sw[l],
                                       static_cast<float>(d[l]), acc[l]);
            }
            for (std::int64_t l = 0; l < live; ++l)
                c[i * ldc + j0 + l] = acc[l];
        }
    }
}

void
quantizeRowScalar(const float *src, std::int64_t k, std::int8_t *q,
                  float *scales)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        const std::int64_t hi = lo + 32 < k ? lo + 32 : k;
        float amax = 0.0f;
        for (std::int64_t j = lo; j < hi; ++j) {
            const float a = std::fabs(src[j]);
            amax = amax > a ? amax : a;
        }
        // 127/amax rounds to at most 127*(1+2^-23), so |x|*inv never
        // reaches 127.5: the nearest-even conversion stays in ±127 and
        // no clamp is needed (or performed) in any variant.
        const float inv = amax > 0.0f ? 127.0f / amax : 0.0f;
        scales[b] = amax / 127.0f;
        std::int64_t j = lo;
        for (; j < hi; ++j)
            q[j] = static_cast<std::int8_t>(
                static_cast<std::int32_t>(std::nearbyintf(src[j] * inv)));
        for (; j < lo + 32; ++j)
            q[j] = 0;
    }
}

void
affineReluRowScalar(const float *src, const float *a, const float *b,
                    std::int64_t k, bool relu, float *dst)
{
    if (relu) {
        for (std::int64_t j = 0; j < k; ++j) {
            // Fused by contract (simd.hh); max(v, +0) maps -0 to +0
            // like the SIMD variants' VMAXPS/FMAX against +0.
            const float v = std::fmaf(a[j], src[j], b[j]);
            dst[j] = v > 0.0f ? v : 0.0f;
        }
    } else {
        for (std::int64_t j = 0; j < k; ++j)
            dst[j] = std::fmaf(a[j], src[j], b[j]);
    }
}

// leca-analyze: entry
void
convDirectF32Scalar(const ConvDirectF32Args &g)
{
    // The ConvDirectF32Fn contract, literally, over strips of output x
    // so the per-element chains vectorise along x without reordering.
    constexpr int kStrip = 64;
    const std::int64_t kdim = static_cast<std::int64_t>(g.cin) * g.kh * g.kw;
    for (int co = 0; co < g.cout; ++co) {
        const float *wc = g.w + co * kdim;
        for (int r = 0; r < g.rows; ++r) {
            float *orow = g.out + co * g.ostride
                          + static_cast<std::int64_t>(r) * g.ow;
            for (int x0 = 0; x0 < g.ow; x0 += kStrip) {
                const int nx = g.ow - x0 < kStrip ? g.ow - x0 : kStrip;
                float acc[kStrip];
                for (int x = 0; x < nx; ++x)
                    acc[x] = 0.0f;
                const float *wt = wc;
                for (int ci = 0; ci < g.cin; ++ci)
                    for (int ky = 0; ky < g.kh; ++ky) {
                        const float *src = g.in + ci * g.plane
                                           + (r + ky) * g.ld + x0;
                        for (int kx = 0; kx < g.kw; ++kx, ++wt)
                            for (int x = 0; x < nx; ++x)
                                acc[x] = acc[x] + *wt * src[x + kx];
                    }
                for (int x = 0; x < nx; ++x) {
                    float v = acc[x];
                    if (g.bias)
                        v = v + g.bias[co];
                    if (g.a)
                        v = std::fmaf(g.a[co], v, g.b[co]);
                    if (g.relu)
                        v = v > 0.0f ? v : 0.0f;
                    orow[x0 + x] = v;
                }
            }
        }
    }
}

void
dequantizeRowScalar(const std::int8_t *q, const float *scales,
                    std::int64_t k, float *dst)
{
    const std::int64_t nb = (k + 31) / 32;
    for (std::int64_t b = 0; b < nb; ++b) {
        const std::int64_t lo = b * 32;
        const std::int64_t hi = lo + 32 < k ? lo + 32 : k;
        const float s = scales[b];
        for (std::int64_t j = lo; j < hi; ++j)
            dst[j] = static_cast<float>(q[j]) * s;
    }
}

} // namespace leca::simd::detail
