#include "kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/isa.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

namespace {

constexpr int MR = kMicroM;
constexpr int NR = kMicroN;

std::int64_t
roundUp(std::int64_t v, std::int64_t unit)
{
    return (v + unit - 1) / unit * unit;
}

/**
 * Rows per parallel chunk: enough work to amortise a pool dispatch
 * (~32 Kflop), aiming for ~16 chunks on big problems, capped by
 * kBlockM so a packed A chunk stays cache-resident. Depends only on
 * the problem shape — never on the thread count — so the work
 * decomposition is reproducible (DESIGN.md §7).
 */
std::int64_t
chunkRows(std::int64_t m, std::int64_t n, std::int64_t k)
{
    constexpr std::int64_t min_chunk_flops = 1 << 15;
    const std::int64_t flops_per_row = std::max<std::int64_t>(1, 2 * k * n);
    const std::int64_t by_work =
        (min_chunk_flops + flops_per_row - 1) / flops_per_row;
    const std::int64_t target =
        std::clamp<std::int64_t>((m + 15) / 16, MR, kBlockM);
    return roundUp(std::max(by_work, target), MR);
}

/**
 * Pack all k×n of B into kMicroN-wide column panels. Panel p holds
 * columns [p*NR, p*NR + NR); element (kk, lane) sits at
 * bp[p*k*NR + kk*NR + lane]; lanes past n are zero-filled so the
 * micro-kernel never needs a column tail path.
 */
void
packB(const float *b, std::int64_t ldb, bool trans, std::int64_t k,
      std::int64_t n, float *bp)
{
    for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
        const int nr = static_cast<int>(std::min<std::int64_t>(NR, n - j0));
        float *panel = bp + (j0 / NR) * k * NR;
        if (!trans) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float *srow = b + kk * ldb + j0;
                float *drow = panel + kk * NR;
                for (int l = 0; l < nr; ++l)
                    drow[l] = srow[l];
                for (int l = nr; l < NR; ++l)
                    drow[l] = 0.0f;
            }
        } else {
            // B stored n×k: column j of the logical B is row j0+l of
            // the storage, read sequentially per lane.
            for (int l = 0; l < nr; ++l) {
                const float *scol = b + (j0 + l) * ldb;
                for (std::int64_t kk = 0; kk < k; ++kk)
                    panel[kk * NR + l] = scol[kk];
            }
            for (int l = nr; l < NR; ++l)
                for (std::int64_t kk = 0; kk < k; ++kk)
                    panel[kk * NR + l] = 0.0f;
        }
    }
}

/**
 * Pack rows [i0, i1) × k-slice [k0, k0+kc) of A into kMicroM-tall
 * panels: panel q holds rows i0+q*MR ..; element (r, kk) sits at
 * ap[q*kc*MR + kk*MR + r]; rows past i1 are zero-filled.
 */
void
packA(const float *a, std::int64_t lda, bool trans, std::int64_t i0,
      std::int64_t i1, std::int64_t k0, std::int64_t kc, float *ap)
{
    for (std::int64_t ii = i0; ii < i1; ii += MR) {
        const int mr = static_cast<int>(std::min<std::int64_t>(MR, i1 - ii));
        float *panel = ap + ((ii - i0) / MR) * kc * MR;
        if (!trans) {
            for (int r = 0; r < mr; ++r) {
                const float *srow = a + (ii + r) * lda + k0;
                for (std::int64_t kk = 0; kk < kc; ++kk)
                    panel[kk * MR + r] = srow[kk];
            }
        } else {
            // A stored k×m: logical element (i, kk) is a[kk*lda + i].
            for (std::int64_t kk = 0; kk < kc; ++kk) {
                const float *srow = a + (k0 + kk) * lda + ii;
                for (int r = 0; r < mr; ++r)
                    panel[kk * MR + r] = srow[r];
            }
        }
        if (mr < MR)
            for (std::int64_t kk = 0; kk < kc; ++kk)
                for (int r = mr; r < MR; ++r)
                    panel[kk * MR + r] = 0.0f;
    }
}

/**
 * The shared engine: rows of C distributed over the pool, k blocked by
 * kBlockK, B already packed (shared, read-only; the pool's task
 * publication orders the pack before any worker read).
 *
 * The micro-kernel comes from the runtime-dispatched KernelSet
 * (tensor/isa.hh); the pointer is snapshotted once here, before the
 * parallel region, so one GEMM can never tear across two ISA variants
 * even under a test-scoped override. All variants compute identical
 * per-lane accumulation chains (simd.hh), so the dispatch choice never
 * changes the result.
 */
void
gemmWithPackedB(std::int64_t m, std::int64_t n, std::int64_t k,
                const float *a, std::int64_t lda, bool trans_a,
                const float *bp, float *c, std::int64_t ldc,
                bool accumulate)
{
    const simd::MicroF32Fn micro = activeKernels().microF32;
    const std::int64_t grain = chunkRows(m, n, k);
    parallelFor(0, m, grain,
                [&](std::int64_t i0, std::int64_t i1) {
        Arena::Scope scope;
        const std::int64_t kc_max = std::min<std::int64_t>(k, kBlockK);
        // Sized by the grain, not this chunk's rows: chunks are claimed
        // dynamically, so every chunk must make the same arena demand
        // or a worker warmed on the short tail chunk would have to grow
        // (i.e. heap-allocate) when it later claims a full one.
        float *ap = Arena::local().alloc(static_cast<std::size_t>(
            roundUp(std::min(grain, m), MR) * kc_max));
        for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
            const std::int64_t kc = std::min<std::int64_t>(kBlockK, k - k0);
            packA(a, lda, trans_a, i0, i1, k0, kc, ap);
            const bool first = k0 == 0 && !accumulate;
            for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
                const int nr =
                    static_cast<int>(std::min<std::int64_t>(NR, n - j0));
                const float *bpp = bp + (j0 / NR) * k * NR + k0 * NR;
                for (std::int64_t ii = i0; ii < i1; ii += MR) {
                    const int mr = static_cast<int>(
                        std::min<std::int64_t>(MR, i1 - ii));
                    micro(kc, ap + ((ii - i0) / MR) * kc * MR, bpp,
                          c + ii * ldc + j0, ldc, mr, nr, first);
                }
            }
        }
    });
}

/** Zero the m×n extent of C (the k == 0, no-accumulate edge). */
void
zeroC(std::int64_t m, std::int64_t n, float *c, std::int64_t ldc)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
}

/**
 * [lo, hi) range of output positions o for which i = o*stride + k - pad
 * lands inside [0, extent). Hoists the per-element bounds test out of
 * the im2col/col2im inner loops: only the clipped edge segments differ,
 * and for the common interior the loop body is branch-free.
 */
inline void
validRange(int extent, int count, int stride, int pad, int k, int &lo,
           int &hi)
{
    const int a = pad - k;
    lo = a > 0 ? (a + stride - 1) / stride : 0;
    const int b = extent - 1 + pad - k;
    hi = b >= 0 ? std::min(count - 1, b / stride) + 1 : 0;
    lo = std::min(lo, count);
    if (hi < lo)
        hi = lo;
}

/**
 * im2col for one kernel-offset row (ch, ky, kx) of the column matrix,
 * writing the OH*OW values through @p emit (either the row-major
 * column matrix or the packed-panel layout). The three x segments
 * (left clip, interior, right clip) emit exactly the values the
 * per-element bounds test would, in the same j order.
 */
template <typename Emit>
void
im2colRow(const float *src, int h, int w, int stride, int pad, int ch,
          int ky, int kx, int oh, int ow, const Emit &emit)
{
    const float *plane = src + static_cast<std::size_t>(ch) * h * w;
    int ox_lo, ox_hi;
    validRange(w, ow, stride, pad, kx, ox_lo, ox_hi);
    std::int64_t j = 0;
    for (int oy = 0; oy < oh; ++oy) {
        const int iy = oy * stride + ky - pad;
        if (iy < 0 || iy >= h) {
            for (int ox = 0; ox < ow; ++ox)
                emit(j++, 0.0f);
            continue;
        }
        const float *row = plane + static_cast<std::size_t>(iy) * w;
        for (int ox = 0; ox < ox_lo; ++ox)
            emit(j++, 0.0f);
        for (int ox = ox_lo; ox < ox_hi; ++ox)
            emit(j++, row[ox * stride + kx - pad]);
        for (int ox = ox_hi; ox < ow; ++ox)
            emit(j++, 0.0f);
    }
}

/**
 * Pack the virtual im2col matrix of one image directly into the
 * kMicroN-wide panel layout packB produces — the column matrix is
 * never materialised.
 */
void
packBIm2col(const float *image, int cin, int h, int w, int kh, int kw,
            int stride, int pad, int oh, int ow, float *bp)
{
    const std::int64_t kdim =
        static_cast<std::int64_t>(cin) * kh * kw;
    const std::int64_t n = static_cast<std::int64_t>(oh) * ow;
    const std::int64_t panel_stride = kdim * NR;
    for (std::int64_t kk = 0; kk < kdim; ++kk) {
        const int kx = static_cast<int>(kk % kw);
        const int ky = static_cast<int>(kk / kw) % kh;
        const int ch = static_cast<int>(kk / (kh * kw));
        float *out = bp + kk * NR; // Panel row kk, advanced panel-by-panel.
        int lane = 0;
        im2colRow(image, h, w, stride, pad, ch, ky, kx, oh, ow,
                  [&](std::int64_t, float v) {
                      out[lane] = v;
                      if (++lane == NR) {
                          lane = 0;
                          out += panel_stride;
                      }
                  });
        // Zero-fill the dead lanes of the final panel.
        for (std::int64_t j = n; j % NR != 0; ++j) {
            out[lane] = 0.0f;
            if (++lane == NR) {
                lane = 0;
                out += panel_stride;
            }
        }
    }
}

} // namespace

void
gemmBlocked(std::int64_t m, std::int64_t n, std::int64_t k, const float *a,
            std::int64_t lda, bool trans_a, const float *b,
            std::int64_t ldb, bool trans_b, float *c, std::int64_t ldc,
            bool accumulate)
{
    if (m <= 0 || n <= 0)
        return;
    if (k <= 0) {
        if (!accumulate)
            zeroC(m, n, c, ldc);
        return;
    }
    Arena::Scope scope;
    float *bp = Arena::local().alloc(
        static_cast<std::size_t>(roundUp(n, NR) * k));
    packB(b, ldb, trans_b, k, n, bp);
    gemmWithPackedB(m, n, k, a, lda, trans_a, bp, c, ldc, accumulate);
}

void
gemmReference(std::int64_t m, std::int64_t n, std::int64_t k,
              const float *a, std::int64_t lda, bool trans_a,
              const float *b, std::int64_t ldb, bool trans_b, float *c,
              std::int64_t ldc, bool accumulate)
{
    if (!accumulate)
        zeroC(m, n, c, ldc);
    for (std::int64_t i = 0; i < m; ++i) {
        float *crow = c + i * ldc;
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float av = trans_a ? a[kk * lda + i] : a[i * lda + kk];
            if (!trans_b) {
                const float *brow = b + kk * ldb;
                for (std::int64_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            } else {
                for (std::int64_t j = 0; j < n; ++j)
                    crow[j] += av * b[j * ldb + kk];
            }
        }
    }
}

void
im2colRaw(const float *src, int c, int h, int w, int kh, int kw,
          int stride, int pad, float *dst)
{
    const int oh = (h + 2 * pad - kh) / stride + 1;
    const int ow = (w + 2 * pad - kw) / stride + 1;
    const std::int64_t ncols = static_cast<std::int64_t>(oh) * ow;
    const std::int64_t kdim = static_cast<std::int64_t>(c) * kh * kw;
    for (std::int64_t kk = 0; kk < kdim; ++kk) {
        const int kx = static_cast<int>(kk % kw);
        const int ky = static_cast<int>(kk / kw) % kh;
        const int ch = static_cast<int>(kk / (kh * kw));
        float *row = dst + kk * ncols;
        im2colRow(src, h, w, stride, pad, ch, ky, kx, oh, ow,
                  [&](std::int64_t j, float v) { row[j] = v; });
    }
}

void
col2imRaw(const float *cols, int channels, int height, int width, int kh,
          int kw, int stride, int pad, float *dst)
{
    const int oh = (height + 2 * pad - kh) / stride + 1;
    const int ow = (width + 2 * pad - kw) / stride + 1;
    for (int ch = 0; ch < channels; ++ch) {
        for (int ky = 0; ky < kh; ++ky) {
            for (int kx = 0; kx < kw; ++kx) {
                const int row = (ch * kh + ky) * kw + kx;
                const float *srow =
                    cols + static_cast<std::size_t>(row) * oh * ow;
                // Out-of-range positions were skipped, not accumulated:
                // restricting ox to the valid range performs the same
                // += operations in the same order, branch-free.
                int ox_lo, ox_hi;
                validRange(width, ow, stride, pad, kx, ox_lo, ox_hi);
                for (int oy = 0; oy < oh; ++oy) {
                    const int iy = oy * stride + ky - pad;
                    if (iy < 0 || iy >= height)
                        continue;
                    float *drow =
                        dst + (static_cast<std::size_t>(ch) * height + iy)
                              * width;
                    const float *s = srow + static_cast<std::size_t>(oy) * ow;
                    for (int ox = ox_lo; ox < ox_hi; ++ox)
                        drow[ox * stride + kx - pad] += s[ox];
                }
            }
        }
    }
}

namespace {

/**
 * Target MACs per direct-conv work unit (one image's output-row band):
 * large enough to amortise a pool dispatch and the band's halo rows,
 * small enough that a batch-1 frame of a wide layer still spreads
 * over the pool.
 */
constexpr std::int64_t kDirectBandMacs = std::int64_t{1} << 20;

/** Output rows per band — a function of the shape only (DESIGN.md §7). */
int
directBandRows(int oh, int ow, int cout, std::int64_t kdim)
{
    const std::int64_t per_row =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(ow) * cout * kdim);
    return static_cast<int>(std::clamp<std::int64_t>(
        (kDirectBandMacs + per_row - 1) / per_row, 1, oh));
}

/**
 * Output rows [oy0, oy0 + rows) of one image through the direct conv
 * slot: copy the input rows the band reads into a zero-haloed arena
 * buffer (the +0 values im2col pads with), then one kernel call. The
 * buffer is sized by @p band_rows, not @p rows, so every unit of a
 * conv makes the same arena demand (see gemmWithPackedB).
 */
void
directConvBand(simd::ConvDirectF32Fn fn, const float *image, int cin, int h,
               int w, int kh, int kw, int pad, int oy0, int rows,
               int band_rows, const float *wmat, int cout, const float *bias,
               const ConvEpilogue &epi, float *dst, int oh, int ow)
{
    const std::int64_t ld = roundUp(ow, simd::kConvDirectLanes) + kw - 1;
    const std::int64_t hrows = band_rows + kh - 1;
    Arena::Scope scope;
    float *halo = Arena::local().alloc(
        static_cast<std::size_t>(cin * hrows * ld));
    for (int ci = 0; ci < cin; ++ci) {
        const float *plane = image + static_cast<std::int64_t>(ci) * h * w;
        for (int hr = 0; hr < rows + kh - 1; ++hr) {
            float *drow = halo + (ci * hrows + hr) * ld;
            const int iy = oy0 + hr - pad;
            if (iy < 0 || iy >= h) {
                std::fill(drow, drow + ld, 0.0f);
                continue;
            }
            std::fill(drow, drow + pad, 0.0f);
            std::memcpy(drow + pad, plane + static_cast<std::int64_t>(iy) * w,
                        static_cast<std::size_t>(w) * sizeof(float));
            std::fill(drow + pad + w, drow + ld, 0.0f);
        }
    }
    simd::ConvDirectF32Args args;
    args.in = halo;
    args.ld = ld;
    args.plane = hrows * ld;
    args.w = wmat;
    args.bias = bias;
    args.a = epi.a;
    args.b = epi.b;
    args.relu = epi.relu;
    args.out = dst + static_cast<std::int64_t>(oy0) * ow;
    args.ostride = static_cast<std::int64_t>(oh) * ow;
    args.cin = cin;
    args.cout = cout;
    args.kh = kh;
    args.kw = kw;
    args.ow = ow;
    args.rows = rows;
    fn(args);
}

/** The im2col + blocked GEMM conv of one image (convForwardBatch). */
void
packedConvImage(const float *image, int cin, int h, int w, int kh, int kw,
                int stride, int pad, const float *wmat, int cout,
                const float *bias, float *dst, int oh, int ow)
{
    const std::int64_t kdim = static_cast<std::int64_t>(cin) * kh * kw;
    const std::int64_t n = static_cast<std::int64_t>(oh) * ow;
    Arena::Scope scope;
    float *bp = Arena::local().alloc(
        static_cast<std::size_t>(roundUp(n, NR) * kdim));
    packBIm2col(image, cin, h, w, kh, kw, stride, pad, oh, ow, bp);
    gemmWithPackedB(cout, n, kdim, wmat, kdim, false, bp, dst, n, false);
    if (bias) {
        // Second in-place pass, not bias-initialised accumulation: the
        // result stays (sum of products) + b, bit-matching the GEMM +
        // bias pass in conv2dImage.
        for (int co = 0; co < cout; ++co) {
            const float b = bias[co];
            float *drow = dst + static_cast<std::size_t>(co) * n;
            for (std::int64_t p = 0; p < n; ++p)
                drow[p] += b;
        }
    }
}

} // namespace

bool
convUsesDirect(int cin, int cout, int stride, int ow)
{
    return stride == 1
           && (ow >= kDirectMinWidth
               || (cout <= kDirectNarrowCout && cin <= kDirectNarrowCin));
}

// leca-analyze: entry
void
convForwardBatch(const float *x, int n, int cin, int h, int w, int kh,
                 int kw, int stride, int pad, const float *wmat, int cout,
                 const float *bias, float *dst, const ConvEpilogue &epi)
{
    const int oh = (h + 2 * pad - kh) / stride + 1;
    const int ow = (w + 2 * pad - kw) / stride + 1;
    LECA_CHECK(oh > 0 && ow > 0, "conv output ", oh, "x", ow, " for input ",
               h, "x", w, " kernel ", kh, "x", kw);
    const std::int64_t in_sz = static_cast<std::int64_t>(cin) * h * w;
    const std::int64_t out_sz = static_cast<std::int64_t>(cout) * oh * ow;
    if (!convUsesDirect(cin, cout, stride, ow)) {
        const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
        parallelFor(0, n, 1, [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) {
                float *out = dst + i * out_sz;
                packedConvImage(x + i * in_sz, cin, h, w, kh, kw, stride,
                                pad, wmat, cout, bias, out, oh, ow);
                if (epi.a == nullptr && !epi.relu)
                    continue;
                // The direct kernel's epilogue, as its own pass.
                for (int co = 0; co < cout; ++co) {
                    float *plane = out + co * ohow;
                    if (epi.a)
                        for (std::int64_t p = 0; p < ohow; ++p)
                            plane[p] = std::fmaf(epi.a[co], plane[p],
                                                 epi.b[co]);
                    if (epi.relu)
                        for (std::int64_t p = 0; p < ohow; ++p)
                            plane[p] = plane[p] > 0.0f ? plane[p] : 0.0f;
                }
            }
        });
        return;
    }
    // Snapshotted once, before the parallel region, like the GEMM's
    // micro-kernel: one conv never tears across two ISA variants.
    const simd::ConvDirectF32Fn fn = activeKernels().convDirectF32;
    const int band = directBandRows(
        oh, ow, cout, static_cast<std::int64_t>(cin) * kh * kw);
    const std::int64_t nbands = (oh + band - 1) / band;
    parallelFor(0, n * nbands, 1, [&](std::int64_t u0, std::int64_t u1) {
        for (std::int64_t u = u0; u < u1; ++u) {
            const std::int64_t i = u / nbands;
            const int oy0 = static_cast<int>(u % nbands) * band;
            directConvBand(fn, x + i * in_sz, cin, h, w, kh, kw, pad, oy0,
                           std::min(band, oh - oy0), band, wmat, cout, bias,
                           epi, dst + i * out_sz, oh, ow);
        }
    });
}

} // namespace leca
