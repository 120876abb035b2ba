/**
 * @file
 * The packed, cache-blocked, register-tiled kernel core behind every
 * dense op in the simulator (DESIGN.md §8).
 *
 * One GEMM engine serves all four matrix-product flavours the stack
 * uses (C = A·B, Aᵀ·B, A·Bᵀ, and the conv im2col product): the operand
 * layout differences are absorbed entirely by the packing routines, so
 * the register-tiled micro-kernel only ever sees contiguous
 * kMicroM×kMicroN panels.
 *
 * Structure per call:
 *   1. B is packed ONCE into kMicroN-wide column panels (zero-padded
 *      tails) by the calling thread — for convolutions the im2col
 *      transform writes straight into this packed layout, so no column
 *      matrix is ever materialised on the inference path.
 *   2. A is packed ONCE into kMicroM-tall panels (k blocked by
 *      kBlockK) by the calling thread; a conv packs its weights this
 *      way once per call and reuses them for every image.
 *   3. Row chunks of C are distributed over the deterministic pool
 *      (util/parallel.hh); each drives the micro-kernel over its tiles.
 *   4. The micro-kernel keeps a kMicroM×kMicroN accumulator array in
 *      registers and issues one multiply-add per element per k step,
 *      so every output element accumulates its k contributions in
 *      ascending order with a single accumulator chain.
 *
 * Determinism contract: the k loop is never split across accumulators
 * and the k-block boundaries are fixed constants, so each output
 * element's floating-point accumulation order is a pure function of
 * the operand shapes — independent of thread count and of how the
 * row chunks are scheduled. gemmBlocked is bit-identical to
 * gemmReference at every LECA_THREADS setting (tests/test_kernels.cc).
 *
 * The one exception to "every conv funnels into gemmBlocked" is the
 * direct fp32 conv for stride-1 layers (convUsesDirect,
 * KernelSet::convDirectF32, behind convForwardBatch): it evaluates the
 * very same per-element chains without a patch matrix, so it is
 * bit-identical too.
 *
 * All scratch (packed panels, im2col buffers) comes from the
 * thread-local Arena (util/arena.hh): zero steady-state heap
 * allocations.
 */

#ifndef LECA_TENSOR_KERNELS_HH
#define LECA_TENSOR_KERNELS_HH

#include <cstdint>

namespace leca {

/** Micro-tile rows: accumulator panel height held in registers. */
inline constexpr int kMicroM = 4;

/** Micro-tile columns: one or two SIMD vectors of floats. */
inline constexpr int kMicroN = 16;

/** k-dimension block: one packed A panel row fits in L1. */
inline constexpr int kBlockK = 256;

/** Cap on rows per worker chunk (its A panels ≤ ~128 KiB, in L2). */
inline constexpr int kBlockM = 128;

/**
 * C (m×n) = A·B with optional operand transposition and accumulation.
 *
 * @param a      left operand; logical element A(i,l) is
 *               a[i*lda + l] when !trans_a, a[l*lda + i] when trans_a
 * @param b      right operand; logical element B(l,j) is
 *               b[l*ldb + j] when !trans_b, b[j*ldb + l] when trans_b
 * @param c      m×n output, row stride @p ldc
 * @param accumulate  false: overwrite C; true: C += A·B, continuing
 *               each element's accumulation chain from the stored value
 *
 * Parallelised over row chunks through the deterministic pool; inside
 * an outer parallelFor (e.g. conv over batch items) it degrades to
 * serial like every nested region.
 */
void gemmBlocked(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float *a, std::int64_t lda, bool trans_a,
                 const float *b, std::int64_t ldb, bool trans_b,
                 float *c, std::int64_t ldc, bool accumulate);

/**
 * Retained naive reference: serial i-k-j GEMM with the same
 * per-element accumulation order (single chain, k ascending, identical
 * multiply-add expression) as gemmBlocked. Used by tests to pin
 * bit-exactness of the blocked kernel and by bench/micro_ops as the
 * pre-blocking baseline.
 */
void gemmReference(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float *a, std::int64_t lda, bool trans_a,
                   const float *b, std::int64_t ldb, bool trans_b,
                   float *c, std::int64_t ldc, bool accumulate);

/**
 * im2col on a raw [C,H,W] plane; dst is a (c*kh*kw) × (OH*OW)
 * row-major matrix (the layout im2col()/conv2dImage expose).
 */
void im2colRaw(const float *src, int c, int h, int w, int kh, int kw,
               int stride, int pad, float *dst);

/**
 * Adjoint of im2colRaw: fold a (channels*kh*kw) × (OH*OW) column
 * matrix back into a [channels,height,width] plane, ACCUMULATING into
 * @p dst (callers zero- or bias-initialise it).
 */
void col2imRaw(const float *cols, int channels, int height, int width,
               int kh, int kw, int stride, int pad, float *dst);

/**
 * The shape-only rule that routes a conv to the direct fp32 conv
 * (KernelSet::convDirectF32) instead of im2col + gemmBlocked
 * (DESIGN.md §8): stride 1, and either an output row that fills at
 * least one 16-lane vector (ow >= kDirectMinWidth) or a narrow output
 * (cout <= kDirectNarrowCout, cin <= kDirectNarrowCin). Measured with
 * bench/micro_ops on AVX-512 and AVX2: the direct conv wins on every
 * shape the rule takes; the packed GEMM keeps wide-output convs on
 * narrow rows (e.g. 32->128 or 128->128 at 12x12, 64->64 at 6x6).
 */
inline constexpr int kDirectMinWidth = 16;
inline constexpr int kDirectNarrowCout = 32;
inline constexpr int kDirectNarrowCin = 64;

/** Whether a conv of this shape runs as the direct fp32 conv. */
bool convUsesDirect(int cin, int cout, int stride, int ow);

/**
 * Per-output-channel conv epilogue, applied after the bias:
 * v = fmaf(a[c], v, b[c]) when a is set (a and b are set together),
 * then max(v, +0) when relu — AffineReluRowFn semantics.
 */
struct ConvEpilogue
{
    const float *a = nullptr;
    const float *b = nullptr;
    bool relu = false;
};

/**
 * Convolution forward over a batch without materialising a column
 * matrix, x [n, cin, h, w] → dst [n, cout, OH, OW] (overwritten).
 *
 * @param wmat   weights reshaped to [cout, cin*kh*kw], row-major
 * @param bias   per-output-channel bias, or nullptr for none; added in
 *               a second pass after the product chain, matching
 *               conv2dImage
 * @param epi    per-channel epilogue after the bias (may be empty)
 *
 * Convs convUsesDirect selects run through KernelSet::convDirectF32,
 * split over (image, output-row band) units whose size depends on the
 * shape only, so a batch-1 frame also spreads over the pool; every
 * output element is computed whole by one unit, with @p epi fused into
 * the kernel. All other convs run the packed path, one image per
 * parallel unit: im2col writes straight into the packed-panel layout
 * (arena scratch), the blocked GEMM consumes it in place, and @p epi
 * runs as a pass over the planes.
 * Both are bit-identical to im2colRaw + gemmBlocked (+ the bias pass,
 * + the epilogue).
 */
void convForwardBatch(const float *x, int n, int cin, int h, int w, int kh,
                      int kw, int stride, int pad, const float *wmat,
                      int cout, const float *bias, float *dst,
                      const ConvEpilogue &epi = {});

/**
 * Whether convBackwardDataBatch computes a conv's dX for an input of
 * width @p w as the adjoint direct conv: stride 1, pad < k, and
 * convUsesDirect taking the adjoint shape (cout -> cin at width w).
 */
bool convDxUsesAdjoint(int cin, int cout, int k, int stride, int pad,
                       int w);

/**
 * Input gradient of a k×k conv over a batch (DESIGN.md §9): dy
 * [n, cout, OH, OW] → dx [n, cin, h, w], every element overwritten.
 *
 * When convDxUsesAdjoint holds, dX is one convForwardBatch over dY with
 * pad k-1-pad and the weights rotated 180° and channel-transposed, so
 * each element is one ascending (co, ky, kx) chain. Otherwise each
 * image runs col2im(Wᵀ·dY), with Wᵀ packed once for the batch; the
 * product keeps gemmBlocked's chains.
 */
void convBackwardDataBatch(const float *dy, int n, int cout,
                           const float *wmat, int cin, int h, int w, int k,
                           int stride, int pad, float *dx);

/**
 * Weight and bias gradients of a k×k conv over a batch, ACCUMULATED
 * into @p dw [cout, cin·k·k] and @p db [cout]; either may be null (a
 * frozen parameter), and with both null nothing runs.
 *
 * Each image's [dW | db] is one GEMM with dY as the A operand and the
 * image's patches packed straight into 16-lane B panels (kernel
 * offsets along the lanes, plus an all-ones column for db), so each
 * element is one chain over the output pixels in ascending order — no
 * column matrix is materialised. The per-image partials are folded in
 * ascending image order: dW summed over the batch and then added to
 * @p dw, db added to @p db image by image.
 */
void convWeightGradBatch(const float *x, int n, int cin, int h, int w,
                         int k, int stride, int pad, const float *dy,
                         int cout, float *dw, float *db);

} // namespace leca

#endif // LECA_TENSOR_KERNELS_HH
