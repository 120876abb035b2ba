/**
 * @file
 * The per-ISA kernel ABI behind the runtime dispatch layer (DESIGN.md
 * §12).
 *
 * Each ISA variant lives in its own translation unit
 * (kernels_scalar.cc, kernels_avx2.cc, kernels_avx512.cc,
 * kernels_avx512vnni.cc, kernels_neon.cc) compiled with that ISA's
 * target flags, and exports plain C-style function pointers collected
 * into a KernelSet by tensor/isa.cc. This header is deliberately
 * freestanding — only <cstdint> — because everything it declares is
 * included from TUs built with instruction-set flags the rest of the
 * binary must never inherit (an AVX-512 instruction inlined into
 * common code would fault on an AVX2-only host).
 *
 * Determinism contract shared by every implementation of a slot:
 *
 *  - microF32: one non-fused multiply-then-add per element per k step,
 *    ascending k, one accumulator chain per output element. Every TU
 *    that implements or compares this math is compiled with
 *    -ffp-contract=off, so scalar, AVX2, AVX-512 and NEON variants are
 *    bit-identical (the policy trades the FMA peak for cross-ISA
 *    reproducibility; the throughput headline comes from int8).
 *  - convDirectF32: the microF32 chain per output element over
 *    ascending (ci, ky, kx) — the im2col row order — so the direct conv
 *    is bit-identical to im2col + the blocked GEMM, on every ISA.
 *  - gemmQ8Packed: per-block integer dots are exact in any evaluation
 *    order; the float combine is one chain per output element — one
 *    correctly-rounded fused multiply-add per block, ascending blocks,
 *    starting at +0 (fmaf / VFMADD / FMLA compute identical bits), so
 *    all variants are bit-identical.
 *  - quantizeRow/dequantizeRow: same absmax reduction (max is exact),
 *    same float divisions, same round-to-nearest-even conversion in
 *    every variant.
 */

#ifndef LECA_TENSOR_SIMD_HH
#define LECA_TENSOR_SIMD_HH

#include <cstdint>

namespace leca {

/** Instruction-set family a KernelSet was compiled for. */
enum class Isa { Scalar, Avx2, Avx512, Neon };

namespace simd {

/**
 * fp32 micro-kernel over one packed kMicroM-tall A panel and one
 * packed kMicroN-wide B panel (layouts produced by tensor/kernels.cc).
 * @p first selects zero-initialised accumulators vs. continuing each
 * element's chain from C; only the live mr×nr corner is stored.
 */
using MicroF32Fn = void (*)(std::int64_t kc, const float *ap,
                            const float *bp, float *c, std::int64_t ldc,
                            int mr, int nr, bool first);

/** Output columns per packed weight tile (one zmm of int32 lanes). */
inline constexpr std::int64_t kPackedQ8Cols = 16;

/**
 * Read-only view of block-quantized weights in the packed GEMM layout
 * (built by QuantTensor::pack, tensor/quant.cc). Weight row j of the
 * [n, nb·32] code matrix is output column j of the GEMM. Columns are
 * grouped into tiles of kPackedQ8Cols; within a tile, for block b and
 * 4-code group g (g = 0..7), the 16 columns' 4-byte groups sit side by
 * side, so one 64-byte load is the 16-lane operand of one VPDPBUSD:
 *
 *   q      [tile][b][g][lane][4]  codes (int8, never -128)
 *   scales [tile][b][lane]        per-(column, block) scale
 *   corr   [tile][b][lane]        -128 · Σ codes of the (column, block)
 *
 * Lanes past n hold zero codes, scales and corrections. The layout is
 * the same for every ISA; corr only serves kernels that bias the A
 * operand to unsigned bytes (VNNI): Σ (a+128)·w + corr = Σ a·w.
 */
struct PackedQ8View
{
    const std::int8_t *q;
    const float *scales;
    const std::int32_t *corr;
    std::int64_t n;  //!< live output columns
    std::int64_t nb; //!< 32-element blocks per column
};

/**
 * Block-quantized GEMM over packed weights: c[i·ldc + j] for i < m,
 * j < b.n, where A row i is nb 32-element int8 blocks at qa + i·nb·32
 * with scales sa + i·nb (tails zero-padded, so padded lanes contribute
 * exactly 0).
 *
 * Pinned evaluation contract (identical in every variant):
 *   - per block b, the exact int32 dot d_b over its 32 elements —
 *     exact in float too, since |d_b| <= 32·127·127 < 2^24;
 *   - one float chain per output element, starting at +0, over blocks
 *     in ascending order: acc = fmaf(sa[b]·sb[b], float(d_b), acc),
 *     where sa[b]·sb[b] is the correctly-rounded float product and the
 *     update is fused (FMA is correctly rounded, so std::fmaf, VFMADD
 *     and FMLA produce the same bits on every ISA).
 * Nothing else is rounded, so how a variant tiles rows and columns, or
 * how the caller splits rows across threads, never changes a bit.
 */
using GemmQ8PackedFn = void (*)(std::int64_t m, const std::int8_t *qa,
                                const float *sa, const PackedQ8View &b,
                                float *c, std::int64_t ldc);

/**
 * Quantize k floats into ceil(k/32) symmetric int8 blocks:
 * scale[b] = absmax/127, q = nearbyint(x * (127/absmax)) — never ±128,
 * which the AVX2 sign-trick kernel relies on. Tail lanes of the final
 * block are written as 0.
 */
using QuantizeRowFn = void (*)(const float *src, std::int64_t k,
                               std::int8_t *q, float *scales);

/** Inverse of QuantizeRowFn: dst[j] = q[j] * scale[j/32], j < k. */
using DequantizeRowFn = void (*)(const std::int8_t *q,
                                 const float *scales, std::int64_t k,
                                 float *dst);

/**
 * Per-channel affine epilogue of the resident int8 path (DESIGN.md
 * §13): dst[j] = fma(a[j], src[j], b[j]), clamped to [0, inf) when
 * @p relu — the folded eval-mode BatchNorm (+ conv bias) and ReLU a
 * resident conv applies to each pixel row before re-quantizing it.
 * dst may alias src. Pinned structure shared by every variant: one
 * correctly-rounded FMA per element (fmaf / VFMADD / FMLA are
 * bit-identical) followed by max(v, +0.0f), so all ISAs agree bit for
 * bit — including v = -0.0f, which every variant maps to +0.0f.
 */
using AffineReluRowFn = void (*)(const float *src, const float *a,
                                 const float *b, std::int64_t k,
                                 bool relu, float *dst);

/** Lanes the direct conv's zero-haloed rows are padded to (one zmm). */
inline constexpr std::int64_t kConvDirectLanes = 16;

/**
 * One output-row band of a stride-1 convolution, read from a
 * zero-haloed copy of the input rows it touches (built by
 * tensor/kernels.cc convForwardBatch):
 *
 *   in[ci·plane + r·ld + x]   haloed input, r < rows + kh - 1; column x
 *                             is input column x - pad, and every entry
 *                             outside the image (left/right halo, rows
 *                             above/below, the tail up to ld) is +0 —
 *                             exactly the values im2col pads with
 *   w[co·kdim + (ci·kh + ky)·kw + kx]   weights, kdim = cin·kh·kw
 *   out[co·ostride + r·ow + x]          output, r < rows, x < ow
 *
 * ld >= roundUp(ow, kConvDirectLanes) + kw - 1, so a variant may load
 * whole vectors along x past ow (the dead lanes are never stored).
 */
struct ConvDirectF32Args
{
    const float *in;
    std::int64_t ld;      //!< floats per haloed row
    std::int64_t plane;   //!< floats per haloed channel plane
    const float *w;
    const float *bias;    //!< [cout], or nullptr
    const float *a;       //!< epilogue scale [cout], or nullptr
    const float *b;       //!< epilogue shift [cout]; set iff a is
    bool relu;            //!< epilogue clamp to [+0, inf)
    float *out;
    std::int64_t ostride; //!< floats between output channel planes
    int cin, cout, kh, kw;
    int ow, rows;
};

/**
 * Direct fp32 convolution of one band: no patch matrix, lanes along
 * output x, the register tile is CO output channels × XV vectors of one
 * output row. Pinned evaluation contract (identical in every variant):
 *   - acc starts at +0; for (ci, ky, kx) ascending,
 *     acc = acc + w·x — a non-fused multiply, then an add (microF32);
 *   - then acc + bias[co] when bias is given (conv2dImage's second
 *     pass);
 *   - then fmaf(a[co], acc, b[co]) when a is given, then
 *     max(acc, +0) — NaN and -0 map to +0 — when relu (the
 *     AffineReluRowFn semantics).
 * Halo lanes contribute w·(+0) like im2col's padding, so NaN, ±Inf and
 * -0 propagate as they do through im2col + gemmBlocked.
 */
using ConvDirectF32Fn = void (*)(const ConvDirectF32Args &args);

namespace detail {

// Scalar reference implementations (kernels_scalar.cc) — always
// compiled, and the bit-exactness baseline every other variant is
// pinned against in tests/test_quant.cc.
void microF32Scalar(std::int64_t kc, const float *ap, const float *bp,
                    float *c, std::int64_t ldc, int mr, int nr,
                    bool first);
void gemmQ8PackedScalar(std::int64_t m, const std::int8_t *qa,
                        const float *sa, const PackedQ8View &b, float *c,
                        std::int64_t ldc);
void quantizeRowScalar(const float *src, std::int64_t k, std::int8_t *q,
                       float *scales);
void dequantizeRowScalar(const std::int8_t *q, const float *scales,
                         std::int64_t k, float *dst);
void affineReluRowScalar(const float *src, const float *a, const float *b,
                         std::int64_t k, bool relu, float *dst);
void convDirectF32Scalar(const ConvDirectF32Args &args);

// AVX2 (kernels_avx2.cc; VPMADDUBSW int8 path via the sign trick on
// signed A and unbiased B — quantization never emits -128, so pair
// sums stay below the s16 saturation point). Also the int8 GEMM of
// AVX-512 hosts without VNNI.
void microF32Avx2(std::int64_t kc, const float *ap, const float *bp,
                  float *c, std::int64_t ldc, int mr, int nr, bool first);
void gemmQ8PackedAvx2(std::int64_t m, const std::int8_t *qa,
                      const float *sa, const PackedQ8View &b, float *c,
                      std::int64_t ldc);
void quantizeRowAvx2(const float *src, std::int64_t k, std::int8_t *q,
                     float *scales);
void dequantizeRowAvx2(const std::int8_t *q, const float *scales,
                       std::int64_t k, float *dst);
void affineReluRowAvx2(const float *src, const float *a, const float *b,
                       std::int64_t k, bool relu, float *dst);
void convDirectF32Avx2(const ConvDirectF32Args &args);

// AVX-512 F/BW/VL (kernels_avx512.cc). The int8 GEMM has no AVX-512
// implementation without VNNI — isa.cc falls back to the AVX2 one.
void microF32Avx512(std::int64_t kc, const float *ap, const float *bp,
                    float *c, std::int64_t ldc, int mr, int nr,
                    bool first);
void quantizeRowAvx512(const float *src, std::int64_t k, std::int8_t *q,
                       float *scales);
void dequantizeRowAvx512(const std::int8_t *q, const float *scales,
                         std::int64_t k, float *dst);
void affineReluRowAvx512(const float *src, const float *a, const float *b,
                         std::int64_t k, bool relu, float *dst);
void convDirectF32Avx512(const ConvDirectF32Args &args);

// AVX-512 VNNI (kernels_avx512vnni.cc): VPDPBUSD with A biased to
// unsigned bytes and the packed per-(column, block) correction.
void gemmQ8PackedVnni(std::int64_t m, const std::int8_t *qa,
                      const float *sa, const PackedQ8View &b, float *c,
                      std::int64_t ldc);

// NEON / AArch64 (kernels_neon.cc). The int8 GEMM and direct conv
// slots are the scalar references (no SDOT or NEON direct-conv kernel
// until an aarch64 host can verify one).
void microF32Neon(std::int64_t kc, const float *ap, const float *bp,
                  float *c, std::int64_t ldc, int mr, int nr, bool first);
void affineReluRowNeon(const float *src, const float *a, const float *b,
                       std::int64_t k, bool relu, float *dst);

} // namespace detail

} // namespace simd

/**
 * One ISA's full kernel complement plus the static per-cycle peak
 * estimates bench/micro_ops.cc uses for its roofline row. The peaks
 * describe the non-fused mul+add policy (see file comment), not the
 * hardware FMA ceiling.
 */
struct KernelSet
{
    const char *name;              //!< "scalar" | "avx2" | "avx512" | "neon"
    Isa isa;
    simd::MicroF32Fn microF32;
    simd::GemmQ8PackedFn gemmQ8Packed;
    simd::QuantizeRowFn quantizeRow;
    simd::DequantizeRowFn dequantizeRow;
    double f32FlopsPerCycle;       //!< theoretical fp32 flops/cycle/core
    double i8MacsPerCycle;         //!< theoretical int8 MACs/cycle/core
    //! Resident-activation epilogue (see AffineReluRowFn); every
    //! compiled-in set provides one.
    simd::AffineReluRowFn affineReluRow = nullptr;
    //! Direct conv for channel-narrow stride-1 layers (see
    //! ConvDirectF32Fn); every compiled-in set provides one.
    simd::ConvDirectF32Fn convDirectF32 = nullptr;
};

} // namespace leca

#endif // LECA_TENSOR_SIMD_HH
