/**
 * @file
 * The int8 block-quantization contract (DESIGN.md §12): the code
 * format's invariants (range, padding, round-trip error), the scalar
 * packed GEMM against an independent naive statement of the per-block
 * contract, bit-exact agreement of every compiled kernel set with the
 * scalar reference at adversarial shapes, determinism across thread
 * counts, closeness of quantized layer forwards to fp32, the eval-only
 * restriction, the quantized checkpoint round-trip, and heap-silence
 * of the warm quantized serving path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "data/serialize.hh"
#include "nn/conv.hh"
#include "nn/sequential.hh"
#include "nn/linear.hh"
#include "tensor/isa.hh"
#include "tensor/quant.hh"
#include "tensor/simd.hh"
#include "util/alloc_guard.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace leca {
namespace {

std::vector<float>
randomVec(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
}

/** Restores the ambient thread count after each test. */
class QuantTest : public ::testing::Test
{
  protected:
    void SetUp() override { _saved = threadCount(); }
    void TearDown() override { setThreadCount(_saved); }

  private:
    int _saved = 1;
};

struct QuantGemmShape
{
    std::int64_t m, n, k;
};

/** Shapes for the quantization agreement check: k below / at / just
 *  past one 32-element block, single rows and wide ones. */
const QuantGemmShape kQuantShapes[] = {
    {1, 1, 1},      {1, 1, 32},    {1, 7, 31},    {3, 1, 33},
    {2, 9, 64},     {5, 8, 96},    {4, 23, 160},  {15, 31, 65},
    {16, 32, 96},   {17, 33, 97},  {33, 57, 129}, {7, 129, 288},
};

void
quantPair(const QuantGemmShape &s, std::vector<std::int8_t> &qa,
          std::vector<float> &sa, QuantTensor &wq)
{
    const std::int64_t nb = quantBlocks(s.k);
    qa.assign(static_cast<std::size_t>(s.m * nb * kQuantBlock), 0);
    sa.assign(static_cast<std::size_t>(s.m * nb), 0.0f);
    const std::vector<float> a =
        randomVec(static_cast<std::size_t>(s.m * s.k), 11 * s.m + s.k);
    quantizeRowsInto(a.data(), s.m, s.k, qa.data(), sa.data());
    wq = quantizeRowMajor(
        Tensor::fromData({static_cast<int>(s.n), static_cast<int>(s.k)},
                         randomVec(static_cast<std::size_t>(s.n * s.k),
                                   13 * s.n + s.k)),
        s.n, s.k);
    wq.pack();
}

/**
 * Adversarial int8 operands for the GEMM kernels, drawn straight as
 * codes and scales: random blocks, blocks of all ±127 (|d_b| at its
 * 32·127·127 maximum, both signs), and blocks whose scale is zero.
 */
struct Q8Operands
{
    std::vector<std::int8_t> qa;
    std::vector<float> sa;
    QuantTensor w;
};

Q8Operands
adversarialOperands(std::int64_t m, std::int64_t n, std::int64_t nb,
                    std::uint64_t seed)
{
    Rng rng(seed);
    const auto fill = [&](std::int64_t rows, std::vector<std::int8_t> &q,
                          std::vector<float> &scales) {
        q.assign(static_cast<std::size_t>(rows * nb * kQuantBlock), 0);
        scales.assign(static_cast<std::size_t>(rows * nb), 0.0f);
        for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t b = 0; b < nb; ++b) {
                const int kind = static_cast<int>(rng.uniform(0.0, 8.0));
                std::int8_t *blk = q.data() + (r * nb + b) * kQuantBlock;
                for (std::int64_t t = 0; t < kQuantBlock; ++t)
                    blk[t] = kind == 0   ? 127
                             : kind == 1 ? -127
                                         : static_cast<std::int8_t>(
                                               rng.uniform(-127.49, 127.49));
                scales[static_cast<std::size_t>(r * nb + b)] =
                    kind == 2 ? 0.0f
                              : static_cast<float>(
                                    rng.uniform(1e-4, 1.0)
                                    * (kind == 3 ? 1e3 : 1.0));
            }
    };
    Q8Operands op;
    fill(m, op.qa, op.sa);
    op.w.shape = {static_cast<int>(n), static_cast<int>(nb * kQuantBlock)};
    op.w.rows = n;
    op.w.cols = nb * kQuantBlock;
    op.w.nb = nb;
    fill(n, op.w.q, op.w.scales);
    op.w.pack();
    return op;
}

TEST_F(QuantTest, RoundTripErrorBoundedByBlockScale)
{
    const std::int64_t rows = 7, cols = 105; // padded tail block
    Tensor w = Tensor::fromData(
        {static_cast<int>(rows), static_cast<int>(cols)},
        randomVec(static_cast<std::size_t>(rows * cols), 3));
    const QuantTensor qt = quantizeRowMajor(w, rows, cols);
    EXPECT_EQ(qt.nb, quantBlocks(cols));
    // Round-to-nearest against a scale of amax/127 cannot miss by more
    // than half a step of the worst block, and amax <= 1 here.
    EXPECT_LE(quantMaxAbsError(w, qt), 0.5f / 127.0f + 1e-7f);
    const Tensor r = dequantizeRowMajor(qt);
    ASSERT_EQ(r.numel(), w.numel());
}

TEST_F(QuantTest, CodesStayInSymmetricRangeAndPaddingIsZero)
{
    const std::int64_t rows = 9, cols = 70; // 3 blocks, 26 padded lanes
    Tensor w = Tensor::fromData(
        {static_cast<int>(rows), static_cast<int>(cols)},
        randomVec(static_cast<std::size_t>(rows * cols), 5));
    // Force exact extremes so the amax element maps to exactly +/-127.
    w.data()[0] = 1.7f;
    w.data()[1] = -1.7f;
    const QuantTensor qt = quantizeRowMajor(w, rows, cols);
    for (std::int64_t i = 0; i < qt.rows; ++i)
        for (std::int64_t j = 0; j < qt.nb * kQuantBlock; ++j) {
            const std::int8_t code =
                qt.q[static_cast<std::size_t>(i * qt.nb * kQuantBlock + j)];
            EXPECT_NE(code, -128) << "row " << i << " lane " << j;
            if (j >= qt.cols) {
                EXPECT_EQ(code, 0) << "padding lane " << j << " not zero";
            }
        }
}

TEST_F(QuantTest, ScalarGemmMatchesNaivePerBlockChain)
{
    // The contract written independently of the packed layout: exact
    // int64 block sums over the row-major codes, then one fmaf per
    // block from +0 in ascending block order.
    const KernelSet *scalar = kernelSetByName("scalar");
    ASSERT_NE(scalar, nullptr);
    const std::int64_t m = 5, n = 19, nb = 9;
    const Q8Operands op = adversarialOperands(m, n, nb, 71);
    std::vector<float> got(static_cast<std::size_t>(m * n), -1.0f);
    scalar->gemmQ8Packed(m, op.qa.data(), op.sa.data(), op.w.packedView(),
                         got.data(), n);
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::int64_t b = 0; b < nb; ++b) {
                std::int64_t d = 0;
                for (std::int64_t t = 0; t < kQuantBlock; ++t)
                    d += static_cast<std::int64_t>(
                             op.qa[static_cast<std::size_t>(
                                 (i * nb + b) * kQuantBlock + t)])
                         * op.w.q[static_cast<std::size_t>(
                             (j * nb + b) * kQuantBlock + t)];
                const float s = op.sa[static_cast<std::size_t>(i * nb + b)]
                                * op.w.scales[static_cast<std::size_t>(
                                    j * nb + b)];
                acc = std::fmaf(s, static_cast<float>(d), acc);
            }
            const float g = got[static_cast<std::size_t>(i * n + j)];
            EXPECT_EQ(0, std::memcmp(&g, &acc, sizeof(float)))
                << "i=" << i << " j=" << j << ": " << g << " vs " << acc;
        }
}

TEST_F(QuantTest, EveryCompiledKernelSetMatchesScalarBitForBit)
{
    const KernelSet *scalar = kernelSetByName("scalar");
    ASSERT_NE(scalar, nullptr);
    // Quantization itself must agree bit for bit across sets.
    for (const QuantGemmShape &s : kQuantShapes) {
        std::vector<std::int8_t> qa;
        std::vector<float> sa;
        QuantTensor wq;
        {
            ScopedKernelOverride force(*scalar);
            quantPair(s, qa, sa, wq);
        }
        for (const KernelSet *set : compiledKernelSets()) {
            if (!hostSupportsKernelSet(*set))
                continue;
            ScopedKernelOverride force(*set);
            std::vector<std::int8_t> qa2;
            std::vector<float> sa2;
            QuantTensor wq2;
            quantPair(s, qa2, sa2, wq2);
            EXPECT_EQ(0, std::memcmp(qa2.data(), qa.data(), qa.size()))
                << set->name << " codes diverge at m=" << s.m
                << " k=" << s.k;
            EXPECT_EQ(0, std::memcmp(sa2.data(), sa.data(),
                                     sa.size() * sizeof(float)))
                << set->name << " scales diverge at m=" << s.m
                << " k=" << s.k;
            EXPECT_EQ(wq2.q, wq.q) << set->name << " weight codes diverge";
        }
    }
    // The GEMM slot: n below / at / past one 16-column tile and two; m
    // straddling the 2- and 4-row register tiles and the 16-row panel;
    // nb from one block to past the VNNI kernel's 32-block staging
    // chunk.
    // c has a wider stride than n, so a kernel writing past the live
    // columns would clobber the sentinel gap.
    const std::int64_t ns[] = {1, 3, 15, 16, 17, 33, 128};
    const std::int64_t ms[] = {1, 2, 3, 4, 5, 7, 15, 16, 17, 33};
    const std::int64_t nbs[] = {1, 2, 9, 18, 36};
    std::uint64_t seed = 1;
    for (const std::int64_t n : ns)
        for (const std::int64_t m : ms)
            for (const std::int64_t nb : nbs) {
                const Q8Operands op = adversarialOperands(m, n, nb, seed++);
                const std::int64_t ldc = n + 3;
                std::vector<float> want(static_cast<std::size_t>(m * ldc),
                                        -7.0f);
                scalar->gemmQ8Packed(m, op.qa.data(), op.sa.data(),
                                     op.w.packedView(), want.data(), ldc);
                for (std::int64_t i = 0; i < m; ++i)
                    for (std::int64_t j = n; j < ldc; ++j)
                        ASSERT_EQ(want[static_cast<std::size_t>(i * ldc + j)],
                                  -7.0f);
                for (const KernelSet *set : compiledKernelSets()) {
                    if (!hostSupportsKernelSet(*set))
                        continue;
                    std::vector<float> got(want.size(), -7.0f);
                    set->gemmQ8Packed(m, op.qa.data(), op.sa.data(),
                                      op.w.packedView(), got.data(), ldc);
                    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                             want.size() * sizeof(float)))
                        << set->name << " diverges from scalar at m=" << m
                        << " n=" << n << " nb=" << nb;
                }
            }
}

TEST_F(QuantTest, GemmQ8DeterministicAcrossThreadCounts)
{
    const QuantGemmShape s = {33, 57, 160};
    std::vector<std::int8_t> qa;
    std::vector<float> sa;
    QuantTensor wq;
    quantPair(s, qa, sa, wq);
    setThreadCount(1);
    std::vector<float> base(static_cast<std::size_t>(s.m * s.n));
    gemmQ8(s.m, qa.data(), sa.data(), wq, base.data(), s.n);
    for (int threads : {2, 4, 8}) {
        setThreadCount(threads);
        std::vector<float> got(base.size(), -1.0f);
        gemmQ8(s.m, qa.data(), sa.data(), wq, got.data(), s.n);
        EXPECT_EQ(0, std::memcmp(got.data(), base.data(),
                                 base.size() * sizeof(float)))
            << "threads=" << threads;
    }
}

TEST_F(QuantTest, GemmQ8TracksFp32WithinQuantizationError)
{
    const std::int64_t m = 24, n = 40, k = 96;
    const std::vector<float> a = randomVec(static_cast<std::size_t>(m * k), 7);
    const std::vector<float> b = randomVec(static_cast<std::size_t>(n * k), 8);
    const std::int64_t nb = quantBlocks(k);
    std::vector<std::int8_t> qa(static_cast<std::size_t>(m * nb * kQuantBlock));
    std::vector<float> sa(static_cast<std::size_t>(m * nb));
    quantizeRowsInto(a.data(), m, k, qa.data(), sa.data());
    QuantTensor wq = quantizeRowMajor(
        Tensor::fromData({static_cast<int>(n), static_cast<int>(k)}, b), n,
        k);
    wq.pack();
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemmQ8(m, qa.data(), sa.data(), wq, c.data(), n);
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            double want = 0.0;
            for (std::int64_t t = 0; t < k; ++t)
                want += static_cast<double>(a[static_cast<std::size_t>(
                            i * k + t)])
                        * b[static_cast<std::size_t>(j * k + t)];
            // Both operands carry ~0.4% per-element code error; the dot
            // of k in [-1,1] elements stays within a small absolute band.
            EXPECT_NEAR(c[static_cast<std::size_t>(i * n + j)], want, 0.08)
                << "i=" << i << " j=" << j;
        }
}

TEST_F(QuantTest, QuantizedConvForwardTracksFp32)
{
    setThreadCount(2);
    Rng rng(17);
    Conv2d conv(8, 12, 3, 1, 1, true, rng);
    Tensor x = Tensor::fromData(
        {2, 8, 11, 9},
        randomVec(static_cast<std::size_t>(2) * 8 * 11 * 9, 23));
    const Tensor y32 = conv.forward(x, Mode::Eval);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    ASSERT_EQ(stats.size(), 1u);
    // ~4x smaller, less block padding (72 -> 96 cols) and scale rows.
    EXPECT_LT(stats[0].quantBytes, stats[0].fp32Bytes / 2);
    const Tensor y8 = conv.forward(x, Mode::Eval);
    ASSERT_EQ(y8.numel(), y32.numel());
    for (std::size_t i = 0; i < y8.numel(); ++i)
        EXPECT_NEAR(y8[i], y32[i], 0.15) << "element " << i;
}

TEST_F(QuantTest, QuantizedLinearForwardTracksFp32)
{
    Rng rng(19);
    Linear fc(96, 10, rng);
    Tensor x = Tensor::fromData({4, 96},
                                randomVec(static_cast<std::size_t>(4) * 96,
                                          29));
    const Tensor y32 = fc.forward(x, Mode::Eval);
    std::vector<QuantStat> stats;
    fc.quantizeWeights(stats);
    const Tensor y8 = fc.forward(x, Mode::Eval);
    ASSERT_EQ(y8.numel(), y32.numel());
    for (std::size_t i = 0; i < y8.numel(); ++i)
        EXPECT_NEAR(y8[i], y32[i], 0.12) << "element " << i;
}

TEST_F(QuantTest, QuantizedLayersRefuseTrainingMode)
{
    Rng rng(31);
    Conv2d conv(4, 6, 3, 1, 1, false, rng);
    Linear fc(32, 4, rng);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    fc.quantizeWeights(stats);
    Tensor xc = Tensor::fromData(
        {1, 4, 8, 8}, randomVec(static_cast<std::size_t>(4) * 8 * 8, 37));
    Tensor xl = Tensor::fromData({2, 32},
                                 randomVec(static_cast<std::size_t>(2) * 32,
                                           38));
    EXPECT_THROW(conv.forward(xc, Mode::Train), CheckError);
    EXPECT_THROW(fc.forward(xl, Mode::Train), CheckError);
}

TEST_F(QuantTest, QuantizedCheckpointRoundTripsBitExactly)
{
    Rng rng(41);
    Conv2d conv(6, 10, 3, 1, 1, true, rng);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    Tensor x = Tensor::fromData(
        {1, 6, 10, 10},
        randomVec(static_cast<std::size_t>(6) * 10 * 10, 43));
    const Tensor y_before = conv.forward(x, Mode::Eval);

    const std::string path =
        ::testing::TempDir() + "/leca_quant_conv.ckpt";
    saveQuantizedState(conv, path);
    Rng rng2(99); // different init: restore must overwrite everything
    Conv2d fresh(6, 10, 3, 1, 1, true, rng2);
    ASSERT_TRUE(loadQuantizedState(fresh, path));
    const Tensor y_after = fresh.forward(x, Mode::Eval);
    ASSERT_EQ(y_after.numel(), y_before.numel());
    EXPECT_EQ(0, std::memcmp(y_after.data(), y_before.data(),
                             y_before.numel() * sizeof(float)));
}

TEST_F(QuantTest, WarmQuantizedConvForwardAllocatesNoHeapBlocks)
{
    setThreadCount(1);
    Rng rng(47);
    Conv2d conv(8, 16, 3, 1, 1, true, rng);
    std::vector<QuantStat> stats;
    conv.quantizeWeights(stats);
    Tensor x = Tensor::fromData(
        {2, 8, 16, 16},
        randomVec(static_cast<std::size_t>(2) * 8 * 16 * 16, 53));
    for (int i = 0; i < 3; ++i)
        conv.forward(x, Mode::Eval);
    const std::uint64_t warm = Arena::totalBlockAllocs();
    Tensor y0 = conv.forward(x, Mode::Eval);
    for (int i = 0; i < 10; ++i) {
        Tensor y = conv.forward(x, Mode::Eval);
        ASSERT_EQ(0, std::memcmp(y.data(), y0.data(),
                                 y.numel() * sizeof(float)));
    }
    EXPECT_EQ(Arena::totalBlockAllocs(), warm)
        << "steady-state quantized conv grew the arena";
}

TEST_F(QuantTest, WarmQuantizedForwardRunsUnderDenyAllocScope)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    setThreadCount(2);
    Rng rng(59);
    Sequential net;
    Conv2d &conv = net.emplace<Conv2d>(32, 16, 3, 1, 1, true, rng);
    Linear fc(64, 8, rng);
    std::vector<QuantStat> stats;
    net.quantizeWeights(stats); // plans conv resident
    fc.quantizeWeights(stats);
    ASSERT_TRUE(net.hasQuantPlan());
    const int n = 2, h = 12, w = 12;
    const std::vector<float> xc =
        randomVec(static_cast<std::size_t>(n) * 32 * h * w, 61);
    Tensor xl = Tensor::fromData({4, 64},
                                 randomVec(static_cast<std::size_t>(4) * 64,
                                           62));
    // Tensors returned by forward() heap-allocate their storage by
    // design, so the deny window covers the raw serving entry points
    // (arena scratch only) rather than the Tensor factory.
    const std::int64_t rows = static_cast<std::int64_t>(n) * h * w;
    std::vector<std::int8_t> in_q(
        static_cast<std::size_t>(rows * quantPadded(32)));
    std::vector<float> in_s(static_cast<std::size_t>(rows * quantBlocks(32)));
    std::vector<std::int8_t> out_q(
        static_cast<std::size_t>(rows * quantPadded(16)));
    std::vector<float> out_s(static_cast<std::size_t>(rows * quantBlocks(16)));
    const QuantActivation act{n, 32, h, w, in_q.data(), in_s.data()};
    const QuantTensor &wql = *fc.quantTensors()[0];
    std::vector<float> yl(static_cast<std::size_t>(4) * 8);
    const auto serve = [&] {
        quantizeActivationNchw(xc.data(), n, 32, h, w, in_q.data(),
                               in_s.data());
        convForwardResident(act, 3, 3, 1, 1, conv.qweightHwc(),
                            ResidentEpilogue{}, out_q.data(), out_s.data(),
                            nullptr, nullptr);
    };
    for (int i = 0; i < 3; ++i) {
        serve();
        linearForwardQuant(xl.data(), 4, wql, nullptr, yl.data());
    }
    // Deterministically warm every pool worker's arena: a worker that
    // slept through the warm-up would otherwise grow its cold arena on
    // its first dynamically-claimed chunk inside the deny window.
    warmPoolArenas();
    {
        DenyAllocScope deny;
        for (int i = 0; i < 5; ++i)
            serve();
        EXPECT_EQ(deny.violations(), 0u)
            << "warm resident quantized conv forward allocated on the heap";
    }
    {
        DenyAllocScope deny;
        for (int i = 0; i < 5; ++i)
            linearForwardQuant(xl.data(), 4, wql, nullptr, yl.data());
        EXPECT_EQ(deny.violations(), 0u)
            << "warm quantized linear forward allocated on the heap";
    }
}

TEST_F(QuantTest, KernelSetLookupAndOverride)
{
    EXPECT_EQ(kernelSetByName("no-such-isa"), nullptr);
    const KernelSet *scalar = kernelSetByName("scalar");
    ASSERT_NE(scalar, nullptr);
    EXPECT_TRUE(hostSupportsKernelSet(*scalar));
    ASSERT_GE(compiledKernelSets().size(), 1u);
    {
        ScopedKernelOverride force(*scalar);
        EXPECT_EQ(&activeKernels(), scalar);
    }
    // Override restored on scope exit.
    EXPECT_TRUE(hostSupportsKernelSet(activeKernels()));
}

} // namespace
} // namespace leca
