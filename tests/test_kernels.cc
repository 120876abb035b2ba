/**
 * @file
 * The blocked-kernel contract (DESIGN.md §8): gemmBlocked is
 * bit-identical to the retained naive reference at adversarial shapes
 * and at every thread count, the packed conv path matches the
 * materialised-cols path bit for bit, the direct fp32 conv matches
 * im2col + gemmReference (and every kernel set matches its scalar
 * reference) bit for bit, and warm steady-state kernels perform zero
 * heap block allocations (arena hook).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/conv.hh"
#include "tensor/isa.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "util/alloc_guard.hh"
#include "util/arena.hh"
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

/** Bitwise equality of two float buffers (stricter than ==: ±0 differ). */
bool
bitEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Restores the ambient thread count after each test. */
class KernelsTest : public ::testing::Test
{
  protected:
    void SetUp() override { _saved = threadCount(); }
    void TearDown() override { setThreadCount(_saved); }

  private:
    int _saved = 1;
};

struct GemmShape
{
    std::int64_t m, n, k;
};

/**
 * Adversarial shapes: singletons, tails in every dimension relative to
 * the kMicroM x kMicroN tile, prime extents, shapes larger than one
 * k block (kBlockK) and one row chunk (kBlockM), and the k = 0 edge.
 */
const GemmShape kShapes[] = {
    {1, 1, 1},
    {1, 1, 5},
    {1, kMicroN, 3},
    {kMicroM, 1, 3},
    {kMicroM - 1, kMicroN - 1, 2},   // tails only
    {kMicroM + 1, kMicroN + 1, 2},   // one full tile plus tails
    {7, 13, 31},                     // primes
    {3, 61, 17},
    {2 * kMicroM, 2 * kMicroN, 8},   // exact tile multiples
    {5, 17, kBlockK + 44},           // k spans multiple k blocks
    {kBlockM + 22, 19, 7},           // m spans multiple row chunks
    {37, 3 * kMicroN + 5, 2 * kBlockK + 1},
    {6, 9, 0},                       // k = 0: C must be zeroed
};

void
runBothGemms(const GemmShape &s, bool trans_a, bool trans_b,
             bool accumulate, std::vector<float> &got,
             std::vector<float> &want)
{
    const std::size_t a_sz = static_cast<std::size_t>(s.m) *
                             (s.k > 0 ? s.k : 1);
    const std::size_t b_sz = static_cast<std::size_t>(s.n) *
                             (s.k > 0 ? s.k : 1);
    const std::vector<float> a = randomVec(a_sz, 17 * s.m + s.k + 1);
    const std::vector<float> b = randomVec(b_sz, 31 * s.n + s.k + 2);
    const std::vector<float> c0 =
        randomVec(static_cast<std::size_t>(s.m) * s.n, 7);
    const std::int64_t lda = trans_a ? s.m : s.k;
    const std::int64_t ldb = trans_b ? s.k : s.n;
    got = c0;
    want = c0;
    gemmBlocked(s.m, s.n, s.k, a.data(), lda, trans_a, b.data(), ldb,
                trans_b, got.data(), s.n, accumulate);
    gemmReference(s.m, s.n, s.k, a.data(), lda, trans_a, b.data(), ldb,
                  trans_b, want.data(), s.n, accumulate);
}

TEST_F(KernelsTest, BlockedMatchesReferenceBitForBit)
{
    for (const GemmShape &s : kShapes)
        for (bool trans_a : {false, true})
            for (bool trans_b : {false, true})
                for (bool accumulate : {false, true}) {
                    std::vector<float> got, want;
                    runBothGemms(s, trans_a, trans_b, accumulate, got, want);
                    EXPECT_TRUE(bitEqual(got, want))
                        << "m=" << s.m << " n=" << s.n << " k=" << s.k
                        << " trans_a=" << trans_a << " trans_b=" << trans_b
                        << " accumulate=" << accumulate;
                }
}

TEST_F(KernelsTest, ThreadCountNeverChangesABit)
{
    const GemmShape shapes[] = {
        {kBlockM + 22, 19, 7}, {37, 53, kBlockK + 44}, {200, 64, 96}};
    for (const GemmShape &s : shapes) {
        setThreadCount(1);
        std::vector<float> base, want;
        runBothGemms(s, false, false, false, base, want);
        ASSERT_TRUE(bitEqual(base, want));
        for (int threads : {2, 4, 8}) {
            setThreadCount(threads);
            std::vector<float> got;
            runBothGemms(s, false, false, false, got, want);
            EXPECT_TRUE(bitEqual(got, base))
                << "m=" << s.m << " threads=" << threads;
        }
    }
}

TEST_F(KernelsTest, MatmulWrappersMatchReference)
{
    const int m = 19, n = 33, k = 27;
    const std::vector<float> av = randomVec(static_cast<std::size_t>(m) * k, 3);
    const std::vector<float> bv = randomVec(static_cast<std::size_t>(k) * n, 4);

    // matmul: A [m,k] * B [k,n].
    Tensor a = Tensor::fromData({m, k}, av);
    Tensor b = Tensor::fromData({k, n}, bv);
    Tensor c = matmul(a, b);
    std::vector<float> want(static_cast<std::size_t>(m) * n);
    gemmReference(m, n, k, av.data(), k, false, bv.data(), n, false,
                  want.data(), n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                             want.size() * sizeof(float)));

    // matmulTransA: A [k,m] -> A^T * B.
    Tensor at = Tensor::fromData({k, m}, randomVec(av.size(), 5));
    c = matmulTransA(at, b);
    gemmReference(m, n, k, at.data(), m, true, bv.data(), n, false,
                  want.data(), n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                             want.size() * sizeof(float)));

    // matmulTransB: B [n,k] -> A * B^T.
    Tensor bt = Tensor::fromData({n, k}, randomVec(bv.size(), 6));
    c = matmulTransB(a, bt);
    gemmReference(m, n, k, av.data(), k, false, bt.data(), k, true,
                  want.data(), n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                             want.size() * sizeof(float)));
}

TEST_F(KernelsTest, PackedConvMatchesColsPathBitForBit)
{
    // Odd spatial extents and stride/pad combinations so panel tails and
    // zero-padding rows are exercised.
    struct Case
    {
        int cin, h, w, cout, k, stride, pad;
    };
    const Case cases[] = {
        {3, 9, 11, 5, 3, 1, 1},
        {1, 4, 4, 2, 2, 2, 0},
        {4, 16, 16, 8, 3, 2, 1},
        {2, 7, 5, 3, 5, 1, 2},
    };
    for (const Case &cs : cases) {
        Tensor x = Tensor::fromData(
            {1, cs.cin, cs.h, cs.w},
            randomVec(static_cast<std::size_t>(cs.cin) * cs.h * cs.w, 11));
        Tensor wmat = Tensor::fromData(
            {cs.cout, cs.cin * cs.k * cs.k},
            randomVec(static_cast<std::size_t>(cs.cout) * cs.cin * cs.k *
                          cs.k,
                      12));
        Tensor bias =
            Tensor::fromData({cs.cout},
                             randomVec(static_cast<std::size_t>(cs.cout), 13));
        const int oh = convOutSize(cs.h, cs.k, cs.stride, cs.pad);
        const int ow = convOutSize(cs.w, cs.k, cs.stride, cs.pad);
        Tensor y_cols({1, cs.cout, oh, ow});
        Tensor y_packed({1, cs.cout, oh, ow});
        conv2dImage(x, 0, wmat, bias, cs.k, cs.k, cs.stride, cs.pad, y_cols);
        convForwardBatch(x.data(), 1, cs.cin, cs.h, cs.w, cs.k, cs.k,
                         cs.stride, cs.pad, wmat.data(), cs.cout, bias.data(),
                         y_packed.data());
        EXPECT_EQ(0, std::memcmp(y_cols.data(), y_packed.data(),
                                 y_cols.numel() * sizeof(float)))
            << "cin=" << cs.cin << " h=" << cs.h << " k=" << cs.k
            << " stride=" << cs.stride << " pad=" << cs.pad;
    }
}

TEST_F(KernelsTest, ArenaScopeRewindsAndTracksHighWater)
{
    Arena &arena = Arena::local();
    {
        Arena::Scope outer;
        const std::size_t live0 = arena.liveFloats();
        float *p = arena.alloc(100);
        ASSERT_NE(p, nullptr);
        EXPECT_GE(arena.liveFloats(), live0 + 100);
        {
            Arena::Scope inner;
            arena.alloc(200);
            EXPECT_GE(arena.liveFloats(), live0 + 300);
        }
        // Inner scope rewound; outer allocation still live.
        EXPECT_GE(arena.liveFloats(), live0 + 100);
        EXPECT_LT(arena.liveFloats(), live0 + 300);
        EXPECT_GE(arena.highWaterFloats(), live0 + 300);
        // Memory is writable through the whole outer scope.
        for (int i = 0; i < 100; ++i)
            p[i] = static_cast<float>(i);
        EXPECT_EQ(p[99], 99.0f);
    }
    EXPECT_EQ(arena.liveFloats(), 0u);
}

TEST_F(KernelsTest, ArenaAllocationsAreVectorAligned)
{
    Arena::Scope scope;
    for (std::size_t n : {1u, 3u, 17u, 100u}) {
        float *p = Arena::local().alloc(n);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u)
            << "n=" << n;
    }
}

TEST_F(KernelsTest, WarmConvForwardAllocatesNoHeapBlocks)
{
    setThreadCount(1);
    Rng rng(42);
    Conv2d conv(8, 16, 3, 1, 1, true, rng);
    Tensor x = Tensor::fromData(
        {2, 8, 24, 24},
        randomVec(static_cast<std::size_t>(2) * 8 * 24 * 24, 21));

    // Warm-up: grow the arena to its high-water capacity.
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
        << "steady-state conv forward touched the heap for kernel scratch";
}

TEST_F(KernelsTest, WarmGemmAllocatesNoHeapBlocks)
{
    setThreadCount(1);
    const int m = 150, n = 96, k = 300;
    const std::vector<float> a = randomVec(static_cast<std::size_t>(m) * k, 1);
    const std::vector<float> b = randomVec(static_cast<std::size_t>(k) * n, 2);
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    for (int i = 0; i < 3; ++i)
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), n, false,
                    c.data(), n, false);
    const std::uint64_t warm = Arena::totalBlockAllocs();
    for (int i = 0; i < 10; ++i)
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), n, false,
                    c.data(), n, false);
    EXPECT_EQ(Arena::totalBlockAllocs(), warm);
}

TEST_F(KernelsTest, WarmGemmRunsUnderDenyAllocScope)
{
    // Stronger than the arena-block check above: with the counting
    // operator-new hooks compiled in, a warm blocked GEMM must perform
    // literally zero heap allocations on any participating thread.
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    setThreadCount(2);
    const int m = 150, n = 96, k = 300;
    const std::vector<float> a = randomVec(static_cast<std::size_t>(m) * k, 1);
    const std::vector<float> b = randomVec(static_cast<std::size_t>(k) * n, 2);
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    for (int i = 0; i < 3; ++i)
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), n, false,
                    c.data(), n, false);
    // Chunks are claimed dynamically, so the warm-up alone cannot
    // guarantee a worker that slept through it has a warm arena; the
    // barrier grows every pool thread's arena deterministically.
    warmPoolArenas();
    DenyAllocScope deny;
    for (int i = 0; i < 10; ++i)
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), n, false,
                    c.data(), n, false);
    EXPECT_EQ(deny.violations(), 0u)
        << "warm blocked GEMM allocated on the heap";
}

/** One direct-conv case of the kernel grid: shapes, epilogue form and
 *  the inputs, with non-finite values and -0 on the border pixels and
 *  ±0 among the weights. */
struct DirectCase
{
    int cin, cout, k, pad, h, w;
    bool bias;
    int epilogue; // 0 none, 1 relu, 2 affine, 3 affine + relu
    int oh() const { return h + 2 * pad - k + 1; }
    int ow() const { return w + 2 * pad - k + 1; }

    std::vector<float> x, wts, b, ea, eb;

    void
    fill(std::uint64_t seed)
    {
        x = randomVec(static_cast<std::size_t>(cin) * h * w, seed);
        const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                                  std::numeric_limits<float>::infinity(),
                                  -std::numeric_limits<float>::infinity(),
                                  -0.0f};
        int next = 0;
        for (int ci = 0; ci < cin; ++ci)
            for (int y = 0; y < h; ++y)
                for (int xx = 0; xx < w; ++xx) {
                    // Sparse specials on the border only, so most
                    // outputs stay finite and the interior is covered.
                    const bool border =
                        y == 0 || y == h - 1 || xx == 0 || xx == w - 1;
                    if (border && (y * 7 + xx * 3 + ci) % 11 == 0)
                        x[(static_cast<std::size_t>(ci) * h + y) * w + xx] =
                            specials[next++ % 4];
                }
        wts = randomVec(static_cast<std::size_t>(cout) * cin * k * k,
                        seed + 1);
        for (std::size_t i = 0; i < wts.size(); i += 5)
            wts[i] = (i / 5) % 2 ? -0.0f : 0.0f;
        b = randomVec(static_cast<std::size_t>(cout), seed + 2);
        ea = randomVec(static_cast<std::size_t>(cout), seed + 3);
        eb = randomVec(static_cast<std::size_t>(cout), seed + 4);
    }

    ConvEpilogue
    epi() const
    {
        ConvEpilogue e;
        if (epilogue >= 2) {
            e.a = ea.data();
            e.b = eb.data();
        }
        e.relu = epilogue % 2 == 1;
        return e;
    }
};

/** Run one KernelSet's convDirectF32 over the whole output as one band
 *  read from a zero-haloed copy of the input (the slot's contract). */
std::vector<float>
runDirectSlot(const KernelSet &set, const DirectCase &c)
{
    const int oh = c.oh(), ow = c.ow();
    const std::int64_t ld =
        (ow + simd::kConvDirectLanes - 1) / simd::kConvDirectLanes
            * simd::kConvDirectLanes
        + c.k - 1;
    const std::int64_t hrows = oh + c.k - 1;
    std::vector<float> halo(static_cast<std::size_t>(c.cin * hrows * ld),
                            0.0f);
    for (int ci = 0; ci < c.cin; ++ci)
        for (int y = 0; y < c.h; ++y)
            for (int xx = 0; xx < c.w; ++xx)
                halo[(ci * hrows + y + c.pad) * ld + xx + c.pad] =
                    c.x[(static_cast<std::size_t>(ci) * c.h + y) * c.w + xx];
    std::vector<float> out(static_cast<std::size_t>(c.cout) * oh * ow);
    const ConvEpilogue e = c.epi();
    simd::ConvDirectF32Args args;
    args.in = halo.data();
    args.ld = ld;
    args.plane = hrows * ld;
    args.w = c.wts.data();
    args.bias = c.bias ? c.b.data() : nullptr;
    args.a = e.a;
    args.b = e.b;
    args.relu = e.relu;
    args.out = out.data();
    args.ostride = static_cast<std::int64_t>(oh) * ow;
    args.cin = c.cin;
    args.cout = c.cout;
    args.kh = c.k;
    args.kw = c.k;
    args.ow = ow;
    args.rows = oh;
    set.convDirectF32(args);
    return out;
}

/** im2colRaw + gemmReference + conv2dImage's bias pass + the epilogue,
 *  spelled out. */
std::vector<float>
im2colReference(const DirectCase &c)
{
    const std::int64_t ohow = static_cast<std::int64_t>(c.oh()) * c.ow();
    const std::int64_t kdim = static_cast<std::int64_t>(c.cin) * c.k * c.k;
    std::vector<float> cols(static_cast<std::size_t>(kdim * ohow));
    im2colRaw(c.x.data(), c.cin, c.h, c.w, c.k, c.k, 1, c.pad, cols.data());
    std::vector<float> out(static_cast<std::size_t>(c.cout * ohow));
    gemmReference(c.cout, ohow, kdim, c.wts.data(), kdim, false, cols.data(),
                  ohow, false, out.data(), ohow, false);
    const ConvEpilogue e = c.epi();
    for (int co = 0; co < c.cout; ++co)
        for (std::int64_t p = 0; p < ohow; ++p) {
            float &v = out[static_cast<std::size_t>(co * ohow + p)];
            if (c.bias)
                v += c.b[static_cast<std::size_t>(co)];
            if (e.a)
                v = std::fmaf(e.a[co], v, e.b[co]);
            if (e.relu)
                v = v > 0.0f ? v : 0.0f;
        }
    return out;
}

/**
 * The grid: cin, cout in {1,2,3,4,5,8,17} × k in {1,3,5} × pad in
 * {0, k/2}; each combination runs every width, with heights (including
 * 1) and the 8 bias × epilogue forms rotating across the widths so all
 * of them meet every shape class without a full Cartesian product.
 */
template <typename Fn>
void
forEachDirectCase(const Fn &fn)
{
    const int chans[] = {1, 2, 3, 4, 5, 8, 17};
    const int widths[] = {1, 7, 15, 16, 17, 24, 33, 48};
    const int heights[] = {1, 2, 5, 9};
    int serial = 0;
    for (int cin : chans)
        for (int cout : chans)
            for (int k : {1, 3, 5})
                for (int pad : {0, k / 2})
                    for (int w : widths) {
                        DirectCase c;
                        c.cin = cin;
                        c.cout = cout;
                        c.k = k;
                        c.pad = pad;
                        c.w = w;
                        c.h = heights[serial % 4];
                        c.bias = (serial / 4) % 2 == 1;
                        c.epilogue = serial % 4;
                        ++serial;
                        if (c.oh() < 1 || c.ow() < 1) {
                            // Too small for the kernel: grow to fit.
                            c.h = std::max(c.h, k - 2 * pad);
                            c.w = std::max(c.w, k - 2 * pad);
                        }
                        c.fill(static_cast<std::uint64_t>(serial) * 13 + 5);
                        fn(c);
                    }
}

/**
 * "" when bit-equal, else the first differing element and its bits.
 * Any two NaNs compare equal: which NaN an add or multiply of two NaN
 * operands returns depends on the instruction's operand order, which
 * compilers may commute — im2col + gemmBlocked and gemmReference
 * already disagree on NaN sign/payload there. Every non-NaN bit
 * (including -0 and ±Inf) and the position of every NaN must match.
 */
std::string
firstBitDiff(const std::vector<float> &got, const std::vector<float> &want)
{
    if (got.size() != want.size())
        return "size " + std::to_string(got.size()) + " vs "
               + std::to_string(want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        std::uint32_t g, w;
        std::memcpy(&g, &got[i], 4);
        std::memcpy(&w, &want[i], 4);
        if (g != w && !(std::isnan(got[i]) && std::isnan(want[i]))) {
            char buf[96];
            std::snprintf(buf, sizeof(buf), "element %zu: %08x vs %08x", i,
                          g, w);
            return buf;
        }
    }
    return "";
}

std::string
describe(const DirectCase &c)
{
    return "cin=" + std::to_string(c.cin) + " cout=" + std::to_string(c.cout)
           + " k=" + std::to_string(c.k) + " pad=" + std::to_string(c.pad)
           + " h=" + std::to_string(c.h) + " w=" + std::to_string(c.w)
           + " bias=" + std::to_string(c.bias)
           + " epilogue=" + std::to_string(c.epilogue);
}

TEST_F(KernelsTest, DirectConvScalarMatchesIm2colGemmReference)
{
    const KernelSet *scalar = kernelSetByName("scalar");
    ASSERT_NE(scalar, nullptr);
    int cases = 0;
    forEachDirectCase([&](const DirectCase &c) {
        ++cases;
        EXPECT_EQ(firstBitDiff(runDirectSlot(*scalar, c), im2colReference(c)),
                  "")
            << describe(c);
    });
    EXPECT_EQ(cases, 7 * 7 * 3 * 2 * 8);
}

TEST_F(KernelsTest, DirectConvEveryKernelSetMatchesScalar)
{
    const KernelSet *scalar = kernelSetByName("scalar");
    ASSERT_NE(scalar, nullptr);
    forEachDirectCase([&](const DirectCase &c) {
        const std::vector<float> want = runDirectSlot(*scalar, c);
        for (const KernelSet *set : compiledKernelSets()) {
            if (!hostSupportsKernelSet(*set))
                continue;
            ASSERT_NE(set->convDirectF32, nullptr) << set->name;
            EXPECT_EQ(firstBitDiff(runDirectSlot(*set, c), want), "")
                << set->name << " " << describe(c);
        }
    });
}

/** The batched entry point (row bands, halo copies, pool split, the fused
 *  epilogue) against the materialised-cols path per image plus the
 *  epilogue spelled out, at every thread count — and the packed path's
 *  epilogue pass for a shape the rule keeps on the GEMM. */
TEST_F(KernelsTest, ConvForwardBatchMatchesColsPathAtEveryThreadCount)
{
    struct Case
    {
        int n, cin, cout, h, w, k, pad;
        bool direct;
    };
    // 4->64 at width 48 runs 9-row bands (a tail band too); 17->3 and
    // 64->3 split one image into several bands; 32->128 at 12x12 stays
    // on the packed GEMM.
    const Case cases[] = {
        {3, 4, 64, 11, 48, 3, 1, true},
        {1, 17, 3, 60, 48, 3, 1, true},
        {2, 64, 3, 30, 48, 3, 1, true},
        {2, 3, 3, 7, 5, 5, 2, true},
        {1, 3, 32, 13, 13, 1, 0, true},
        {2, 32, 128, 12, 12, 3, 1, false},
    };
    for (const Case &cs : cases) {
        const int oh = convOutSize(cs.h, cs.k, 1, cs.pad);
        const int ow = convOutSize(cs.w, cs.k, 1, cs.pad);
        ASSERT_EQ(convUsesDirect(cs.cin, cs.cout, 1, ow), cs.direct)
            << "cin=" << cs.cin << " cout=" << cs.cout << " ow=" << ow;
        Tensor x = Tensor::fromData(
            {cs.n, cs.cin, cs.h, cs.w},
            randomVec(static_cast<std::size_t>(cs.n) * cs.cin * cs.h * cs.w,
                      41));
        Tensor wmat = Tensor::fromData(
            {cs.cout, cs.cin * cs.k * cs.k},
            randomVec(static_cast<std::size_t>(cs.cout) * cs.cin * cs.k
                          * cs.k,
                      42));
        Tensor bias = Tensor::fromData(
            {cs.cout}, randomVec(static_cast<std::size_t>(cs.cout), 43));
        const std::vector<float> ea =
            randomVec(static_cast<std::size_t>(cs.cout), 44);
        const std::vector<float> eb =
            randomVec(static_cast<std::size_t>(cs.cout), 45);
        Tensor plain({cs.n, cs.cout, oh, ow});
        for (int i = 0; i < cs.n; ++i)
            conv2dImage(x, i, wmat, bias, cs.k, cs.k, 1, cs.pad, plain);
        Tensor fused = plain;
        const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
        for (int i = 0; i < cs.n; ++i)
            for (int co = 0; co < cs.cout; ++co)
                for (std::int64_t p = 0; p < ohow; ++p) {
                    float &v = fused[static_cast<std::size_t>(
                        (i * cs.cout + co) * ohow + p)];
                    v = std::fmaf(ea[co], v, eb[co]);
                    v = v > 0.0f ? v : 0.0f;
                }
        for (int threads : {1, 2, 4, 8}) {
            setThreadCount(threads);
            for (const bool with_epi : {false, true}) {
                const ConvEpilogue epi =
                    with_epi ? ConvEpilogue{ea.data(), eb.data(), true}
                             : ConvEpilogue{};
                const Tensor &want = with_epi ? fused : plain;
                Tensor got({cs.n, cs.cout, oh, ow});
                convForwardBatch(x.data(), cs.n, cs.cin, cs.h, cs.w, cs.k,
                                 cs.k, 1, cs.pad, wmat.data(), cs.cout,
                                 bias.data(), got.data(), epi);
                EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                         want.numel() * sizeof(float)))
                    << "cin=" << cs.cin << " cout=" << cs.cout
                    << " threads=" << threads << " epilogue=" << with_epi;
            }
        }
    }
}

TEST_F(KernelsTest, WarmDirectConvRunsUnderDenyAllocScope)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    setThreadCount(2);
    Rng rng(43);
    // The decoder's 3->64 and 64->3 shapes at a small extent: several
    // bands per image, so both pool threads claim units.
    Conv2d widen(3, 64, 3, 1, 1, false, rng);
    Conv2d head(64, 3, 3, 1, 1, true, rng);
    ASSERT_TRUE(convUsesDirect(3, 64, 1, 48));
    ASSERT_TRUE(convUsesDirect(64, 3, 1, 48));
    Tensor x = Tensor::fromData(
        {2, 3, 24, 48},
        randomVec(static_cast<std::size_t>(2) * 3 * 24 * 48, 44));
    Tensor y0;
    for (int i = 0; i < 3; ++i)
        y0 = head.forward(widen.forward(x, Mode::Eval), Mode::Eval);
    warmPoolArenas();
    DenyAllocScope deny;
    for (int i = 0; i < 5; ++i) {
        const Tensor y = head.forward(widen.forward(x, Mode::Eval), Mode::Eval);
        ASSERT_EQ(0, std::memcmp(y.data(), y0.data(),
                                 y.numel() * sizeof(float)));
    }
    EXPECT_EQ(deny.violations(), 0u)
        << "warm direct conv allocated on the heap";
}

TEST_F(KernelsTest, Im2colRoundTripAdjoint)
{
    // <cols, im2col(x)> == <col2im(cols), x> pins col2imRaw as the exact
    // adjoint of im2colRaw (up to float rounding of the two dot
    // products, computed here in double).
    const int c = 3, h = 7, w = 6, k = 3, stride = 2, pad = 1;
    const int oh = convOutSize(h, k, stride, pad);
    const int ow = convOutSize(w, k, stride, pad);
    const std::size_t x_sz = static_cast<std::size_t>(c) * h * w;
    const std::size_t cols_sz =
        static_cast<std::size_t>(c) * k * k * oh * ow;
    const std::vector<float> x = randomVec(x_sz, 31);
    const std::vector<float> u = randomVec(cols_sz, 32);

    std::vector<float> cols(cols_sz);
    im2colRaw(x.data(), c, h, w, k, k, stride, pad, cols.data());
    std::vector<float> folded(x_sz, 0.0f);
    col2imRaw(u.data(), c, h, w, k, k, stride, pad, folded.data());

    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < cols_sz; ++i)
        lhs += static_cast<double>(u[i]) * cols[i];
    for (std::size_t i = 0; i < x_sz; ++i)
        rhs += static_cast<double>(folded[i]) * x[i];
    EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

} // namespace
} // namespace leca
