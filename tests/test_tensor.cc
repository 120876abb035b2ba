/**
 * @file
 * Unit tests for the tensor substrate: shape handling, matmul variants,
 * im2col/col2im adjointness, convolution against a naive reference,
 * pooling, resampling, and metrics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/alloc_guard.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace leca {
namespace {

Tensor
randomTensor(std::vector<int> shape, Rng &rng, double lo = -1.0,
             double hi = 1.0)
{
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(lo, hi));
    return t;
}

/** Direct O(N^2 * K^2) convolution reference. */
Tensor
naiveConv2d(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
            int pad)
{
    const int n = x.size(0), cin = x.size(1), h = x.size(2), wid = x.size(3);
    const int cout = w.size(0), k = w.size(2);
    const int oh = convOutSize(h, k, stride, pad);
    const int ow = convOutSize(wid, k, stride, pad);
    Tensor y({n, cout, oh, ow});
    for (int i = 0; i < n; ++i)
        for (int co = 0; co < cout; ++co)
            for (int oy = 0; oy < oh; ++oy)
                for (int ox = 0; ox < ow; ++ox) {
                    float acc = b.numel() ? b[static_cast<std::size_t>(co)]
                                          : 0.0f;
                    for (int ci = 0; ci < cin; ++ci)
                        for (int ky = 0; ky < k; ++ky)
                            for (int kx = 0; kx < k; ++kx) {
                                const int iy = oy * stride + ky - pad;
                                const int ix = ox * stride + kx - pad;
                                if (iy < 0 || iy >= h || ix < 0 || ix >= wid)
                                    continue;
                                acc += x.at(i, ci, iy, ix)
                                       * w.at(co, ci, ky, kx);
                            }
                    y.at(i, co, oy, ox) = acc;
                }
    return y;
}

TEST(Tensor, ZeroInitialised)
{
    Tensor t({2, 3});
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, UninitializedFreshStorageIsNanPoisoned)
{
    // An AsyncTask body runs on a fresh thread with an empty buffer
    // pool, so the storage is a new allocation: every element reads
    // quiet NaN (as all storage does where the pool is compiled out),
    // so an element a kernel forgets to write cannot pass an exact
    // compare as a zero. A pooled buffer too short for a larger shape
    // is not reused.
    std::vector<int> shape;
    std::size_t fresh_nans = 0, grown_nans = 0;
    AsyncTask task;
    task.run([&] {
        const Tensor t = Tensor::uninitialized({2, 3, 5, 7});
        shape = t.shape();
        for (std::size_t i = 0; i < t.numel(); ++i)
            fresh_nans += std::isnan(t[i]) ? 1 : 0;
        { const Tensor small = Tensor::full({4}, 1.0f); }
        const Tensor grown = Tensor::uninitialized(std::vector<int>{9});
        for (std::size_t i = 0; i < grown.numel(); ++i)
            grown_nans += std::isnan(grown[i]) ? 1 : 0;
    });
    task.wait();
    EXPECT_EQ(shape, (std::vector<int>{2, 3, 5, 7}));
    EXPECT_EQ(fresh_nans, 2u * 3 * 5 * 7);
    EXPECT_EQ(grown_nans, 9u);
}

TEST(Tensor, UninitializedRegrownBufferPoisonsItsTail)
{
    // A recycled buffer that held fewer elements than asked for keeps
    // its stale head and grows a NaN tail. With the pool off (sanitizer
    // builds, LECA_TENSOR_POOL=0) nothing is recycled and all reads NaN.
    std::vector<float> values;
    AsyncTask task;
    task.run([&] {
        { const Tensor big = Tensor::full({16}, 1.0f); }
        { const Tensor shrunk = Tensor::uninitialized({4}); }
        const Tensor regrown = Tensor::uninitialized({9});
        values.assign(regrown.data(), regrown.data() + regrown.numel());
    });
    task.wait();
    ASSERT_EQ(values.size(), 9u);
    const bool recycled = !std::isnan(values[0]);
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i < 4 && recycled)
            EXPECT_EQ(values[i], 1.0f) << i;
        else
            EXPECT_TRUE(std::isnan(values[i])) << i;
    }
}

TEST(Tensor, WarmUninitializedAllocatesNothing)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    { const Tensor warm = Tensor::uninitialized({4, 8, 6, 6}); }
    DenyAllocScope deny;
    const Tensor t = Tensor::uninitialized({4, 8, 6, 6});
    EXPECT_EQ(t.numel(), 4u * 8 * 6 * 6);
    EXPECT_EQ(deny.violations(), 0u);
}

TEST(Tensor, ShapeAndNumel)
{
    Tensor t({2, 3, 4, 5});
    EXPECT_EQ(t.dim(), 4);
    EXPECT_EQ(t.numel(), 120u);
    EXPECT_EQ(t.size(0), 2);
    EXPECT_EQ(t.size(-1), 5);
}

TEST(Tensor, Rank4IndexingRowMajor)
{
    Tensor t({2, 3, 4, 5});
    t.at(1, 2, 3, 4) = 7.0f;
    EXPECT_EQ(t[t.numel() - 1], 7.0f);
    t.at(0, 0, 0, 1) = 3.0f;
    EXPECT_EQ(t[1], 3.0f);
}

TEST(Tensor, FromDataRoundTrip)
{
    auto t = Tensor::fromData({2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(t.at(0, 0), 1.0f);
    EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(Tensor, ReshapeInferExtent)
{
    Tensor t({2, 6});
    auto r = t.reshape({3, -1});
    EXPECT_EQ(r.size(0), 3);
    EXPECT_EQ(r.size(1), 4);
}

TEST(Tensor, ReshapePreservesData)
{
    auto t = Tensor::fromData({2, 3}, {1, 2, 3, 4, 5, 6});
    auto r = t.reshape({3, 2});
    EXPECT_EQ(r.at(2, 1), 6.0f);
}

TEST(Tensor, PlusEqualsAccumulates)
{
    auto a = Tensor::fromData({2}, {1, 2});
    auto b = Tensor::fromData({2}, {10, 20});
    a += b;
    EXPECT_EQ(a.at(0), 11.0f);
    EXPECT_EQ(a.at(1), 22.0f);
}

TEST(Tensor, ScalarScale)
{
    auto a = Tensor::fromData({2}, {1, -2});
    a *= 3.0f;
    EXPECT_EQ(a.at(0), 3.0f);
    EXPECT_EQ(a.at(1), -6.0f);
}

TEST(Ops, MatmulIdentity)
{
    auto a = Tensor::fromData({2, 2}, {1, 2, 3, 4});
    auto eye = Tensor::fromData({2, 2}, {1, 0, 0, 1});
    auto c = matmul(a, eye);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(c[i], a[i]);
}

TEST(Ops, MatmulKnownValues)
{
    auto a = Tensor::fromData({2, 3}, {1, 2, 3, 4, 5, 6});
    auto b = Tensor::fromData({3, 2}, {7, 8, 9, 10, 11, 12});
    auto c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulTransVariantsAgree)
{
    Rng rng(5);
    auto a = randomTensor({4, 3}, rng);
    auto b = randomTensor({4, 5}, rng);
    // A^T B via explicit transpose then matmul.
    Tensor at({3, 4});
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 3; ++j)
            at.at(j, i) = a.at(i, j);
    const auto expect = matmul(at, b);
    const auto got = matmulTransA(a, b);
    ASSERT_TRUE(expect.sameShape(got));
    for (std::size_t i = 0; i < got.numel(); ++i)
        EXPECT_NEAR(got[i], expect[i], 1e-5f);

    auto c = randomTensor({6, 3}, rng);
    // A C^T
    Tensor ct({3, 6});
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 3; ++j)
            ct.at(j, i) = c.at(i, j);
    const auto expect_bt = matmul(a, ct);
    const auto got_bt = matmulTransB(a, c);
    ASSERT_TRUE(expect_bt.sameShape(got_bt));
    for (std::size_t i = 0; i < got_bt.numel(); ++i)
        EXPECT_NEAR(got_bt[i], expect_bt[i], 1e-5f);
}

TEST(Ops, Im2colShape)
{
    Tensor img({3, 8, 8});
    auto cols = im2col(img, 2, 2, 2, 0);
    EXPECT_EQ(cols.size(0), 3 * 2 * 2);
    EXPECT_EQ(cols.size(1), 4 * 4);
}

TEST(Ops, Im2colValuesNoPad)
{
    auto img = Tensor::fromData({1, 2, 2}, {1, 2, 3, 4});
    auto cols = im2col(img, 2, 2, 2, 0);
    // Single output position containing the whole block.
    EXPECT_EQ(cols.size(1), 1);
    EXPECT_FLOAT_EQ(cols.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(cols.at(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(cols.at(2, 0), 3.0f);
    EXPECT_FLOAT_EQ(cols.at(3, 0), 4.0f);
}

TEST(Ops, Im2colZeroPadding)
{
    auto img = Tensor::fromData({1, 1, 1}, {5});
    auto cols = im2col(img, 3, 3, 1, 1);
    // 3x3 kernel over a padded 1x1 image: centre value 5, rest zero.
    EXPECT_EQ(cols.size(1), 1);
    float sum = 0.0f;
    for (int r = 0; r < 9; ++r)
        sum += cols.at(r, 0);
    EXPECT_FLOAT_EQ(sum, 5.0f);
    EXPECT_FLOAT_EQ(cols.at(4, 0), 5.0f);
}

TEST(Ops, Col2imIsAdjointOfIm2col)
{
    // <im2col(x), y> == <x, col2im(y)> for random x, y.
    Rng rng(9);
    auto x = randomTensor({2, 6, 6}, rng);
    const int k = 3, stride = 1, pad = 1;
    auto ix = im2col(x, k, k, stride, pad);
    auto y = randomTensor(ix.shape(), rng);
    double lhs = 0.0;
    for (std::size_t i = 0; i < ix.numel(); ++i)
        lhs += static_cast<double>(ix[i]) * y[i];
    auto cy = col2im(y, 2, 6, 6, k, k, stride, pad);
    double rhs = 0.0;
    for (std::size_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x[i]) * cy[i];
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Ops, Conv2dMatchesNaive)
{
    Rng rng(21);
    auto x = randomTensor({2, 3, 7, 7}, rng);
    auto w = randomTensor({4, 3, 3, 3}, rng);
    auto b = randomTensor({4}, rng);
    for (int stride : {1, 2}) {
        for (int pad : {0, 1}) {
            auto fast = conv2d(x, w, b, stride, pad);
            auto ref = naiveConv2d(x, w, b, stride, pad);
            ASSERT_TRUE(fast.sameShape(ref));
            for (std::size_t i = 0; i < fast.numel(); ++i)
                EXPECT_NEAR(fast[i], ref[i], 1e-4f);
        }
    }
}

TEST(Ops, Conv2dNoBias)
{
    Rng rng(22);
    auto x = randomTensor({1, 2, 4, 4}, rng);
    auto w = randomTensor({3, 2, 2, 2}, rng);
    auto fast = conv2d(x, w, Tensor(), 2, 0);
    auto ref = naiveConv2d(x, w, Tensor(), 2, 0);
    for (std::size_t i = 0; i < fast.numel(); ++i)
        EXPECT_NEAR(fast[i], ref[i], 1e-4f);
}

TEST(Ops, AvgPoolBlockMeans)
{
    auto x = Tensor::fromData({1, 1, 2, 2}, {1, 2, 3, 4});
    auto y = avgPool2d(x, 2);
    EXPECT_EQ(y.size(2), 1);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2.5f);
}

TEST(Ops, MaxPoolSelectsMax)
{
    auto x = Tensor::fromData({1, 1, 2, 2}, {1, 9, 3, 4});
    std::vector<int> argmax;
    auto y = maxPool2d(x, 2, &argmax);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 9.0f);
    EXPECT_EQ(argmax[0], 1);
}

TEST(Ops, GlobalAvgPool)
{
    auto x = Tensor::fromData({1, 2, 1, 2}, {1, 3, 10, 20});
    auto y = globalAvgPool(x);
    EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 15.0f);
}

TEST(Ops, BilinearResizeIdentity)
{
    Rng rng(31);
    auto x = randomTensor({1, 2, 5, 5}, rng);
    auto y = bilinearResize(x, 5, 5);
    for (std::size_t i = 0; i < x.numel(); ++i)
        EXPECT_NEAR(y[i], x[i], 1e-5f);
}

TEST(Ops, BilinearUpsampleConstant)
{
    auto x = Tensor::full({1, 1, 2, 2}, 3.0f);
    auto y = bilinearResize(x, 4, 4);
    for (std::size_t i = 0; i < y.numel(); ++i)
        EXPECT_NEAR(y[i], 3.0f, 1e-5f);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(37);
    auto logits = randomTensor({4, 7}, rng, -3, 3);
    auto p = softmax(logits);
    for (int i = 0; i < 4; ++i) {
        float s = 0.0f;
        for (int j = 0; j < 7; ++j) {
            EXPECT_GT(p.at(i, j), 0.0f);
            s += p.at(i, j);
        }
        EXPECT_NEAR(s, 1.0f, 1e-5f);
    }
}

TEST(Ops, SoftmaxLargeLogitsStable)
{
    auto logits = Tensor::fromData({1, 2}, {1000.0f, 1000.0f});
    auto p = softmax(logits);
    EXPECT_NEAR(p.at(0, 0), 0.5f, 1e-5f);
}

TEST(Ops, ArgmaxRows)
{
    auto m = Tensor::fromData({2, 3}, {0, 5, 1, 9, 2, 3});
    auto idx = argmaxRows(m);
    EXPECT_EQ(idx[0], 1);
    EXPECT_EQ(idx[1], 0);
}

TEST(Ops, MseAndPsnr)
{
    auto a = Tensor::full({10}, 0.5f);
    auto b = Tensor::full({10}, 0.6f);
    EXPECT_NEAR(mse(a, b), 0.01, 1e-6);
    EXPECT_NEAR(psnrDb(a, b), 20.0, 1e-3);
    EXPECT_DOUBLE_EQ(psnrDb(a, a), 99.0);
}

TEST(Ops, MeanOfTensor)
{
    auto a = Tensor::fromData({4}, {1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(mean(a), 2.5);
}

} // namespace
} // namespace leca
