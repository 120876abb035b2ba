#include "batchnorm.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "nn/activation.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

BatchNorm2d::BatchNorm2d(int channels, float momentum, float eps)
    : _channels(channels), _momentum(momentum), _eps(eps),
      _gamma(Tensor::full({channels}, 1.0f)),
      _beta(Tensor({channels})),
      _runningMean({channels}),
      _runningVar(Tensor::full({channels}, 1.0f))
{
    LECA_CHECK(channels > 0, "BatchNorm2d channels ", channels);
    LECA_CHECK(momentum > 0.0f && momentum <= 1.0f, "BatchNorm2d momentum ",
               momentum);
    LECA_CHECK(eps > 0.0f, "BatchNorm2d eps ", eps);
}

namespace {

/** Channels whose double chains one Train loop interleaves. */
constexpr int kChains = 8;

/**
 * The two double sums of channels [c0, c0 + kChains):
 * s1 += u and s2 += double(u) * t, with u = a (through the ReLU mask
 * when kMasked) and t = b. Each channel's chains run in (image, pixel)
 * order, exactly as a loop over that channel alone would; interleaving
 * kChains channels only hides the add latency. Lanes past the last
 * channel repeat it and are dropped.
 */
template <bool kMasked>
void
chainSums(const float *a, const unsigned char *mask, const float *b, int n,
          int c, std::size_t plane, int c0, double *s1, double *s2)
{
    double u1[kChains] = {}, u2[kChains] = {};
    for (int i = 0; i < n; ++i) {
        std::size_t off[kChains];
        for (int j = 0; j < kChains; ++j)
            off[j] = (static_cast<std::size_t>(i) * c + std::min(c0 + j, c - 1))
                     * plane;
        for (std::size_t p = 0; p < plane; ++p)
            for (int j = 0; j < kChains; ++j) {
                float u = a[off[j] + p];
                if constexpr (kMasked)
                    u = maskedGrad(u, mask[off[j] + p]);
                u1[j] += u;
                u2[j] += static_cast<double>(u) * b[off[j] + p];
            }
    }
    for (int j = 0; j < kChains; ++j) {
        s1[j] = u1[j];
        s2[j] = u2[j];
    }
}

/** x̂ = (x - m) / std and y = g·x̂ + b over one channel of every image,
 *  rectified with its mask recorded when kRelu. */
template <bool kRelu>
void
normalizeChannel(const float *x, float *xhat, float *y, unsigned char *mask,
                 int n, int c, std::size_t plane, int ch, float m, float std,
                 float g, float b)
{
    for (int i = 0; i < n; ++i) {
        const std::size_t off = (static_cast<std::size_t>(i) * c + ch) * plane;
        const float *src = x + off;
        float *xh = xhat + off;
        float *dst = y + off;
        for (std::size_t p = 0; p < plane; ++p) {
            const float v = (src[p] - m) / std;
            xh[p] = v;
            const float out = g * v + b;
            if constexpr (kRelu) {
                const bool pos = out > 0.0f;
                dst[p] = pos ? out : 0.0f;
                mask[off + p] = pos;
            } else {
                dst[p] = out;
            }
        }
    }
}

/** dx over one channel of every image, the gradient through the ReLU
 *  mask when kMasked. */
template <bool kMasked>
void
gradChannel(const float *dy, const unsigned char *mask, const float *xhat,
            float *dx, int n, int c, std::size_t plane, int ch, float g,
            float std, float mean_dy, float mean_dy_xhat)
{
    for (int i = 0; i < n; ++i) {
        const std::size_t off = (static_cast<std::size_t>(i) * c + ch) * plane;
        const float *xh = xhat + off;
        float *d = dx + off;
        for (std::size_t p = 0; p < plane; ++p) {
            float u = dy[off + p];
            if constexpr (kMasked)
                u = maskedGrad(u, mask[off + p]);
            d[p] = g / std * (u - mean_dy - xh[p] * mean_dy_xhat);
        }
    }
}

} // namespace

Tensor
BatchNorm2d::forward(const Tensor &x, Mode mode)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == _channels,
               "BatchNorm2d(", _channels, ") input shape ",
               detail::formatShape(x.shape()));
    if (mode == Mode::Train)
        return forwardTrain(x, nullptr);
    const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const std::size_t plane = static_cast<std::size_t>(h) * w;
    Tensor y = Tensor::uninitialized(x.shape());
    parallelFor(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (int ch = static_cast<int>(c0); ch < c1; ++ch) {
        const float m = _runningMean[static_cast<std::size_t>(ch)];
        const float std = std::sqrt(
            _runningVar[static_cast<std::size_t>(ch)] + _eps);
        const float g = _gamma.value[static_cast<std::size_t>(ch)];
        const float b = _beta.value[static_cast<std::size_t>(ch)];
        for (int i = 0; i < n; ++i) {
            const std::size_t off =
                (static_cast<std::size_t>(i) * c + ch) * plane;
            const float *src = x.data() + off;
            float *dst = y.data() + off;
            for (std::size_t p = 0; p < plane; ++p)
                dst[p] = g * (src[p] - m) / std + b;
        }
    }
    });
    return y;
}

Tensor
BatchNorm2d::forwardRelu(const Tensor &x, Relu &relu)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == _channels,
               "BatchNorm2d(", _channels, ") input shape ",
               detail::formatShape(x.shape()));
    return forwardTrain(x, relu.recordMask(x.numel()));
}

Tensor
BatchNorm2d::forwardTrain(const Tensor &x, unsigned char *mask)
{
    const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const std::size_t plane = static_cast<std::size_t>(h) * w;
    const double count = static_cast<double>(n) * h * w;

    if (_refresh)
        ++_refreshCount;
    Tensor y = Tensor::uninitialized(x.shape());
    _xhat = Tensor::uninitialized(x.shape());
    _batchStd.assign(static_cast<std::size_t>(c), 0.0f);
    // Channels are independent (stats, running buffers, outputs all
    // indexed by ch) and each channel's sums stay one serial chain, so
    // the per-channel numbers are bit-identical at any thread count.
    const std::int64_t groups = (c + kChains - 1) / kChains;
    parallelFor(0, groups, 1, [&](std::int64_t g0, std::int64_t g1) {
    for (std::int64_t grp = g0; grp < g1; ++grp) {
        const int c0 = static_cast<int>(grp) * kChains;
        double sum[kChains], sq[kChains];
        chainSums<false>(x.data(), nullptr, x.data(), n, c, plane, c0, sum,
                         sq);
        for (int ch = c0; ch < std::min(c0 + kChains, c); ++ch) {
            const double m = sum[ch - c0] / count;
            const double var = sq[ch - c0] / count - m * m;
            const float std = static_cast<float>(std::sqrt(var + _eps));
            _batchStd[static_cast<std::size_t>(ch)] = std;

            auto &rm = _runningMean[static_cast<std::size_t>(ch)];
            auto &rv = _runningVar[static_cast<std::size_t>(ch)];
            // During a refresh pass the running statistics are the
            // exact cumulative average over the refresh batches.
            const float mom = _refresh
                ? 1.0f / static_cast<float>(_refreshCount)
                : _momentum;
            rm = (1.0f - mom) * rm + mom * static_cast<float>(m);
            rv = (1.0f - mom) * rv + mom * static_cast<float>(var);

            const float g = _gamma.value[static_cast<std::size_t>(ch)];
            const float b = _beta.value[static_cast<std::size_t>(ch)];
            if (mask != nullptr)
                normalizeChannel<true>(x.data(), _xhat.data(), y.data(), mask,
                                       n, c, plane, ch, static_cast<float>(m),
                                       std, g, b);
            else
                normalizeChannel<false>(x.data(), _xhat.data(), y.data(),
                                        nullptr, n, c, plane, ch,
                                        static_cast<float>(m), std, g, b);
        }
    }
    });
    return y;
}

Tensor
BatchNorm2d::backward(const Tensor &grad_out)
{
    return backwardMasked(grad_out, nullptr);
}

Tensor
BatchNorm2d::backwardRelu(const Tensor &grad_out, Relu &relu)
{
    // The ReLU's check comes first, as it does for the separate layers.
    const unsigned char *mask = relu.takeMask(grad_out.numel());
    return backwardMasked(grad_out, mask);
}

Tensor
BatchNorm2d::backwardMasked(const Tensor &grad_out,
                            const unsigned char *mask)
{
    LECA_CHECK(_xhat.numel() > 0, "BatchNorm2d backward without forward");
    LECA_CHECK_SAME_SHAPE(grad_out, _xhat);
    const int n = grad_out.size(0), c = grad_out.size(1);
    const int h = grad_out.size(2), w = grad_out.size(3);
    const std::size_t plane = static_cast<std::size_t>(h) * w;
    const double count = static_cast<double>(n) * h * w;

    Tensor dx = Tensor::uninitialized(grad_out.shape());
    const std::int64_t groups = (c + kChains - 1) / kChains;
    parallelFor(0, groups, 1, [&](std::int64_t g0, std::int64_t g1) {
    for (std::int64_t grp = g0; grp < g1; ++grp) {
        const int c0 = static_cast<int>(grp) * kChains;
        double sum_dy[kChains], sum_dy_xhat[kChains];
        if (mask != nullptr)
            chainSums<true>(grad_out.data(), mask, _xhat.data(), n, c, plane,
                            c0, sum_dy, sum_dy_xhat);
        else
            chainSums<false>(grad_out.data(), nullptr, _xhat.data(), n, c,
                             plane, c0, sum_dy, sum_dy_xhat);
        for (int ch = c0; ch < std::min(c0 + kChains, c); ++ch) {
            const double s1 = sum_dy[ch - c0], s2 = sum_dy_xhat[ch - c0];
            // Frozen γ/β get no gradient; dX needs the sums either way.
            if (!_gamma.frozen)
                _gamma.grad[static_cast<std::size_t>(ch)] +=
                    static_cast<float>(s2);
            if (!_beta.frozen)
                _beta.grad[static_cast<std::size_t>(ch)] +=
                    static_cast<float>(s1);

            const float g = _gamma.value[static_cast<std::size_t>(ch)];
            const float std = _batchStd[static_cast<std::size_t>(ch)];
            const float mean_dy = static_cast<float>(s1 / count);
            const float mean_dy_xhat = static_cast<float>(s2 / count);
            if (mask != nullptr)
                gradChannel<true>(grad_out.data(), mask, _xhat.data(),
                                  dx.data(), n, c, plane, ch, g, std, mean_dy,
                                  mean_dy_xhat);
            else
                gradChannel<false>(grad_out.data(), nullptr, _xhat.data(),
                                   dx.data(), n, c, plane, ch, g, std,
                                   mean_dy, mean_dy_xhat);
        }
    }
    });
    _xhat = Tensor();
    return dx;
}

void
BatchNorm2d::evalAffineInto(float *a, float *b) const
{
    for (int ch = 0; ch < _channels; ++ch) {
        const std::size_t i = static_cast<std::size_t>(ch);
        const float std = std::sqrt(_runningVar[i] + _eps);
        a[ch] = _gamma.value[i] / std;
        b[ch] = _beta.value[i] - a[ch] * _runningMean[i];
    }
}

void
BatchNorm2d::setStatsRefresh(bool enable)
{
    _refresh = enable;
    _refreshCount = 0;
}

} // namespace leca
