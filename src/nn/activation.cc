#include "activation.hh"

#include <algorithm>
#include <cstdint>

#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

namespace {

constexpr std::int64_t kGrain = 4096; //!< elements per parallel chunk

/** dst[i] = maskedGrad(grad[i], mask[i]) over [i0, i1). */
void
maskedGradRange(const float *grad, const unsigned char *mask, float *dst,
                std::int64_t i0, std::int64_t i1)
{
    for (std::int64_t i = i0; i < i1; ++i)
        dst[i] = maskedGrad(grad[i], mask[i]);
}

/**
 * y[i] = relu(x[i] + addend[i]) over [i0, i1) (just x[i] when @p addend
 * is null), with mask[i] = 1 where that sum is > 0 when @p mask is
 * non-null. The pointers are parameters, not lambda captures: a byte
 * store may alias a captured pointer, which forces a reload per element
 * and keeps the loop scalar.
 */
void
reluRange(const float *x, const float *addend, float *y, unsigned char *mask,
          std::int64_t i0, std::int64_t i1)
{
    for (std::int64_t i = i0; i < i1; ++i) {
        const float v = addend != nullptr ? x[i] + addend[i] : x[i];
        const bool pos = v > 0.0f;
        y[i] = pos ? v : 0.0f;
        if (mask != nullptr)
            mask[i] = pos;
    }
}

} // namespace

Tensor
Relu::forward(const Tensor &x, Mode mode)
{
    Tensor y = Tensor::uninitialized(x.shape());
    const float *xp = x.data();
    float *yp = y.data();
    unsigned char *mp =
        mode == Mode::Train ? recordMask(x.numel()) : nullptr;
    parallelFor(0, static_cast<std::int64_t>(x.numel()), kGrain,
                [&](std::int64_t i0, std::int64_t i1) {
                    reluRange(xp, nullptr, yp, mp, i0, i1);
                });
    return y;
}

void
Relu::forwardAdd(Tensor &sum, const Tensor &addend, Mode mode)
{
    LECA_CHECK_SAME_SHAPE(sum, addend);
    const float *ap = addend.data();
    float *sp = sum.data();
    unsigned char *mp =
        mode == Mode::Train ? recordMask(sum.numel()) : nullptr;
    parallelFor(0, static_cast<std::int64_t>(sum.numel()), kGrain,
                [&](std::int64_t i0, std::int64_t i1) {
                    reluRange(sp, ap, sp, mp, i0, i1);
                });
}

unsigned char *
Relu::recordMask(std::size_t numel)
{
    if (_mask.size() < numel)
        _mask.resize(numel);
    _live = numel;
    return _mask.data();
}

const unsigned char *
Relu::takeMask(std::size_t numel)
{
    LECA_CHECK(_live == numel,
               "Relu backward without matching forward: cached ", _live,
               ", got ", numel);
    _live = 0;
    return _mask.data();
}

Tensor
Relu::backward(const Tensor &grad_out)
{
    const unsigned char *mp = takeMask(grad_out.numel());
    Tensor dx = Tensor::uninitialized(grad_out.shape());
    const float *gp = grad_out.data();
    float *dp = dx.data();
    parallelFor(0, static_cast<std::int64_t>(grad_out.numel()), kGrain,
                [&](std::int64_t i0, std::int64_t i1) {
                    maskedGradRange(gp, mp, dp, i0, i1);
                });
    return dx;
}

Tensor
HardClamp::forward(const Tensor &x, Mode mode)
{
    Tensor y(x.shape());
    const float *xp = x.data();
    float *yp = y.data();
    const std::int64_t numel = static_cast<std::int64_t>(x.numel());
    if (mode == Mode::Train) {
        _inside.assign(x.numel(), 0);
        _shape = x.shape();
        unsigned char *mp = _inside.data();
        parallelFor(0, numel, kGrain,
                    [&](std::int64_t i0, std::int64_t i1) {
                        for (std::int64_t i = i0; i < i1; ++i) {
                            yp[i] = std::clamp(xp[i], _lo, _hi);
                            mp[i] = xp[i] >= _lo && xp[i] <= _hi;
                        }
                    });
    } else {
        parallelFor(0, numel, kGrain,
                    [&](std::int64_t i0, std::int64_t i1) {
                        for (std::int64_t i = i0; i < i1; ++i)
                            yp[i] = std::clamp(xp[i], _lo, _hi);
                    });
    }
    return y;
}

Tensor
HardClamp::backward(const Tensor &grad_out)
{
    LECA_CHECK(_inside.size() == grad_out.numel(),
               "HardClamp backward without matching forward: cached ",
               _inside.size(), ", got ", grad_out.numel());
    Tensor dx(grad_out.shape());
    const float *gp = grad_out.data();
    const unsigned char *mp = _inside.data();
    float *dp = dx.data();
    parallelFor(0, static_cast<std::int64_t>(grad_out.numel()), kGrain,
                [&](std::int64_t i0, std::int64_t i1) {
                    maskedGradRange(gp, mp, dp, i0, i1);
                });
    _inside.clear();
    return dx;
}

} // namespace leca
