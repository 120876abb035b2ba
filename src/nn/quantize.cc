#include "quantize.hh"

#include <algorithm>
#include <cmath>

#include "util/check.hh"
#include "util/numeric.hh"
#include "util/parallel.hh"

namespace leca {

int
QBits::levels() const
{
    if (isTernary())
        return 3;
    LECA_CHECK(_bits == std::floor(_bits) && _bits >= 1.0 && _bits <= 16.0,
               "unsupported bit depth ", _bits);
    return 1 << truncToInt(_bits);
}

int
quantizeCode(float x, float lo, float hi, int levels)
{
    LECA_DCHECK(levels >= 2 && hi > lo, "bad quantizer configuration: levels=",
                levels, " range [", lo, ", ", hi, ")");
    if (std::isnan(x))
        return 0;
    const float clamped = std::clamp(x, lo, hi);
    const float t = (clamped - lo) / (hi - lo);
    const int code = roundToInt(t * static_cast<float>(levels - 1));
    return std::clamp(code, 0, levels - 1);
}

float
dequantizeCode(int code, float lo, float hi, int levels)
{
    return lo + static_cast<float>(code) * (hi - lo)
           / static_cast<float>(levels - 1);
}

float
quantizeUniform(float x, float lo, float hi, int levels)
{
    return dequantizeCode(quantizeCode(x, lo, hi, levels), lo, hi, levels);
}

Tensor
quantizeTensor(const Tensor &x, float lo, float hi, int levels)
{
    Tensor y(x.shape());
    parallelFor(0, static_cast<std::int64_t>(x.numel()), 4096,
                [&](std::int64_t i0, std::int64_t i1) {
                    for (std::int64_t i = i0; i < i1; ++i)
                        y[static_cast<std::size_t>(i)] = quantizeUniform(
                            x[static_cast<std::size_t>(i)], lo, hi, levels);
                });
    return y;
}

SteQuantizer::SteQuantizer(QBits qbits, float lo, float hi)
    : _qbits(qbits), _lo(lo), _hi(hi)
{
}

Tensor
SteQuantizer::forward(const Tensor &x, Mode mode)
{
    const int levels = _qbits.levels();
    Tensor y(x.shape());
    if (mode == Mode::Train)
        _inside.assign(x.numel(), 0);
    parallelFor(0, static_cast<std::int64_t>(x.numel()), 4096,
                [&](std::int64_t i0, std::int64_t i1) {
                    for (std::int64_t i = i0; i < i1; ++i) {
                        const std::size_t p = static_cast<std::size_t>(i);
                        y[p] = quantizeUniform(x[p], _lo, _hi, levels);
                        if (mode == Mode::Train)
                            _inside[p] = x[p] >= _lo && x[p] <= _hi;
                    }
                });
    return y;
}

Tensor
SteQuantizer::backward(const Tensor &grad_out)
{
    LECA_CHECK(_inside.size() == grad_out.numel(),
               "SteQuantizer backward without forward: cached ",
               _inside.size(), " flags, got ", grad_out.numel(), " grads");
    Tensor dx(grad_out.shape());
    parallelFor(0, static_cast<std::int64_t>(grad_out.numel()), 4096,
                [&](std::int64_t i0, std::int64_t i1) {
                    for (std::int64_t i = i0; i < i1; ++i) {
                        const std::size_t p = static_cast<std::size_t>(i);
                        dx[p] = _inside[p] ? grad_out[p] : 0.0f;
                    }
                });
    _inside.clear();
    return dx;
}

} // namespace leca
