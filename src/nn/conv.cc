#include "conv.hh"

#include "nn/init.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "util/check.hh"

namespace leca {

Conv2d::Conv2d(int cin, int cout, int k, int stride, int pad, bool bias,
               Rng &rng)
    : _cin(cin), _cout(cout), _k(k), _stride(stride), _pad(pad),
      _hasBias(bias),
      _weight(Tensor({cout, cin, k, k})),
      _bias(Tensor({cout}))
{
    LECA_CHECK(cin > 0 && cout > 0, "Conv2d channels ", cin, " -> ", cout);
    LECA_CHECK(k > 0 && stride > 0 && pad >= 0, "Conv2d k=", k, " stride=",
               stride, " pad=", pad);
    kaimingInit(_weight.value, cin * k * k, rng);
}

Tensor
Conv2d::forward(const Tensor &x, Mode mode)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == _cin, "Conv2d(", _cin, " -> ",
               _cout, ", k=", _k, ") input shape ",
               detail::formatShape(x.shape()));
    const int n = x.size(0), h = x.size(2), w = x.size(3);
    const int oh = convOutSize(h, _k, _stride, _pad);
    const int ow = convOutSize(w, _k, _stride, _pad);

    Tensor y = Tensor::uninitialized({n, _cout, oh, ow});
    // A quantized conv evaluates its quantized weight VALUES through the
    // fp32 packed conv: planned Plain-fp32 (preparePlainFp32) over the
    // cached copy, unplanned over a copy dequantized from the codes per
    // call. Either way the values come from the codes, so quantize()
    // and loadQuantized() agree; Train mode stays restricted to real
    // fp32 weights.
    LECA_CHECK(_qweight.empty() || mode == Mode::Eval,
               "quantized Conv2d cannot run a Train-mode forward");
    const bool per_call = !_qweight.empty() && _dqweight.numel() == 0;
    const Tensor dq = per_call ? dequantizeRowMajor(_qweight) : Tensor();
    const Tensor &wsrc = per_call            ? dq
                         : _qweight.empty() ? _weight.value
                                            : _dqweight;
    // Both modes run the same kernels (convForwardBatch): the direct
    // conv for the shapes convUsesDirect takes, im2col packed straight
    // into arena scratch for the rest. No column matrix is ever
    // materialised, so steady-state forwards allocate nothing per
    // image. Backward recomputes the packed im2col from the cached
    // input.
    convForwardBatch(x.data(), n, _cin, h, w, _k, _k, _stride, _pad,
                     wsrc.data(), _cout,
                     _hasBias ? _bias.value.data() : nullptr, y.data());
    if (mode == Mode::Train) {
        // dX needs only the input's dims; the input itself feeds dW/db,
        // so a conv with no trainable parameter keeps no copy of it.
        _inDims = {n, h, w};
        _input = trainsParams() ? x : Tensor();
    }
    return y;
}

Tensor
Conv2d::forwardFused(const Tensor &x, const ConvEpilogue &epi)
{
    LECA_CHECK(_dqweight.numel() > 0,
               "Conv2d::forwardFused before preparePlainFp32");
    LECA_CHECK(x.dim() == 4 && x.size(1) == _cin, "Conv2d(", _cin, " -> ",
               _cout, ", k=", _k, ") fused input shape ",
               detail::formatShape(x.shape()));
    const int n = x.size(0), h = x.size(2), w = x.size(3);
    Tensor y = Tensor::uninitialized(
        {n, _cout, convOutSize(h, _k, _stride, _pad),
         convOutSize(w, _k, _stride, _pad)});
    convForwardBatch(x.data(), n, _cin, h, w, _k, _k, _stride, _pad,
                     _dqweight.data(), _cout, nullptr, y.data(), epi);
    return y;
}

bool
Conv2d::adjointDx(int w) const
{
    return convDxUsesAdjoint(_cin, _cout, _k, _stride, _pad, w);
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    const auto [n, h, w] = _inDims;
    LECA_CHECK(n > 0, "Conv2d backward without cached forward");
    LECA_CHECK(!trainsParams() || _input.numel() > 0,
               "Conv2d parameters unfrozen between forward and backward");
    LECA_CHECK(grad_out.dim() == 4 && grad_out.size(0) == n
                   && grad_out.size(1) == _cout
                   && grad_out.size(2) == convOutSize(h, _k, _stride, _pad)
                   && grad_out.size(3) == convOutSize(w, _k, _stride, _pad),
               "Conv2d grad shape ", detail::formatShape(grad_out.shape()),
               " vs input ", n, " x ", _cin, " x ", h, " x ", w);

    Tensor dx = Tensor::uninitialized({n, _cin, h, w});
    convBackwardDataBatch(grad_out.data(), n, _cout, _weight.value.data(),
                          _cin, h, w, _k, _stride, _pad, dx.data());
    // Frozen parameters get no gradient: their dW/db GEMMs are
    // skipped, and their grads stay as they are.
    convWeightGradBatch(_input.data(), n, _cin, h, w, _k, _stride, _pad,
                        grad_out.data(), _cout,
                        _weight.frozen ? nullptr : _weight.grad.data(),
                        _hasBias && !_bias.frozen ? _bias.grad.data()
                                                  : nullptr);
    _inDims = {};
    _input = Tensor();
    return dx;
}

std::vector<Param *>
Conv2d::params()
{
    if (_hasBias)
        return {&_weight, &_bias};
    return {&_weight};
}

// leca-analyze: cold — resident weight re-layout (plan time)
void
Conv2d::prepareResident()
{
    LECA_CHECK(!_qweight.empty(),
               "Conv2d::prepareResident before quantizeWeights");
    _qweightHwc = quantizeConvWeightsHwc(_qweight, _cin, _k, _k);
}

// leca-analyze: cold — plan-time weight materialisation
void
Conv2d::preparePlainFp32()
{
    LECA_CHECK(!_qweight.empty(),
               "Conv2d::preparePlainFp32 before quantizeWeights");
    _dqweight = dequantizeRowMajor(_qweight);
}

void
Conv2d::quantizeWeights(std::vector<QuantStat> &stats)
{
    _qweight = quantizeRowMajor(_weight.value, _cout,
                                static_cast<std::int64_t>(_cin) * _k * _k);
    // Any fp32 execution copy is now stale; the planner rebuilds it.
    _dqweight = Tensor();
    stats.push_back({"Conv2d " + std::to_string(_cin) + "->"
                         + std::to_string(_cout) + " k"
                         + std::to_string(_k),
                     _qweight.fp32Bytes(), _qweight.quantBytes(),
                     quantMaxAbsError(_weight.value, _qweight)});
}

} // namespace leca
