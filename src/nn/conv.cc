#include "conv.hh"

#include <algorithm>

#include "nn/init.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"

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

    Tensor y({n, _cout, oh, ow});
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
    if (mode == Mode::Train)
        _input = x;
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
    Tensor y({n, _cout, convOutSize(h, _k, _stride, _pad),
              convOutSize(w, _k, _stride, _pad)});
    convForwardBatch(x.data(), n, _cin, h, w, _k, _k, _stride, _pad,
                     _dqweight.data(), _cout, nullptr, y.data(), epi);
    return y;
}

bool
Conv2d::adjointDx(int w) const
{
    return _stride == 1 && _pad < _k && convUsesDirect(_cout, _cin, 1, w);
}

namespace {

/**
 * dX of a stride-1 conv as one forward conv over dY (the adjoint
 * route, DESIGN.md §9): dx = conv(dy, R) with pad k-1-pad, where
 * R[ci][co][ky][kx] = W[co][ci][k-1-ky][k-1-kx] — the weights rotated
 * 180° and channel-transposed, built in arena scratch. Each dX element
 * is one ascending (co, ky, kx) chain of the direct conv.
 */
void
adjointConvDx(const Tensor &grad_out, const Tensor &weight, int cin, int k,
              int pad, Tensor &dx)
{
    const int n = grad_out.size(0), cout = grad_out.size(1);
    const int kk = k * k;
    Arena::Scope scope;
    float *rot = Arena::local().alloc(static_cast<std::size_t>(cin) * cout
                                      * kk);
    const float *wp = weight.data();
    for (int co = 0; co < cout; ++co)
        for (int ci = 0; ci < cin; ++ci) {
            const float *src = wp + (static_cast<std::size_t>(co) * cin + ci)
                                        * kk;
            float *dst = rot + (static_cast<std::size_t>(ci) * cout + co) * kk;
            for (int t = 0; t < kk; ++t)
                dst[kk - 1 - t] = src[t];
        }
    convForwardBatch(grad_out.data(), n, cout, grad_out.size(2),
                     grad_out.size(3), k, k, 1, k - 1 - pad, rot, cin,
                     nullptr, dx.data());
}

} // namespace

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    LECA_CHECK(_input.numel() > 0, "Conv2d backward without cached forward");
    const int n = _input.size(0), h = _input.size(2), w = _input.size(3);
    const int oh = grad_out.size(2), ow = grad_out.size(3);
    LECA_CHECK(grad_out.size(0) == n && grad_out.size(1) == _cout,
               "Conv2d grad shape ", detail::formatShape(grad_out.shape()),
               " vs batch ", n, " x ", _cout, " channels");

    // Frozen parameters get no gradient: their im2col, dW GEMM and
    // partials fold are skipped, and their grads stay as they are.
    const bool dw_live = !_weight.frozen;
    const bool db_live = _hasBias && !_bias.frozen;
    const bool adjoint = adjointDx(w);
    Tensor dx({n, _cin, h, w});
    if (adjoint)
        adjointConvDx(grad_out, _weight.value, _cin, _k, _pad, dx);
    if (adjoint && !dw_live && !db_live) {
        _input = Tensor();
        return dx;
    }

    const int kdim = _cin * _k * _k;
    // When a bias is learned, the column matrix gets one extra all-ones
    // row: the dW GEMM then emits db as its trailing output column in
    // the same dY traversal (x * 1.0f == x, and each output element
    // accumulates its k contributions in one ascending chain, so the
    // fused column is bit-identical to the explicit row-sum loop).
    const int grows = dw_live || db_live ? kdim + (db_live ? 1 : 0) : 0;
    const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
    const std::size_t in_sz = static_cast<std::size_t>(_cin) * h * w;
    const float *wmat = _weight.value.data();

    // Per-image gradient partials live in one arena slab owned by the
    // calling thread's scope; workers only open nested scopes above it.
    // The slab is folded serially in ascending image order below, so
    // the float summation order matches the serial loop bit for bit,
    // and nothing in this pass touches the heap.
    Arena::Scope scope;
    float *partials = Arena::local().alloc(
        static_cast<std::size_t>(n) * _cout * grows);
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (int i = static_cast<int>(n0); i < n1; ++i) {
            const float *dy =
                grad_out.data() + static_cast<std::size_t>(i) * _cout * ohow;
            float *dw = partials
                        + static_cast<std::size_t>(i) * _cout * grows;
            Arena::Scope image_scope;
            if (grows > 0) {
                // Recompute this image's column matrix into arena
                // scratch.
                float *cols = Arena::local().alloc(
                    static_cast<std::size_t>(grows) * ohow);
                im2colRaw(_input.data()
                              + static_cast<std::size_t>(i) * in_sz,
                          _cin, h, w, _k, _k, _stride, _pad, cols);
                if (db_live) {
                    float *ones = cols + static_cast<std::size_t>(kdim)
                                             * ohow;
                    for (std::int64_t p = 0; p < ohow; ++p)
                        ones[p] = 1.0f;
                }
                // dW_i^T (with db_i fused as the last row) = cols * dY^T.
                // Same operand pairs and the same ascending-p fma chain
                // per element as dY * cols^T — bit-identical — but this
                // orientation packs the big column matrix along its
                // storage rows instead of transposing it, and only the
                // small dY block goes through the transpose pack.
                gemmBlocked(grows, _cout, ohow, cols, ohow, false, dy, ohow,
                            true, dw, _cout, false);
            }
            if (adjoint)
                continue;
            // dX = col2im(W^T * dY); images write disjoint slabs, and
            // col2imRaw accumulates straight into the zero-initialised
            // dx slab.
            float *dcols = Arena::local().alloc(
                static_cast<std::size_t>(kdim) * ohow);
            gemmBlocked(kdim, ohow, _cout, wmat, kdim, true, dy, ohow, false,
                        dcols, ohow, false);
            col2imRaw(dcols, _cin, h, w, _k, _k, _stride, _pad,
                      dx.data() + static_cast<std::size_t>(i) * in_sz);
        }
    });
    if (grows > 0) {
        // Each image's partial is stored transposed ([grows, cout]); the
        // fold still adds one value per (co, q) element per image in
        // ascending image order, so the summation chains are unchanged.
        // dW is summed over the batch before it joins the accumulator.
        const std::size_t wsz = static_cast<std::size_t>(_cout) * kdim;
        float *dwsum = dw_live ? Arena::local().alloc(wsz) : nullptr;
        if (dw_live)
            std::fill(dwsum, dwsum + wsz, 0.0f);
        for (int i = 0; i < n; ++i) {
            const float *dw =
                partials + static_cast<std::size_t>(i) * _cout * grows;
            for (int co = 0; co < _cout; ++co) {
                if (dw_live) {
                    float *acc = dwsum + static_cast<std::size_t>(co) * kdim;
                    for (int q = 0; q < kdim; ++q)
                        acc[q] += dw[static_cast<std::size_t>(q) * _cout + co];
                }
                if (db_live)
                    _bias.grad[static_cast<std::size_t>(co)] +=
                        dw[static_cast<std::size_t>(kdim) * _cout + co];
            }
        }
        if (dw_live) {
            float *g = _weight.grad.data();
            for (std::size_t e = 0; e < wsz; ++e)
                g[e] += dwsum[e];
        }
    }
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
