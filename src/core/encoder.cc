#include "encoder.hh"

#include <algorithm>
#include <cmath>

#include "analog/buffers.hh"
#include "analog/scm.hh"
#include "nn/init.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "util/check.hh"
#include "util/numeric.hh"
#include "util/parallel.hh"

namespace leca {

LecaEncoder::LecaEncoder(const LecaConfig &config,
                         const CircuitConfig &circuit,
                         const SensorConfig &sensor, Rng &init_rng)
    : _config(config), _circuit(circuit), _sensor(sensor),
      _weight(Tensor({config.nch, config.inChannels, config.kernel,
                      config.kernel})),
      _outScale(Tensor({1}))
{
    config.validate();
    circuit.validate();
    kaimingInit(_weight.value,
                config.inChannels * config.kernel * config.kernel,
                init_rng);
    _outScale.value[0] = 1.0f;
}

std::vector<Param *>
LecaEncoder::params()
{
    return {&_weight, &_outScale};
}

void
LecaEncoder::quantizeWeights(std::vector<QuantStat> &stats)
{
    if (_modality != EncoderModality::Soft)
        return; // hard/noisy forwards are the circuit model, not a GEMM
    const int kdim =
        _config.inChannels * _config.kernel * _config.kernel;
    _qweight = quantizeRowMajor(_weight.value, _config.nch, kdim);
    stats.push_back({"Encoder conv " + std::to_string(_config.inChannels)
                         + "->" + std::to_string(_config.nch) + " k"
                         + std::to_string(_config.kernel),
                     _qweight.fp32Bytes(), _qweight.quantBytes(),
                     quantMaxAbsError(_weight.value, _qweight)});
    preparePlainFp32();
}

// leca-analyze: cold — plan-time weight materialisation
void
LecaEncoder::preparePlainFp32()
{
    _dqweight = _qweight.empty() ? Tensor() : dequantizeRowMajor(_qweight);
}

void
LecaEncoder::setModality(EncoderModality modality)
{
    if (modality != EncoderModality::Soft) {
        LECA_CHECK(_config.kernel == 2,
                   "hardware modalities require K = 2 (Sec. 3.3), got K = ",
                   _config.kernel);
    }
    if (modality != _modality) {
        // The output scale lives in different units per modality
        // (conv units vs volts); re-seed it on a switch. This is the
        // "no trivial mapping" of Sec. 6.2 made concrete.
        _outScale.value[0] =
            modality == EncoderModality::Soft ? 1.0f : 0.3f;
    }
    _modality = modality;
}

void
LecaEncoder::setNoiseModel(AnalogNoiseModel model)
{
    _noiseModel = std::move(model);
    _hasNoiseModel = true;
}

const std::array<LecaEncoder::Tap, 16> &
LecaEncoder::rawTaps()
{
    // Raw-domain 4x4 block in row-major order; RGGB with duplicated
    // green (Fig. 5(a)). Channel indices: 0 = R, 1 = G, 2 = B.
    static const std::array<Tap, 16> taps = {{
        {0, 0, 0, 1.0f}, {1, 0, 0, 0.5f}, {0, 0, 1, 1.0f}, {1, 0, 1, 0.5f},
        {1, 0, 0, 0.5f}, {2, 0, 0, 1.0f}, {1, 0, 1, 0.5f}, {2, 0, 1, 1.0f},
        {0, 1, 0, 1.0f}, {1, 1, 0, 0.5f}, {0, 1, 1, 1.0f}, {1, 1, 1, 0.5f},
        {1, 1, 0, 0.5f}, {2, 1, 0, 1.0f}, {1, 1, 1, 0.5f}, {2, 1, 1, 1.0f},
    }};
    return taps;
}

Tensor
LecaEncoder::forward(const Tensor &x, Mode mode)
{
    switch (_modality) {
      case EncoderModality::Soft:
        return forwardSoft(x, mode);
      case EncoderModality::Hard:
        return forwardHard(x, mode, false);
      case EncoderModality::Noisy:
        return forwardHard(x, mode, true);
    }
    LECA_CHECK(false, "unknown modality ", static_cast<int>(_modality));
    return {};
}

Tensor
LecaEncoder::backward(const Tensor &grad_out)
{
    if (_modality == EncoderModality::Soft)
        return backwardSoft(grad_out);
    return backwardHard(grad_out);
}

// ---------------------------------------------------------------------
// Soft modality: conv (stride = K) -> scale -> STE quantizer.
// ---------------------------------------------------------------------

Tensor
LecaEncoder::forwardSoft(const Tensor &x, Mode mode)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == _config.inChannels,
               "soft encoder expects [N,", _config.inChannels,
               ",H,W] input, got ", detail::formatShape(x.shape()));
    const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
    const int k = _config.kernel;
    const int oh = h / k, ow = w / k;
    const int nch = _config.nch;

    _inShape = x.shape();

    Tensor pre = Tensor::uninitialized({n, nch, oh, ow});
    // Quantized: the fp32 packed conv over the weight values carried by
    // the codes (preparePlainFp32's copy, else dequantized per call) —
    // a 12-MAC patch padded to a 32-lane int8 block would cost more.
    LECA_CHECK(_qweight.empty() || mode == Mode::Eval,
               "quantized encoder cannot run a Train-mode forward");
    const bool per_call = !_qweight.empty() && _dqweight.numel() == 0;
    const Tensor dq = per_call ? dequantizeRowMajor(_qweight) : Tensor();
    const Tensor &wsrc = per_call            ? dq
                         : _qweight.empty() ? _weight.value
                                            : _dqweight;
    // One packed conv over the batch: the [nch, c, k, k] weights are
    // the row-major [nch, c*k*k] matrix it takes, packed once per call;
    // every image packs straight into arena scratch (no column matrix,
    // no per-image allocation). Backward repacks the patches it needs
    // from the cached input.
    convForwardBatch(x.data(), n, c, h, w, k, k, k, 0, wsrc.data(), nch,
                     nullptr, pre.data());

    const float s = std::max(_outScale.value[0], 0.05f);
    const int levels = _config.qbits.levels();
    Tensor features = Tensor::uninitialized(pre.shape());
    const float *pp = pre.data();
    float *fp = features.data();
    parallelFor(0, static_cast<std::int64_t>(pre.numel()), 4096,
                [&](std::int64_t i0, std::int64_t i1) {
                    for (std::int64_t i = i0; i < i1; ++i)
                        fp[i] =
                            quantizeUniform(pp[i] / s, -1.0f, 1.0f, levels);
                });
    if (mode == Mode::Train) {
        _softInput = x;
        _softPre = std::move(pre);
    }
    return features;
}

Tensor
LecaEncoder::backwardSoft(const Tensor &grad_out)
{
    LECA_CHECK(_softPre.numel() > 0,
                "soft encoder backward without forward");
    const int n = _inShape[0], c = _inShape[1];
    const int h = _inShape[2], w = _inShape[3];
    const int k = _config.kernel;
    const int nch = _config.nch;

    const float s = std::max(_outScale.value[0], 0.05f);

    // STE through the quantizer and scale division. The g_s summation
    // stays serial so the double accumulation order is fixed.
    Tensor g_pre = Tensor::uninitialized(grad_out.shape());
    const float *go = grad_out.data();
    const float *sp = _softPre.data();
    float *gp = g_pre.data();
    double g_s = 0.0;
    for (std::size_t i = 0; i < grad_out.numel(); ++i) {
        const float ratio = sp[i] / s;
        if (ratio >= -1.0f && ratio <= 1.0f) {
            gp[i] = go[i] / s;
            g_s += static_cast<double>(go[i]) * (-sp[i]) / (s * s);
        } else {
            gp[i] = 0.0f;
        }
    }
    _outScale.grad[0] += static_cast<float>(g_s);

    convWeightGradBatch(_softInput.data(), n, c, h, w, k, k, 0, g_pre.data(),
                        nch, _weight.grad.data(), nullptr);

    _softInput = Tensor();
    _softPre = Tensor();
    // The encoder is the first pipeline stage; no upstream gradient.
    return Tensor(_inShape);
}

// ---------------------------------------------------------------------
// Hard / Noisy modality: the analog circuit model of Sec. 3.4 / 5.3.
// ---------------------------------------------------------------------

Tensor
LecaEncoder::forwardHard(const Tensor &x, Mode mode, bool noisy)
{
    LECA_CHECK(x.dim() == 4 && x.size(1) == 3,
               "hard encoder expects [N,3,H,W] input, got ",
               detail::formatShape(x.shape()));
    LECA_CHECK(x.size(2) % 2 == 0 && x.size(3) % 2 == 0,
               "hard encoder needs even spatial extents for the 2x2 Bayer "
               "flattening, got ", x.size(2), "x", x.size(3));
    LECA_CHECK(!noisy || (_hasNoiseModel && _noiseRng),
               "noisy modality needs a noise model and rng installed");
    const int n = x.size(0), h = x.size(2), w = x.size(3);
    const int oh = h / 2, ow = w / 2;
    const int nch = _config.nch;
    const int steps = _circuit.dacSteps();
    const float wscale = _weightScale;
    const double unit = _circuit.unitCapFf();
    const double vcm = _circuit.vCm;
    const int levels = _config.qbits.levels();
    const float fs = std::max(_outScale.value[0], 0.02f);

    const SourceFollower psf(_circuit.psf);
    const SourceFollower fvf(_circuit.fvf);
    const auto &taps = rawTaps();

    const std::size_t elems =
        static_cast<std::size_t>(n) * nch * oh * ow;
    const bool cache = mode == Mode::Train;
    if (cache) {
        _stepVin.assign(elems * 16, 0.0f);
        _stepVprev.assign(elems * 16, 0.0f);
        _stepCap.assign(elems * 16, 0.0f);
        _diff.assign(elems, 0.0f);
        _inShape = x.shape();
    }

    Tensor features({n, nch, oh, ow});
    // One pre-split noise stream per image (forked before the parallel
    // region), so noise draws depend only on the image index and the
    // output is bit-identical at every thread count.
    std::vector<Rng> noise_rngs;
    if (noisy)
        noise_rngs = Rng::split(*_noiseRng, static_cast<std::size_t>(n));
    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (int i = static_cast<int>(n0); i < n1; ++i) {
        Rng *rng = noisy ? &noise_rngs[static_cast<std::size_t>(i)] : nullptr;
        // Element index derived from the loop indices, not a running
        // counter, so images write disjoint cache slices.
        std::size_t e = static_cast<std::size_t>(i) * nch * oh * ow;
        for (int kch = 0; kch < nch; ++kch) {
            for (int by = 0; by < oh; ++by) {
                for (int bx = 0; bx < ow; ++bx, ++e) {
                    double v_plus = vcm, v_minus = vcm;
                    for (int t = 0; t < 16; ++t) {
                        const Tap &tap = taps[static_cast<std::size_t>(t)];
                        const float w_tap =
                            _weight.value.at(kch, tap.channel, tap.py,
                                             tap.px) * tap.factor;
                        int mag = roundToInt(
                            std::abs(w_tap) / wscale * steps);
                        mag = std::clamp(mag, 0, steps);
                        const bool neg = w_tap < 0.0f;
                        const double cap = unit * mag;

                        const double x_val =
                            x.at(i, tap.channel, 2 * by + tap.py,
                                 2 * bx + tap.px);
                        const double vpix =
                            _sensor.digitalToVoltage(x_val);
                        double vin;
                        if (noisy) {
                            vin = rng->gaussian(
                                _noiseModel.psf.meanTransfer(vpix),
                                _noiseModel.psf.sigma(vpix));
                        } else {
                            vin = psf.linearModel(vpix);
                        }

                        double &rail = neg ? v_minus : v_plus;
                        if (cache) {
                            _stepVin[e * 16 + t] =
                                static_cast<float>(vin);
                            _stepVprev[e * 16 + t] =
                                static_cast<float>(rail);
                            _stepCap[e * 16 + t] =
                                static_cast<float>(cap);
                        }
                        if (mag > 0) {
                            double next = ScMultiplier::idealStep(
                                _circuit, rail, vin, cap);
                            if (noisy) {
                                // Fine-grained eps(V_in, code) surface
                                // when extracted; per-code mean
                                // otherwise (Sec. 5.3, item 2).
                                const double eps_mean =
                                    _noiseModel.scm.epsSurface.empty()
                                        ? _noiseModel.scm.epsMean[
                                              static_cast<std::size_t>(
                                                  mag)]
                                        : _noiseModel.scm.epsSurface(
                                              vin, mag);
                                next -= rng->gaussian(
                                    eps_mean,
                                    _noiseModel.scm.epsSigma[
                                        static_cast<std::size_t>(mag)]);
                            }
                            rail = next;
                        }
                    }
                    double p, m;
                    if (noisy) {
                        p = rng->gaussian(
                            _noiseModel.fvf.meanTransfer(v_plus),
                            _noiseModel.fvf.sigma(v_plus));
                        m = rng->gaussian(
                            _noiseModel.fvf.meanTransfer(v_minus),
                            _noiseModel.fvf.sigma(v_minus));
                    } else {
                        p = fvf.linearModel(v_plus);
                        m = fvf.linearModel(v_minus);
                    }
                    double diff = p - m;
                    if (noisy) {
                        diff += rng->gaussian(
                            0.0, _noiseModel.adcOffsetSigma);
                    }
                    const int code = quantizeCode(
                        static_cast<float>(diff), -fs, fs, levels);
                    features.at(i, kch, by, bx) =
                        2.0f * static_cast<float>(code)
                        / static_cast<float>(levels - 1) - 1.0f;
                    if (cache)
                        _diff[e] = static_cast<float>(diff);
                }
            }
        }
    }
    });
    return features;
}

Tensor
LecaEncoder::backwardHard(const Tensor &grad_out)
{
    LECA_CHECK(!_diff.empty(), "hard encoder backward without forward");
    const int n = _inShape[0];
    const int oh = _inShape[2] / 2, ow = _inShape[3] / 2;
    const int nch = _config.nch;
    const int steps = _circuit.dacSteps();
    const float wscale = _weightScale;
    const double unit = _circuit.unitCapFf();
    const double cout = _circuit.cOutFf;
    const double vcm = _circuit.vCm;
    const float fs = std::max(_outScale.value[0], 0.02f);
    const double fvf_gain = _circuit.fvf.gain;
    const auto &taps = rawTaps();

    const std::size_t elems = _diff.size();
    // Per-element gradient contributions, computed in parallel and
    // folded serially below in exactly the order the serial loop used
    // (ascending element, descending tap), so the accumulated weight
    // and scale gradients stay bit-identical at every thread count.
    std::vector<float> tap_grads(elems * 16, 0.0f);
    std::vector<double> fs_grads(elems, 0.0);

    parallelFor(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (int i = static_cast<int>(n0); i < n1; ++i) {
        std::size_t e = static_cast<std::size_t>(i) * nch * oh * ow;
        for (int kch = 0; kch < nch; ++kch) {
            for (int by = 0; by < oh; ++by) {
                for (int bx = 0; bx < ow; ++bx, ++e) {
                    const float g_feat = grad_out.at(i, kch, by, bx);
                    if (g_feat == 0.0f)
                        continue;
                    const double diff = _diff[e];
                    if (diff < -fs || diff > fs)
                        continue; // clipped STE region
                    // feature ~= diff / fs under the STE.
                    const double g_diff = g_feat / fs;
                    fs_grads[e] = g_feat * (-diff / (fs * fs));

                    double g_plus = g_diff * fvf_gain;
                    double g_minus = -g_diff * fvf_gain;

                    // Reverse the 16-step recurrence.
                    for (int t = 15; t >= 0; --t) {
                        const Tap &tap =
                            taps[static_cast<std::size_t>(t)];
                        const float w_rgb = _weight.value.at(
                            kch, tap.channel, tap.py, tap.px);
                        const float w_tap = w_rgb * tap.factor;
                        const bool neg = w_tap < 0.0f;
                        double &g_rail = neg ? g_minus : g_plus;
                        const double cap = _stepCap[e * 16 + t];
                        const double vin = _stepVin[e * 16 + t];
                        const double v_prev = _stepVprev[e * 16 + t];

                        double g_cap;
                        if (cap > 0.0) {
                            const double denom = cout + cap;
                            const double v_after =
                                (cap * (2.0 * vcm - vin)
                                 + cout * v_prev) / denom;
                            g_cap = g_rail
                                    * ((2.0 * vcm - vin) - v_after)
                                    / denom;
                            g_rail = g_rail * cout / denom;
                        } else {
                            // STE through the zero code: gradient of
                            // the limit cap -> 0+ keeps dead taps
                            // trainable.
                            g_cap = g_rail
                                    * ((2.0 * vcm - vin) - v_prev)
                                    / cout;
                        }
                        // cap = unit * round(|w_tap|/wscale * steps);
                        // STE over the rounding.
                        const double dcap_dwtap =
                            (neg ? -1.0 : 1.0) * unit * steps / wscale;
                        const double g_wtap = g_cap * dcap_dwtap;
                        tap_grads[e * 16 + static_cast<std::size_t>(t)] =
                            static_cast<float>(g_wtap * tap.factor);
                    }
                }
            }
        }
    }
    });

    // Serial fold in the serial loop's accumulation order.
    double g_fs_total = 0.0;
    for (std::size_t e = 0; e < elems; ++e) {
        g_fs_total += fs_grads[e];
        const int kch = static_cast<int>(e / (static_cast<std::size_t>(oh)
                                              * ow))
                        % nch;
        for (int t = 15; t >= 0; --t) {
            const float g = tap_grads[e * 16 + static_cast<std::size_t>(t)];
            if (g == 0.0f)
                continue;
            const Tap &tap = taps[static_cast<std::size_t>(t)];
            _weight.grad.at(kch, tap.channel, tap.py, tap.px) += g;
        }
    }
    _outScale.grad[0] += static_cast<float>(g_fs_total);

    _diff.clear();
    _stepVin.clear();
    _stepVprev.clear();
    _stepCap.clear();
    return Tensor(_inShape);
}

} // namespace leca
