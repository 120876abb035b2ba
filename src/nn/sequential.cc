#include "sequential.hh"

#include <cmath>

#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/pool.hh"
#include "tensor/isa.hh"
#include "tensor/quant.hh"
#include "util/arena.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

namespace {

/** Whether a quantized conv is wide enough on both sides to run on
 *  resident int8 codes (see kResidentMinCin). */
bool
residentShape(const Conv2d &conv)
{
    return conv.cin() >= kResidentMinCin
           && conv.cout() >= simd::kPackedQ8Cols;
}

/**
 * The conv epilogue affine of ConvResident and ConvFp32 steps: a
 * trailing BatchNorm's eval affine with the conv bias folded in
 * (a·(x+bias)+b = a·x + fmaf(a, bias, b)), or a = 1, b = bias for a
 * bias alone (fmaf(1, x, bias) == x + bias exactly). Recomputed from
 * the live BN buffers each forward (cout floats — negligible), so a
 * load() after planning can never serve stale statistics. Both null
 * when there is nothing to fold.
 */
void
foldConvAffine(Conv2d &conv, const BatchNorm2d *bn, Arena &arena,
               float *&ea, float *&eb)
{
    ea = eb = nullptr;
    if (bn == nullptr && !conv.hasBias())
        return;
    const int cout = conv.cout();
    ea = arena.alloc(static_cast<std::size_t>(cout));
    eb = arena.alloc(static_cast<std::size_t>(cout));
    const float *bias = conv.hasBias() ? conv.bias().value.data() : nullptr;
    if (bn != nullptr) {
        bn->evalAffineInto(ea, eb);
        if (bias != nullptr)
            for (int ch = 0; ch < cout; ++ch)
                eb[ch] = std::fmaf(ea[ch], bias[ch], eb[ch]);
    } else {
        for (int ch = 0; ch < cout; ++ch) {
            ea[ch] = 1.0f;
            eb[ch] = bias[ch];
        }
    }
}

} // namespace

Sequential &
Sequential::add(LayerPtr layer)
{
    LECA_CHECK(layer != nullptr, "Sequential::add given a null layer");
    _layers.push_back(std::move(layer));
    return *this;
}

BatchNorm2d *
Sequential::bnBeforeRelu(std::size_t i) const
{
    if (i + 1 >= _layers.size()
        || dynamic_cast<Relu *>(_layers[i + 1].get()) == nullptr)
        return nullptr;
    return dynamic_cast<BatchNorm2d *>(_layers[i].get());
}

Tensor
Sequential::forward(const Tensor &x, Mode mode)
{
    if (mode == Mode::Eval && !_plan.empty() && x.dim() == 4)
        return forwardPlanned(x);
    if (_layers.empty())
        return x;
    // The first child reads x itself; each later one its predecessor's
    // output.
    Tensor cur;
    const Tensor *in = &x;
    for (std::size_t i = 0; i < _layers.size(); ++i) {
        BatchNorm2d *bn = mode == Mode::Train ? bnBeforeRelu(i) : nullptr;
        if (bn != nullptr)
            cur = bn->forwardRelu(*in,
                                  static_cast<Relu &>(*_layers[++i]));
        else
            cur = _layers[i]->forward(*in, mode);
        in = &cur;
    }
    return cur;
}

Tensor
Sequential::backward(const Tensor &grad_out)
{
    if (_layers.empty())
        return grad_out;
    Tensor cur;
    const Tensor *g = &grad_out;
    for (std::size_t i = _layers.size(); i-- > 0;) {
        // A BatchNorm2d→Relu pair only runs backward after a Train
        // forward, which folded it.
        BatchNorm2d *bn = i > 0 ? bnBeforeRelu(i - 1) : nullptr;
        if (bn != nullptr)
            cur = bn->backwardRelu(*g, static_cast<Relu &>(*_layers[i--]));
        else
            cur = _layers[i]->backward(*g);
        g = &cur;
    }
    return cur;
}

std::vector<Param *>
Sequential::params()
{
    std::vector<Param *> out;
    for (auto &layer : _layers) {
        auto child = layer->params();
        out.insert(out.end(), child.begin(), child.end());
    }
    return out;
}

std::vector<Tensor *>
Sequential::state()
{
    std::vector<Tensor *> out;
    for (auto &layer : _layers) {
        auto child = layer->state();
        out.insert(out.end(), child.begin(), child.end());
    }
    return out;
}

void
Sequential::setStatsRefresh(bool enable)
{
    for (auto &layer : _layers)
        layer->setStatsRefresh(enable);
}

// leca-analyze: cold — one-shot weight conversion (setup)
void
Sequential::quantizeWeights(std::vector<QuantStat> &stats)
{
    for (auto &layer : _layers)
        layer->quantizeWeights(stats);
    // Boundaries are decided here, once — never per forward.
    planQuantized();
}

// leca-analyze: cold — quantized execution planning (quantize/load time)
void
Sequential::planQuantized()
{
    _plan.clear();
    std::vector<QuantStep> steps;
    for (std::size_t i = 0; i < _layers.size();) {
        Layer *l = _layers[i].get();
        if (auto *conv = dynamic_cast<Conv2d *>(l);
            conv != nullptr && conv->quantized() && residentShape(*conv)) {
            QuantStep st;
            st.kind = QuantStep::Kind::ConvResident;
            st.layer = l;
            st.conv = conv;
            std::size_t j = i + 1;
            if (j < _layers.size())
                if (auto *bn =
                        dynamic_cast<BatchNorm2d *>(_layers[j].get())) {
                    st.bn = bn;
                    ++j;
                }
            if (j < _layers.size()
                && dynamic_cast<Relu *>(_layers[j].get()) != nullptr) {
                st.relu = true;
                ++j;
            }
            conv->prepareResident();
            steps.push_back(st);
            i = j;
            continue;
        }
        if (auto *rb = dynamic_cast<ResidualBlock *>(l);
            rb != nullptr && rb->planResident()) {
            QuantStep st;
            st.kind = QuantStep::Kind::Residual;
            st.layer = l;
            steps.push_back(st);
            ++i;
            continue;
        }
        QuantStep st;
        st.layer = l;
        if (auto *conv = dynamic_cast<Conv2d *>(l);
            conv != nullptr && conv->quantized())
            // Narrow conv (see kResidentMinCin): int8 block padding or
            // a part-empty weight tile would waste most of its int8
            // work, so it runs in fp32 over weights dequantized from
            // the codes.
            conv->preparePlainFp32();
        else if (auto *fc = dynamic_cast<Linear *>(l);
                 fc != nullptr && fc->quantized())
            fc->preparePacked();
        if (auto *mp = dynamic_cast<MaxPool2d *>(l)) {
            st.kind = QuantStep::Kind::PoolMax;
            st.poolK = mp->kernel();
        } else if (auto *ap = dynamic_cast<AvgPool2d *>(l)) {
            st.kind = QuantStep::Kind::PoolAvg;
            st.poolK = ap->kernel();
        } else if (dynamic_cast<GlobalAvgPool *>(l) != nullptr) {
            st.kind = QuantStep::Kind::Gap;
        }
        steps.push_back(st);
        ++i;
    }
    // Fuse fp32 -> resident entry boundaries: a Plain BatchNorm and/or
    // ReLU standing immediately before a resident conv/residual step
    // folds into that step's entry quantization (quantizeActivation-
    // Nchw's epilogue overload) — one pass over the planes instead of
    // a BN pass, a ReLU pass, and a separate quantize.
    std::vector<QuantStep> merged;
    merged.reserve(steps.size());
    for (std::size_t s = 0; s < steps.size();) {
        std::size_t j = s;
        BatchNorm2d *bn = nullptr;
        if (steps[j].kind == QuantStep::Kind::Plain
            && (bn = dynamic_cast<BatchNorm2d *>(steps[j].layer)) != nullptr)
            ++j;
        bool relu = false;
        if (j < steps.size() && steps[j].kind == QuantStep::Kind::Plain
            && dynamic_cast<Relu *>(steps[j].layer) != nullptr) {
            relu = true;
            ++j;
        }
        if (j > s && j < steps.size()
            && (steps[j].kind == QuantStep::Kind::ConvResident
                || steps[j].kind == QuantStep::Kind::Residual)) {
            QuantStep st;
            st.kind = QuantStep::Kind::FusedEntry;
            st.bn = bn;
            st.relu = relu;
            merged.push_back(st);
            s = j;
            continue;
        }
        merged.push_back(steps[s]);
        ++s;
    }
    steps = std::move(merged);
    // Fold the BatchNorm and/or ReLU behind a Plain quantized conv into
    // its epilogue (ConvFp32) — only where that folds something. Those
    // feeding a resident consumer were taken by FusedEntry above, so no
    // ConvFp32 step feeds codes to anything.
    merged.clear();
    for (std::size_t s = 0; s < steps.size();) {
        auto *conv = dynamic_cast<Conv2d *>(steps[s].layer);
        if (steps[s].kind == QuantStep::Kind::Plain && conv != nullptr
            && conv->quantized()) {
            QuantStep st;
            st.kind = QuantStep::Kind::ConvFp32;
            st.layer = conv;
            st.conv = conv;
            std::size_t j = s + 1;
            if (j < steps.size() && steps[j].kind == QuantStep::Kind::Plain)
                if (auto *bn = dynamic_cast<BatchNorm2d *>(steps[j].layer)) {
                    st.bn = bn;
                    ++j;
                }
            if (j < steps.size() && steps[j].kind == QuantStep::Kind::Plain
                && dynamic_cast<Relu *>(steps[j].layer) != nullptr) {
                st.relu = true;
                ++j;
            }
            if (j > s + 1) {
                merged.push_back(st);
                s = j;
                continue;
            }
        }
        merged.push_back(steps[s]);
        ++s;
    }
    steps = std::move(merged);
    // A step keeps its output resident exactly when the next step can
    // consume codes; everything else exits fp32 (precision boundary).
    // FusedEntry consumes fp32 (it IS the boundary) but emits codes.
    const auto consumesQuant = [](QuantStep::Kind k) {
        return k == QuantStep::Kind::ConvResident
               || k == QuantStep::Kind::Residual
               || k == QuantStep::Kind::PoolMax
               || k == QuantStep::Kind::PoolAvg
               || k == QuantStep::Kind::Gap;
    };
    bool any_planned = false;
    for (std::size_t s = 0; s < steps.size(); ++s) {
        const QuantStep::Kind k = steps[s].kind;
        const bool can_emit = k == QuantStep::Kind::ConvResident
                              || k == QuantStep::Kind::Residual
                              || k == QuantStep::Kind::FusedEntry;
        steps[s].emitQuant = can_emit && s + 1 < steps.size()
                             && consumesQuant(steps[s + 1].kind);
        any_planned = any_planned || can_emit
                      || k == QuantStep::Kind::ConvFp32;
    }
    // Pools only pool over codes when a resident producer feeds them;
    // otherwise they run their plain fp32 forward.
    for (std::size_t s = 0; s < steps.size(); ++s) {
        const QuantStep::Kind k = steps[s].kind;
        const bool pool = k == QuantStep::Kind::PoolMax
                          || k == QuantStep::Kind::PoolAvg
                          || k == QuantStep::Kind::Gap;
        if (pool && !(s > 0 && steps[s - 1].emitQuant))
            steps[s].kind = QuantStep::Kind::Plain;
    }
    if (any_planned)
        _plan = std::move(steps);
}

Tensor
Sequential::forwardPlanned(const Tensor &x)
{
    Arena::Scope scope;
    Arena &arena = Arena::local();
    // The current fp32 activation: x itself until a step replaces it.
    Tensor cur;
    const Tensor *in = &x;
    const auto setCur = [&](Tensor t) {
        cur = std::move(t);
        in = &cur;
    };
    QuantActivation qa;
    bool resident = false;

    // Entry quantization for a resident step fed by an fp32 producer;
    // a FusedEntry step passes its folded BN/ReLU epilogue through.
    const auto toResident = [&](const Tensor &t,
                                const ResidentEpilogue &epi) {
        QuantActivation act;
        act.n = t.size(0);
        act.c = t.size(1);
        act.h = t.size(2);
        act.w = t.size(3);
        const std::int64_t rows = act.rows();
        act.q = static_cast<std::int8_t *>(arena.allocBytes(
            static_cast<std::size_t>(rows * quantPadded(act.c))));
        act.scales =
            arena.alloc(static_cast<std::size_t>(rows * act.nbc()));
        quantizeActivationNchw(t.data(), act.n, act.c, act.h, act.w, epi,
                               act.q, act.scales);
        return act;
    };
    const auto allocOut = [&](int n, int c, int h, int w) {
        QuantActivation act;
        act.n = n;
        act.c = c;
        act.h = h;
        act.w = w;
        const std::int64_t rows = act.rows();
        act.q = static_cast<std::int8_t *>(arena.allocBytes(
            static_cast<std::size_t>(rows * quantPadded(c))));
        act.scales =
            arena.alloc(static_cast<std::size_t>(rows * act.nbc()));
        return act;
    };

    for (const QuantStep &st : _plan) {
        switch (st.kind) {
          case QuantStep::Kind::Plain: {
            if (resident) {
                // Defensive boundary; the planner never produces this.
                Tensor t({qa.n, qa.c, qa.h, qa.w});
                // leca-lint: precision-boundary
                dequantizeActivationNchw(qa, t.data());
                setCur(std::move(t));
                resident = false;
            }
            setCur(st.layer->forward(*in, Mode::Eval));
            break;
          }
          case QuantStep::Kind::ConvResident: {
            const QuantActivation src =
                resident ? qa : toResident(*in, ResidentEpilogue{});
            Conv2d &conv = *st.conv;
            const int k = conv.kernel(), s = conv.stride(), p = conv.pad();
            const int oh = (src.h + 2 * p - k) / s + 1;
            const int ow = (src.w + 2 * p - k) / s + 1;
            const int cout = conv.cout();
            float *ea = nullptr, *eb = nullptr;
            foldConvAffine(conv, st.bn, arena, ea, eb);
            const ResidentEpilogue epi{ea, eb, st.relu};
            if (st.emitQuant) {
                QuantActivation out = allocOut(src.n, cout, oh, ow);
                convForwardResident(src, k, k, s, p, conv.qweightHwc(), epi,
                                    out.q, out.scales, nullptr, nullptr);
                qa = out;
                resident = true;
            } else {
                Tensor out({src.n, cout, oh, ow});
                convForwardResident(src, k, k, s, p, conv.qweightHwc(), epi,
                                    nullptr, nullptr, nullptr, out.data());
                setCur(std::move(out));
                resident = false;
            }
            break;
          }
          case QuantStep::Kind::ConvFp32: {
            LECA_CHECK(!resident, "ConvFp32 must be fed by an fp32 producer");
            float *ea = nullptr, *eb = nullptr;
            foldConvAffine(*st.conv, st.bn, arena, ea, eb);
            setCur(st.conv->forwardFused(*in, ConvEpilogue{ea, eb, st.relu}));
            break;
          }
          case QuantStep::Kind::FusedEntry: {
            LECA_CHECK(!resident,
                       "FusedEntry must be fed by an fp32 producer");
            LECA_CHECK(in->dim() == 4
                           && (st.bn == nullptr
                               || in->size(1) == st.bn->channels()),
                       "FusedEntry input does not match the folded BN");
            float *ea = nullptr, *eb = nullptr;
            if (st.bn != nullptr) {
                // Like the conv epilogue: recomputed from the live BN
                // buffers each forward, so load() never serves stale
                // statistics.
                const int c = in->size(1);
                ea = arena.alloc(static_cast<std::size_t>(c));
                eb = arena.alloc(static_cast<std::size_t>(c));
                st.bn->evalAffineInto(ea, eb);
            }
            qa = toResident(*in, ResidentEpilogue{ea, eb, st.relu});
            resident = true;
            break;
          }
          case QuantStep::Kind::Residual: {
            const QuantActivation src =
                resident ? qa : toResident(*in, ResidentEpilogue{});
            auto &block = static_cast<ResidualBlock &>(*st.layer);
            int oh = 0, ow = 0;
            block.outShape(src.h, src.w, oh, ow);
            const int cout = block.outChannels();
            if (st.emitQuant) {
                QuantActivation out = allocOut(src.n, cout, oh, ow);
                block.forwardResident(src, out.q, out.scales, nullptr);
                qa = out;
                resident = true;
            } else {
                Tensor out({src.n, cout, oh, ow});
                block.forwardResident(src, nullptr, nullptr, out.data());
                setCur(std::move(out));
                resident = false;
            }
            break;
          }
          case QuantStep::Kind::PoolMax: {
            Tensor out({qa.n, qa.c, qa.h / st.poolK, qa.w / st.poolK});
            maxPoolResident(qa, st.poolK, out.data());
            setCur(std::move(out));
            resident = false;
            break;
          }
          case QuantStep::Kind::PoolAvg: {
            Tensor out({qa.n, qa.c, qa.h / st.poolK, qa.w / st.poolK});
            avgPoolResident(qa, st.poolK, out.data());
            setCur(std::move(out));
            resident = false;
            break;
          }
          case QuantStep::Kind::Gap: {
            Tensor out({qa.n, qa.c});
            globalAvgPoolResident(qa, out.data());
            setCur(std::move(out));
            resident = false;
            break;
          }
        }
    }
    if (resident) {
        // The plan's last resident step always exits fp32, but guard
        // anyway so a hand-built plan cannot return dangling views.
        Tensor t({qa.n, qa.c, qa.h, qa.w});
        // leca-lint: precision-boundary
        dequantizeActivationNchw(qa, t.data());
        setCur(std::move(t));
    }
    if (in == &x)
        return x;
    return cur;
}

// leca-analyze: cold — quantized-tensor enumeration (checkpoint setup)
std::vector<QuantTensor *>
Sequential::quantTensors()
{
    std::vector<QuantTensor *> out;
    for (auto &layer : _layers) {
        auto child = layer->quantTensors();
        out.insert(out.end(), child.begin(), child.end());
    }
    return out;
}

ResidualBlock::ResidualBlock(int cin, int cout, int stride, Rng &rng)
    : _hasProj(stride != 1 || cin != cout)
{
    _conv1 = &_main.emplace<Conv2d>(cin, cout, 3, stride, 1, false, rng);
    _bn1 = &_main.emplace<BatchNorm2d>(cout);
    _main.emplace<Relu>();
    _conv2 = &_main.emplace<Conv2d>(cout, cout, 3, 1, 1, false, rng);
    _bn2 = &_main.emplace<BatchNorm2d>(cout);
    if (_hasProj) {
        _projConv = &_proj.emplace<Conv2d>(cin, cout, 1, stride, 0, false,
                                           rng);
        _projBn = &_proj.emplace<BatchNorm2d>(cout);
    }
}

// leca-analyze: cold — resident eligibility + weight re-layout (plan time)
bool
ResidualBlock::planResident()
{
    // The child plans run the non-resident forward (and are the only
    // planner on the loadQuantized path); planning them also prepares
    // every quantized conv's execution form — the packed HWC layout for
    // wide convs, the fp32 copy for narrow ones.
    _main.planQuantized();
    _proj.planQuantized();
    _resident = _conv1->quantized() && _conv2->quantized()
                && (!_hasProj || _projConv->quantized())
                && residentShape(*_conv1) && residentShape(*_conv2);
    return _resident;
}

int
ResidualBlock::outChannels() const
{
    return _conv1->cout();
}

void
ResidualBlock::outShape(int h, int w, int &oh, int &ow) const
{
    const int k = _conv1->kernel(), s = _conv1->stride(),
              p = _conv1->pad();
    oh = (h + 2 * p - k) / s + 1;
    ow = (w + 2 * p - k) / s + 1;
}

void
ResidualBlock::forwardResident(const QuantActivation &in, std::int8_t *out_q,
                               float *out_s, float *out_planes)
{
    LECA_CHECK(_resident,
               "ResidualBlock::forwardResident before planResident");
    LECA_CHECK((out_q != nullptr) != (out_planes != nullptr),
               "ResidualBlock::forwardResident needs exactly one exit");
    Arena::Scope scope;
    Arena &arena = Arena::local();
    const int k = _conv1->kernel();
    const int stride = _conv1->stride();
    int oh = 0, ow = 0;
    outShape(in.h, in.w, oh, ow);
    const int cout = _conv1->cout();
    const std::int64_t rows = static_cast<std::int64_t>(in.n) * oh * ow;
    const std::int64_t cpad = quantPadded(cout);
    const std::int64_t nbc = quantBlocks(cout);

    float *a1 = arena.alloc(static_cast<std::size_t>(cout));
    float *b1 = arena.alloc(static_cast<std::size_t>(cout));
    float *a2 = arena.alloc(static_cast<std::size_t>(cout));
    float *b2 = arena.alloc(static_cast<std::size_t>(cout));
    _bn1->evalAffineInto(a1, b1);
    _bn2->evalAffineInto(a2, b2);

    // conv1 (+bn1+relu) -> resident intermediate, quantized once.
    QuantActivation m1;
    m1.n = in.n;
    m1.c = cout;
    m1.h = oh;
    m1.w = ow;
    m1.q = static_cast<std::int8_t *>(
        arena.allocBytes(static_cast<std::size_t>(rows * cpad)));
    m1.scales = arena.alloc(static_cast<std::size_t>(rows * nbc));
    convForwardResident(in, k, k, stride, _conv1->pad(),
                        _conv1->qweightHwc(), {a1, b1, true}, m1.q,
                        m1.scales, nullptr, nullptr);

    // conv2 (+bn2, no relu) -> fp32 pixel-major rows.
    float *f2 = arena.alloc(static_cast<std::size_t>(rows * cout));
    convForwardResident(m1, k, k, 1, _conv2->pad(), _conv2->qweightHwc(),
                        {a2, b2, false}, nullptr, nullptr, f2, nullptr);

    // Skip path: 1x1 projection (+bn) rows, or the exact value of the
    // identity input rows (dequantized per pixel below).
    float *skip = nullptr;
    if (_hasProj) {
        float *ap = arena.alloc(static_cast<std::size_t>(cout));
        float *bp = arena.alloc(static_cast<std::size_t>(cout));
        _projBn->evalAffineInto(ap, bp);
        skip = arena.alloc(static_cast<std::size_t>(rows * cout));
        convForwardResident(in, 1, 1, stride, 0, _projConv->qweightHwc(),
                            {ap, bp, false}, nullptr, nullptr, skip,
                            nullptr);
    }

    const simd::DequantizeRowFn dequant = activeKernels().dequantizeRow;
    const simd::QuantizeRowFn quantize_row = activeKernels().quantizeRow;
    const std::int64_t in_nbc = in.nbc();
    const std::int64_t in_cpad = quantPadded(in.c);
    const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
    const std::int64_t grain = std::max<std::int64_t>(
        16, (1 << 13) / std::max(1, cout));
    const bool has_proj = _hasProj;
    const int in_c = in.c;
    parallelFor(0, rows, grain, [&](std::int64_t p0, std::int64_t p1) {
        Arena::Scope worker;
        float *rowbuf =
            has_proj ? nullptr
                     : Arena::local().alloc(static_cast<std::size_t>(in_c));
        for (std::int64_t p = p0; p < p1; ++p) {
            float *f = f2 + p * cout;
            if (has_proj) {
                const float *sk = skip + p * cout;
                for (int ch = 0; ch < cout; ++ch) {
                    const float v = f[ch] + sk[ch];
                    f[ch] = v > 0.0f ? v : 0.0f;
                }
            } else {
                // Identity skip (stride 1, cin == cout): the exact fp32
                // value of the resident input row.
                // leca-lint: precision-boundary
                dequant(in.q + p * in_cpad, in.scales + p * in_nbc, in_c,
                        rowbuf);
                for (int ch = 0; ch < cout; ++ch) {
                    const float v = f[ch] + rowbuf[ch];
                    f[ch] = v > 0.0f ? v : 0.0f;
                }
            }
            if (out_q != nullptr) {
                quantize_row(f, cout, out_q + p * nbc * kQuantBlock,
                             out_s + p * nbc);
            } else {
                const std::int64_t img = p / ohow;
                const std::int64_t rem = p - img * ohow;
                float *base = out_planes + img * cout * ohow + rem;
                for (int co = 0; co < cout; ++co)
                    base[static_cast<std::int64_t>(co) * ohow] = f[co];
            }
        }
    });
}

Tensor
ResidualBlock::forward(const Tensor &x, Mode mode)
{
    Tensor main = _main.forward(x, mode);
    // The identity skip adds x itself; skip add and final ReLU are one
    // in-place pass over main.
    if (_hasProj)
        _finalRelu.forwardAdd(main, _proj.forward(x, mode), mode);
    else
        _finalRelu.forwardAdd(main, x, mode);
    return main;
}

Tensor
ResidualBlock::backward(const Tensor &grad_out)
{
    const Tensor d_sum = _finalRelu.backward(grad_out);
    Tensor dx = _main.backward(d_sum);
    if (_hasProj) {
        dx += _proj.backward(d_sum);
    } else {
        dx += d_sum;
    }
    return dx;
}

// leca-analyze: cold — parameter enumeration (setup)
std::vector<Param *>
ResidualBlock::params()
{
    std::vector<Param *> out = _main.params();
    auto proj = _proj.params();
    out.insert(out.end(), proj.begin(), proj.end());
    return out;
}

// leca-analyze: cold — state enumeration (setup)
std::vector<Tensor *>
ResidualBlock::state()
{
    std::vector<Tensor *> out = _main.state();
    auto proj = _proj.state();
    out.insert(out.end(), proj.begin(), proj.end());
    return out;
}

void
ResidualBlock::setStatsRefresh(bool enable)
{
    _main.setStatsRefresh(enable);
    _proj.setStatsRefresh(enable);
}

// leca-analyze: cold — one-shot weight conversion (setup)
void
ResidualBlock::quantizeWeights(std::vector<QuantStat> &stats)
{
    _main.quantizeWeights(stats);
    _proj.quantizeWeights(stats);
}

// leca-analyze: cold — quantized-tensor enumeration (checkpoint setup)
std::vector<QuantTensor *>
ResidualBlock::quantTensors()
{
    std::vector<QuantTensor *> out = _main.quantTensors();
    auto proj = _proj.quantTensors();
    out.insert(out.end(), proj.begin(), proj.end());
    return out;
}

} // namespace leca
