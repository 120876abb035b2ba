#include "flops.hh"

#include <chrono>
#include <cstdint>
#include <cstdlib>

#include "core/pipeline.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/pool.hh"
#include "nn/sequential.hh"
#include "tensor/isa.hh"
#include "util/parallel.hh"

namespace servebench {

namespace {

double
numel(const leca::Tensor &t)
{
    return static_cast<double>(t.numel());
}

/** Sum of weight (rank >= 2) and other parameter elements. */
void
countParams(leca::Layer &layer, double &weights, double &weight_elems_4d)
{
    for (leca::Param *p : layer.params()) {
        weights += numel(p->value);
        if (p->value.dim() == 4)
            weight_elems_4d += numel(p->value);
    }
}

} // namespace

PipelineWork
pipelineWork(leca::LecaPipeline &pipeline, int hw, double weight_bytes)
{
    PipelineWork work;
    const int k = pipeline.encoder().config().kernel;
    const double in_px = static_cast<double>(hw) * hw;
    const double feat_px = static_cast<double>(hw / k) * (hw / k);

    // Encoder: one stride-K conv, [Nch, 3, K, K] at the feature grid.
    const leca::Tensor &ew = pipeline.encoder().weight().value;
    const double nch = static_cast<double>(ew.size(0));
    work.encoder.macs = numel(ew) * feat_px;
    work.encoder.bytes =
        numel(ew) * weight_bytes + 4.0 * (3.0 * in_px + nch * feat_px);

    // Decoder: the first 4-D weight is the stride-K transposed conv,
    // applied per feature pixel; every later conv runs at full size.
    bool first = true;
    double dec_weights = 0.0;
    for (leca::Param *p : pipeline.decoder().params()) {
        if (p->value.dim() != 4)
            continue;
        dec_weights += numel(p->value);
        work.decoder.macs += numel(p->value) * (first ? feat_px : in_px);
        const double cout = static_cast<double>(
            first ? p->value.size(1) : p->value.size(0));
        const double cin = static_cast<double>(
            first ? p->value.size(0) : p->value.size(1));
        work.decoder.bytes +=
            4.0 * (cin * (first ? feat_px : in_px) + cout * in_px);
        first = false;
    }
    work.decoder.bytes += dec_weights * weight_bytes;

    // Backbone: walk the top-level layers, tracking the spatial extent.
    leca::Sequential &bb = pipeline.backbone();
    int h = hw, w = hw, channels = 3;
    for (std::size_t i = 0; i < bb.size(); ++i) {
        leca::Layer &layer = bb.at(i);
        double weights = 0.0, weights4d = 0.0;
        countParams(layer, weights, weights4d);
        const double in_elems = static_cast<double>(channels) * h * w;
        if (auto *conv = dynamic_cast<leca::Conv2d *>(&layer)) {
            h = (h + 2 * conv->pad() - conv->kernel()) / conv->stride() + 1;
            w = (w + 2 * conv->pad() - conv->kernel()) / conv->stride() + 1;
            channels = conv->cout();
            work.backbone.macs += weights4d * h * w;
        } else if (auto *block = dynamic_cast<leca::ResidualBlock *>(&layer)) {
            int oh = 0, ow = 0;
            block->outShape(h, w, oh, ow);
            h = oh;
            w = ow;
            channels = block->outChannels();
            // conv1 (strided), conv2 and the projection all produce
            // the block's output grid.
            work.backbone.macs += weights4d * h * w;
        } else if (dynamic_cast<leca::GlobalAvgPool *>(&layer)) {
            h = w = 1;
        } else if (auto *fc = dynamic_cast<leca::Linear *>(&layer)) {
            work.backbone.macs += numel(fc->weight().value);
            channels = fc->weight().value.size(0);
        }
        const double out_elems = static_cast<double>(channels) * h * w;
        work.backbone.bytes +=
            weights * weight_bytes + 4.0 * (in_elems + out_elems);
    }
    return work;
}

double
peakGmacPerSecond(bool int8)
{
    double ghz = 0.0;
    if (const char *env = std::getenv("LECA_PEAK_GHZ"))
        ghz = std::atof(env);
    if (ghz <= 0.0) {
        // One xorshift64 step is six dependent 1-cycle ALU ops.
        constexpr std::int64_t iters = 1 << 25;
        volatile std::uint64_t seed = 88172645463325252ULL;
        std::uint64_t x = seed;
        const auto start = std::chrono::steady_clock::now();
        for (std::int64_t i = 0; i < iters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        const auto stop = std::chrono::steady_clock::now();
        seed = x;
        const double ns =
            std::chrono::duration<double, std::nano>(stop - start).count();
        ghz = 6.0 * static_cast<double>(iters) / ns;
    }
    const leca::KernelSet &ks = leca::activeKernels();
    const double per_cycle =
        int8 ? ks.i8MacsPerCycle : ks.f32FlopsPerCycle / 2.0;
    return ghz * per_cycle * leca::threadCount();
}

} // namespace servebench
