#include "train_workload.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/pipeline.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"
#include "fingerprint.hh"
#include "flops.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "report.hh"
#include "stats.hh"
#include "trace.hh"
#include "util/alloc_guard.hh"

namespace servebench {

using leca::LecaPipeline;
using leca::Tensor;

namespace {

constexpr int kHw = 24;
constexpr int kBatch = 32;
constexpr int kClasses = 8;
constexpr int kStepsPerRound = 16;  //!< one epoch of the dataset
constexpr int kLossTail = 4;        //!< final steps averaged into the loss
constexpr int kSetupReps = 5;
constexpr int kWarmupSteps = 2;
constexpr double kLearningRate = 1e-3;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

/** Dataset, model and the initial state every round restarts from. */
struct TrainContext
{
    leca::Dataset data;
    std::vector<int> order;
    std::unique_ptr<LecaPipeline> pipeline;
    std::vector<Tensor *> tensors;   //!< every param value and BN state
    std::vector<std::vector<float>> initial;
};

std::unique_ptr<TrainContext>
buildContext(std::uint64_t seed)
{
    auto ctx = std::make_unique<TrainContext>();
    leca::SyntheticVision::Config cfg;
    cfg.resolution = kHw;
    cfg.numClasses = kClasses;
    cfg.seed = seed;
    ctx->data = leca::SyntheticVision(cfg).generate(kStepsPerRound * kBatch, 3);
    ctx->order.resize(static_cast<std::size_t>(ctx->data.count()));
    std::iota(ctx->order.begin(), ctx->order.end(), 0);
    leca::Rng shuffle(seed + 7);
    for (int i = ctx->data.count() - 1; i > 0; --i)
        std::swap(ctx->order[static_cast<std::size_t>(i)],
                  ctx->order[static_cast<std::size_t>(
                      shuffle.uniformInt(0, i))]);

    // Fixed model seeds: a frozen, randomly initialised Proxy backbone
    // and the default LeCA encoder/decoder, Soft modality.
    leca::Rng rng(5);
    auto backbone =
        leca::makeBackbone(leca::BackboneStyle::Proxy, 3, kClasses, rng);
    LecaPipeline::Options options;
    options.seed = 9;
    ctx->pipeline =
        std::make_unique<LecaPipeline>(options, std::move(backbone));
    ctx->pipeline->setModality(leca::EncoderModality::Soft);

    for (leca::Param *p : ctx->pipeline->allParams())
        ctx->tensors.push_back(&p->value);
    for (Tensor *t : ctx->pipeline->decoder().state())
        ctx->tensors.push_back(t);
    for (Tensor *t : ctx->pipeline->backbone().state())
        ctx->tensors.push_back(t);
    for (Tensor *t : ctx->tensors)
        ctx->initial.emplace_back(t->data(), t->data() + t->numel());
    return ctx;
}

void
restore(TrainContext &ctx)
{
    for (std::size_t i = 0; i < ctx.tensors.size(); ++i)
        std::copy(ctx.initial[i].begin(), ctx.initial[i].end(),
                  ctx.tensors[i]->data());
}

/** One round: restore, then kStepsPerRound (or @p steps) Adam steps. */
struct Round
{
    std::vector<double> losses;
    std::vector<double> stepMs;
    double wallMs = 0.0;
    std::uint64_t heapAllocs = 0;
    bool traced = false;
};

Round
runRound(TrainContext &ctx, int steps, Recorder &recorder,
         std::uint32_t &step_id)
{
    Round round;
    round.traced = recorder.enabled();
    restore(ctx);
    LecaPipeline &p = *ctx.pipeline;
    leca::Adam adam(p.allParams(), kLearningRate);
    leca::SoftmaxCrossEntropy loss;
    leca::BatchPipeline batches(ctx.data, ctx.order, kBatch, true);
    const std::uint64_t allocs0 = leca::totalHeapAllocs();
    const std::int64_t t0 = nowNanos();
    for (int b = 0; b < steps; ++b) {
        const std::uint32_t id = step_id++;
        const std::int64_t s0 = nowNanos();
        const leca::Dataset *batch = nullptr;
        {
            ScopedSpan span(recorder, SpanKind::BatchWait, id, kBatch);
            batch = &batches.batch(b);
        }
        {
            ScopedSpan span(recorder, SpanKind::Optimizer, id, kBatch);
            adam.zeroGrad();
        }
        {
            ScopedSpan span(recorder, SpanKind::Forward, id, kBatch);
            Tensor features;
            {
                ScopedSpan stage(recorder, SpanKind::Encoder, id, kBatch);
                features = p.encodeFeatures(batch->images, leca::Mode::Train);
            }
            Tensor decoded;
            {
                ScopedSpan stage(recorder, SpanKind::Decoder, id, kBatch);
                decoded = p.decoder().forward(features, leca::Mode::Train);
            }
            Tensor logits;
            {
                ScopedSpan stage(recorder, SpanKind::Backbone, id, kBatch);
                logits = p.backbone().forward(decoded, leca::Mode::Train);
            }
            round.losses.push_back(loss.forward(logits, batch->labels));
        }
        {
            ScopedSpan span(recorder, SpanKind::Backward, id, kBatch);
            p.backward(loss.backward());
        }
        {
            ScopedSpan span(recorder, SpanKind::Optimizer, id, kBatch);
            adam.step();
        }
        const std::int64_t s1 = nowNanos();
        if (recorder.enabled())
            recorder.record(SpanKind::TrainStep, s0, s1, id, kBatch);
        round.stepMs.push_back(static_cast<double>(s1 - s0) / 1e6);
    }
    round.wallMs = static_cast<double>(nowNanos() - t0) / 1e6;
    round.heapAllocs = leca::totalHeapAllocs() - allocs0;
    return round;
}

double
finalLoss(const Round &round)
{
    const auto n = round.losses.size();
    const auto k = std::min<std::size_t>(kLossTail, n);
    double sum = 0.0;
    for (std::size_t i = n - k; i < n; ++i)
        sum += round.losses[i];
    return k ? sum / static_cast<double>(k) : 0.0;
}

std::string
fmt(double v, int precision = 3)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
    return os.str();
}

} // namespace

int
runTrainWorkload(std::uint64_t seed, double seconds, bool trace,
                 const std::string &revision, const std::string &out_dir)
{
    Report report(kTrainWorkload, trace);
    report.setFingerprint(
        fingerprintJson(kTrainWorkload, seed, revision, trace));
    Recorder recorder(trace ? kTraceCapacity : 0);
    std::uint32_t step_id = 0;

    std::vector<double> setup_s;
    std::unique_ptr<TrainContext> ctx;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        ctx.reset();
        const std::int64_t t0 = nowNanos();
        ctx = buildContext(seed);
        (void)runRound(*ctx, kWarmupSteps, recorder, step_id);
        setup_s.push_back(static_cast<double>(nowNanos() - t0) / 1e9);
    }

    report.set("peak_rss_mb", peakRssMb(), "VmHWM when ready to train");

    // Rounds until the time is up (at least two, so the repeat check
    // has something to compare); the traced pass alternates rounds with
    // the recorder off and on.
    std::vector<Round> rounds;
    const std::int64_t end =
        nowNanos() + static_cast<std::int64_t>(seconds * 1e9);
    while (rounds.size() < 2 || nowNanos() < end) {
        recorder.setEnabled(trace && rounds.size() % 2 == 1);
        rounds.push_back(runRound(*ctx, kStepsPerRound, recorder, step_id));
        recorder.setEnabled(false);
    }

    // Check: every round restarts from the same state, so its losses
    // must repeat the first round's bit for bit.
    std::uint64_t attempted = 0, failed = 0;
    const Round &first = rounds.front();
    for (const Round &r : rounds) {
        for (std::size_t i = 0; i < r.losses.size(); ++i) {
            ++attempted;
            if (!std::isfinite(r.losses[i])
                || std::memcmp(&r.losses[i], &first.losses[i],
                               sizeof(double))
                       != 0)
                ++failed;
        }
    }
    const double loss_final = finalLoss(first);
    report.line("rounds: " + std::to_string(rounds.size()) + " x "
                + std::to_string(kStepsPerRound) + " steps of "
                + std::to_string(kBatch) + " images; loss first step "
                + fmt(first.losses.front(), 6) + ", final "
                + fmt(loss_final, 6) + "; " + std::to_string(failed)
                + " steps whose loss differs from round 1");

    std::vector<double> img_s_off, img_s_on, step_ms;
    std::uint64_t allocs = 0, alloc_images = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const Round &r = rounds[i];
        const double img_s = kStepsPerRound * kBatch / (r.wallMs * 1e-3);
        (r.traced ? img_s_on : img_s_off).push_back(img_s);
        if (!r.traced) {
            step_ms.insert(step_ms.end(), r.stepMs.begin(), r.stepMs.end());
            if (i > 0) {
                allocs += r.heapAllocs;
                alloc_images += kStepsPerRound * kBatch;
            }
        }
    }
    std::sort(step_ms.begin(), step_ms.end());
    const double capacity = median(img_s_off);

    report.info("train_img_per_s", capacity, "1/s",
                "median over untraced rounds");
    report.info("train_loss_final", loss_final, "nats",
                "mean loss of the last " + std::to_string(kLossTail)
                    + " steps of a round");

    if (!trace) {
        report.set("setup_s", median(setup_s),
                   "median of " + std::to_string(kSetupReps) + " set-ups");
        report.set("capacity_fps", capacity,
                   "training images/s, median of "
                       + std::to_string(img_s_off.size()) + " rounds");
        const Percentile p50 = percentile(step_ms, 0.5);
        const Percentile tail = tailPercentile(step_ms);
        report.set("lat_p50_ms", p50.value,
                   "step time, p50 of n=" + std::to_string(p50.count));
        report.info("lat_tail_ms", tail.value, "ms",
                   "step time, p" + fmt(tail.percent, 2) + " of n="
                       + std::to_string(tail.count));
    } else {
        const std::vector<SpanRecord> spans = recorder.spans();
        const std::vector<LayerRow> rows = layerTable(spans);
        const PipelineWork work = pipelineWork(*ctx->pipeline, kHw, 4.0);
        const double peak = peakGmacPerSecond(false);
        double steps = 0.0, step_total = 0.0, phases_total = 0.0,
               fwd_bwd_ms = 0.0;
        for (const LayerRow &row : rows)
            if (row.kind == SpanKind::TrainStep) {
                steps = static_cast<double>(row.count);
                step_total = row.totalMs;
            }
        for (const LayerRow &row : rows) {
            const double per_step = steps > 0 ? row.totalMs / steps : 0.0;
            const StageWork *w = nullptr;
            const char *prefix = nullptr;
            switch (row.kind) {
            case SpanKind::BatchWait:
                report.set("train.batch_wait_ms", per_step, "per step");
                phases_total += row.totalMs;
                break;
            case SpanKind::Forward:
                report.set("train.forward_ms", per_step,
                           "forward(Train) + loss, per step");
                phases_total += row.totalMs;
                fwd_bwd_ms += row.totalMs;
                break;
            case SpanKind::Backward:
                report.set("train.backward_ms", per_step, "per step");
                phases_total += row.totalMs;
                fwd_bwd_ms += row.totalMs;
                break;
            case SpanKind::Optimizer:
                report.set("train.optimizer_ms", per_step,
                           "zeroGrad + Adam::step, per step");
                phases_total += row.totalMs;
                break;
            case SpanKind::Encoder:
                w = &work.encoder;
                prefix = "encoder";
                break;
            case SpanKind::Decoder:
                w = &work.decoder;
                prefix = "decoder";
                break;
            case SpanKind::Backbone:
                w = &work.backbone;
                prefix = "backbone";
                break;
            default:
                break;
            }
            if (!w)
                continue;
            const double gmac_s =
                w->macs * row.items / (row.totalMs * 1e-3) / 1e9;
            report.set(std::string(prefix) + ".ms_per_batch",
                       row.totalMs / row.count,
                       "Train-mode forward, batch " + std::to_string(kBatch));
            report.set(std::string(prefix) + ".gmac_s", gmac_s,
                       "computed " + fmt(w->macs / 1e6, 2) + " MMAC/image");
            report.set(std::string(prefix) + ".roofline_pct",
                       100.0 * gmac_s / peak,
                       "of computed fp32 peak " + fmt(peak, 1) + " GMAC/s");
        }
        // Backward counted as twice the forward MACs (input and weight
        // gradients; the frozen backbone still computes both).
        const double images = steps * kBatch;
        report.set("train.gmac_s",
                   fwd_bwd_ms > 0
                       ? 3.0 * work.totalMacs() * images / (fwd_bwd_ms * 1e-3)
                             / 1e9
                       : 0.0,
                   "computed 3 x " + fmt(work.totalMacs() / 1e6, 2)
                       + " MMAC/image over forward + backward");
        report.set("trace.unaccounted_pct",
                   step_total > 0
                       ? 100.0 * (step_total - phases_total) / step_total
                       : 0.0,
                   "step span not covered by its phase spans");
        const double cap_on = median(img_s_on);
        report.set("trace.overhead_pct",
                   capacity > 0 ? 100.0 * (capacity - cap_on) / capacity : 0.0,
                   "images/s untraced " + fmt(capacity, 1) + " vs traced "
                       + fmt(cap_on, 1));
        report.set("trace.spans_dropped",
                   static_cast<double>(recorder.dropped()));
        report.set("alloc.per_frame",
                   alloc_images ? static_cast<double>(allocs) / alloc_images
                                : 0.0,
                   "heap allocations per trained image, untraced rounds");

        const std::string base = out_dir + "/" + kTrainWorkload;
        if (!writeChromeTrace(base + ".trace.json", spans, kChromeTraceSpans))
            report.line("could not write " + base + ".trace.json");
        const std::string table = formatLayerTable(
            rows, std::string("per-layer table, ") + kTrainWorkload
                      + ", seed " + std::to_string(seed));
        report.line(table);
        if (!writeText(base + ".layers.txt", table))
            report.line("could not write " + base + ".layers.txt");
    }

    return report.finish(failed == 0, attempted, failed,
                         out_dir + "/" + kTrainWorkload
                             + (trace ? ".traced.report.txt"
                                      : ".report.txt"));
}

} // namespace servebench
