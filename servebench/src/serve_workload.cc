#include "serve_workload.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>

#include "bitstream/codec.hh"
#include "core/pipeline.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "fingerprint.hh"
#include "flops.hh"
#include "nn/quantize.hh"
#include "report.hh"
#include "stats.hh"
#include "util/alloc_guard.hh"

namespace servebench {

using leca::LecaPipeline;
using leca::Rng;
using leca::Tensor;
using leca::serve::FrameResult;
using leca::serve::Server;
using leca::serve::ServeStatus;

namespace {

constexpr int kClasses = 4;
constexpr int kSetupReps = 5;
constexpr int kRingDepth = 16;
constexpr int kWarmupFrames = 32;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;

/** Share of --seconds each timed phase gets: the nominal ladder step
 *  (latency), each other step, the closed loop (capacity). */
constexpr double kNominalShare = 0.40;
/**
 * The nominal step runs as this many segments, each with its own seeded
 * camera phases and drifts: how the cameras happen to line up shifts the
 * batching pattern and so the latency median, and pooling several draws
 * keeps one draw from setting a run's figure.
 */
constexpr int kNominalSegments = 4;
constexpr double kStepShare = 0.125;
constexpr double kClosedShare = 0.35;

const ServeSpec kSpecs[] = {
    // Int8 resident serving of the Full backbone on 48x48 frames:
    // kernels dominate; cameras at 30 fps.
    {"serve_int8_full48", 48, true, true, 8, 2000, 30.0, {2, 4, 6}, 0,
     66.0, 16, 32, 2000.0},
    // Tiny fp32 frames: queue handoffs, staging, coalescing and ticket
    // completion dominate; sensors at 100 fps.
    {"serve_tiny_fp32", 4, false, false, 8, 500, 100.0, {20, 40, 60}, 0,
     5.0, 16, 256, 30000.0},
};

/** The serve pipelines of bench/serve_load, with the same fixed seeds:
 *  the model is the program under test; only its inputs vary with
 *  --seed. */
std::unique_ptr<LecaPipeline>
makePipeline(const ServeSpec &spec)
{
    leca::LecaConfig cfg;
    cfg.qbits = leca::QBits(3.0);
    Rng rng(3);
    std::unique_ptr<leca::Sequential> backbone;
    if (spec.hw >= 16) {
        cfg.nch = 8;
        cfg.decoderDncnnLayers = 3;
        cfg.decoderFilters = 64;
        backbone = leca::makeBackbone(leca::BackboneStyle::Full, 3, kClasses,
                                      rng);
    } else {
        cfg.nch = 4;
        cfg.decoderDncnnLayers = 1;
        cfg.decoderFilters = 8;
        backbone = leca::makeBackbone(leca::BackboneStyle::Proxy, 3,
                                      kClasses, rng);
    }
    LecaPipeline::Options options;
    options.leca = cfg;
    options.seed = 21;
    return std::make_unique<LecaPipeline>(options, std::move(backbone));
}

/** Seeded frames: SyntheticVision images where the extent allows it,
 *  uniform pixels for the 4x4 sensors. */
std::vector<Tensor>
makeFrames(const ServeSpec &spec, std::uint64_t seed)
{
    std::vector<Tensor> frames;
    const std::size_t elems = 3u * spec.hw * spec.hw;
    if (spec.hw >= 8) {
        leca::SyntheticVision::Config cfg;
        cfg.resolution = spec.hw;
        cfg.seed = seed;
        const leca::Dataset ds =
            leca::SyntheticVision(cfg).generate(spec.poolSize, 17);
        for (int i = 0; i < spec.poolSize; ++i) {
            const float *src = ds.images.data() + i * elems;
            frames.push_back(Tensor::fromData(
                {3, spec.hw, spec.hw}, std::vector<float>(src, src + elems)));
        }
    } else {
        Rng rng(seed * 0x9E3779B97F4A7C15ULL + 5);
        for (int i = 0; i < spec.poolSize; ++i) {
            std::vector<float> px(elems);
            for (float &v : px)
                v = static_cast<float>(rng.uniform());
            frames.push_back(
                Tensor::fromData({3, spec.hw, spec.hw}, std::move(px)));
        }
    }
    return frames;
}

/** Batched backend handed to the Server: exactly LecaPipeline::forward
 *  in evaluation mode, split into its three stage calls so the traced
 *  pass can time each one. */
Server::Backend
stagedBackend(LecaPipeline &pipeline, Recorder &recorder,
              std::atomic<std::uint32_t> &batch_ids)
{
    return [&pipeline, &recorder, &batch_ids](const Tensor &batch) {
        const std::uint32_t id =
            recorder.enabled() ? batch_ids.fetch_add(1) : 0;
        const auto n = static_cast<std::uint32_t>(batch.size(0));
        ScopedSpan whole(recorder, SpanKind::Backend, id, n);
        Tensor features;
        {
            ScopedSpan span(recorder, SpanKind::Encoder, id, n);
            features = pipeline.encodeFeatures(batch, leca::Mode::Eval);
        }
        Tensor decoded;
        {
            ScopedSpan span(recorder, SpanKind::Decoder, id, n);
            decoded = pipeline.decoder().forward(features, leca::Mode::Eval);
        }
        ScopedSpan span(recorder, SpanKind::Backbone, id, n);
        return pipeline.backbone().forward(decoded, leca::Mode::Eval);
    };
}

/** pipelineWireEncoder, timed per frame under the next batch's id (the
 *  dispatcher encodes a batch's frames just before its forward). */
Server::WireEncoder
tracedWireEncoder(LecaPipeline &pipeline, Recorder &recorder,
                  std::atomic<std::uint32_t> &batch_ids)
{
    Server::WireEncoder encode = leca::serve::pipelineWireEncoder(pipeline);
    return [encode, &recorder, &batch_ids](const Tensor &frame,
                                           std::vector<std::uint8_t> &out) {
        ScopedSpan span(recorder, SpanKind::WireEncode, batch_ids.load(), 1);
        encode(frame, out);
    };
}

/** The encoder's integer feature codes for one frame: what its wire
 *  payload must decode to. */
std::vector<std::uint8_t>
referenceCodes(LecaPipeline &pipeline, const Tensor &frame)
{
    const Tensor batch = Tensor::borrow(
        {1, frame.size(0), frame.size(1), frame.size(2)}, frame.data());
    const Tensor features = pipeline.encodeFeatures(batch, leca::Mode::Eval);
    const int levels = pipeline.encoder().qbits().levels();
    std::vector<std::uint8_t> codes(features.numel());
    for (std::size_t i = 0; i < codes.size(); ++i)
        codes[i] = static_cast<std::uint8_t>(
            leca::quantizeCode(features.data()[i], -1.0f, 1.0f, levels));
    return codes;
}

int
argmax(const std::vector<float> &v)
{
    return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

/** Sleep until @p t (steady clock ns), spinning the last 50 µs. */
void
waitUntil(std::int64_t t)
{
    for (;;) {
        const std::int64_t now = nowNanos();
        if (now >= t)
            return;
        if (t - now > 200'000)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(t - now - 50'000));
    }
}

/** Everything one set-up builds; member order is destruction order. */
struct ServeContext
{
    std::unique_ptr<LecaPipeline> pipeline;
    FramePool pool;
    std::atomic<std::uint32_t> batchIds{0};
    std::unique_ptr<Server> server;
    std::unique_ptr<ServeHarness> harness;
    PhaseResult warmup;
};

/** Share of pool frames whose served argmax equals that of an
 *  un-quantized twin built from the same seeds. */
double
top1AgreeFp32(const ServeSpec &spec, const FramePool &pool)
{
    auto twin = makePipeline(spec);
    int agree = 0;
    for (std::size_t i = 0; i < pool.frames.size(); ++i) {
        const Tensor one =
            Tensor::borrow({1, 3, spec.hw, spec.hw}, pool.frames[i].data());
        const Tensor logits = twin->forward(one, leca::Mode::Eval);
        agree += argmax({logits.data(), logits.data() + logits.numel()})
                 == argmax(pool.logits[i]);
    }
    return static_cast<double>(agree) / static_cast<double>(pool.frames.size());
}

std::unique_ptr<ServeContext>
buildContext(const ServeSpec &spec, std::uint64_t seed, Recorder &recorder)
{
    auto ctx = std::make_unique<ServeContext>();
    ctx->pipeline = makePipeline(spec);
    LecaPipeline &pipeline = *ctx->pipeline;
    if (spec.int8)
        (void)leca::serve::quantizedPipelineBackend(pipeline);
    Server::Backend backend =
        stagedBackend(pipeline, recorder, ctx->batchIds);

    ctx->pool.frames = makeFrames(spec, seed);
    for (const Tensor &frame : ctx->pool.frames) {
        const Tensor one = Tensor::borrow({1, 3, spec.hw, spec.hw},
                                          frame.data());
        const Tensor logits = backend(one);
        ctx->pool.logits.emplace_back(logits.data(),
                                      logits.data() + logits.numel());
        if (spec.wire)
            ctx->pool.codes.push_back(referenceCodes(pipeline, frame));
    }
    leca::serve::ServerOptions options;
    options.queueCapacity = 64;
    options.maxBatch = spec.maxBatch;
    options.maxWaitMicros = spec.maxWaitMicros;
    options.policy = leca::serve::OverloadPolicy::Block;
    options.seed = seed;
    options.wirePayload = spec.wire;
    ctx->server = std::make_unique<Server>(
        backend, std::vector<int>{3, spec.hw, spec.hw}, options,
        spec.wire ? tracedWireEncoder(pipeline, recorder, ctx->batchIds)
                  : Server::WireEncoder{});
    const int sessions = *std::max_element(spec.ladder.begin(),
                                           spec.ladder.end());
    ctx->harness = std::make_unique<ServeHarness>(*ctx->server, ctx->pool,
                                                  sessions, kRingDepth);
    Rng warm_rng(seed + 1);
    ctx->warmup = ctx->harness->closedLoop(spec.ladder[0], spec.outstanding,
                                           60.0, kWarmupFrames, warm_rng,
                                           &recorder);
    return ctx;
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

/** Due-time latencies (ms) of the Ok frames, in due order. */
std::vector<double>
latencies(const PhaseResult &phase)
{
    std::vector<double> ms;
    for (const FrameRecord &r : phase.records)
        if (r.status == ServeStatus::Ok)
            ms.push_back(dueLatencyMs(r.due, r.submitStart, r.totalNanos));
    return ms;
}

std::string
percentileNote(const Percentile &p)
{
    std::ostringstream os;
    os << "p" << fmt(p.percent, 2) << " of n=" << p.count << " ("
       << p.beyond << " beyond)";
    return os.str();
}

std::string
windowedNote(const WindowedTail &t)
{
    return "median of " + std::to_string(t.windows) + " windows' p"
           + fmt(t.first.percent, 2) + " (first: n=" + std::to_string(t.first.count)
           + ", " + std::to_string(t.first.beyond) + " beyond)";
}

/** Backlog grows when the queue depth sampled at each submit averages
 *  over a batch more in the last third of the phase than in the first. */
bool
backlogGrew(const PhaseResult &phase, int max_batch)
{
    const auto &d = phase.queueDepths;
    const std::size_t third = d.size() / 3;
    if (third == 0)
        return false;
    double head = 0.0, tail = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
        head += static_cast<double>(d[i]);
        tail += static_cast<double>(d[d.size() - 1 - i]);
    }
    return (tail - head) / static_cast<double>(third) > max_batch;
}

} // namespace

const ServeSpec *
findServeSpec(const std::string &name)
{
    for (const ServeSpec &spec : kSpecs)
        if (name == spec.name)
            return &spec;
    return nullptr;
}

// ---- ServeHarness ---------------------------------------------------------

ServeHarness::ServeHarness(Server &server, const FramePool &pool,
                           int sessions, int ring_depth)
    : _server(server), _pool(pool), _ringDepth(ring_depth)
{
    for (int s = 0; s < sessions; ++s) {
        _sessions.push_back(_server.openSession());
        _rings.push_back(std::make_unique<Slot[]>(
            static_cast<std::size_t>(ring_depth)));
    }
    _sessionFrames.assign(static_cast<std::size_t>(sessions), 0);
    _ringCursor.assign(static_cast<std::size_t>(sessions), 0);
}

void
ServeHarness::submit(PhaseResult &phase, std::size_t record_index,
                     Slot &slot, int session, int pool_index,
                     std::int64_t due, Recorder *recorder)
{
    FrameRecord &rec = phase.records[record_index];
    rec.pool = pool_index;
    rec.session = static_cast<std::uint32_t>(session);
    rec.frameIndex = _sessionFrames[static_cast<std::size_t>(session)]++;
    rec.due = due;
    rec.submitStart = nowNanos();
    _server.submit(_sessions[static_cast<std::size_t>(session)],
                   _pool.frames[static_cast<std::size_t>(pool_index)],
                   slot.ticket);
    rec.submitEnd = nowNanos();
    if (recorder && recorder->enabled())
        recorder->record(SpanKind::Submit, rec.submitStart, rec.submitEnd,
                         static_cast<std::uint32_t>(record_index), 1);
    slot.record = static_cast<std::int64_t>(record_index);
    ++_submitted;
}

void
ServeHarness::harvest(PhaseResult &phase, Slot &slot)
{
    const FrameResult &r = slot.ticket.wait();
    FrameRecord &rec = phase.records[static_cast<std::size_t>(slot.record)];
    rec.status = r.status;
    rec.identityOk = r.session == _sessions[rec.session].id()
                     && r.frameIndex == rec.frameIndex;
    rec.queueNanos = r.queueNanos;
    rec.batchNanos = r.batchNanos;
    rec.totalNanos = r.totalNanos;
    rec.batchSize = r.batchSize;
    rec.classes = static_cast<int>(
        std::min<std::size_t>(r.logits.size(), kMaxClasses));
    std::copy_n(r.logits.begin(), rec.classes, rec.logits.begin());
    if (!r.wire.empty()) {
        rec.wireOffset = static_cast<std::uint32_t>(phase.wireBytes.size());
        rec.wireSize = static_cast<std::uint32_t>(r.wire.size());
        phase.wireBytes.insert(phase.wireBytes.end(), r.wire.begin(),
                               r.wire.end());
    }
    slot.record = -1;
}

PhaseResult
ServeHarness::openLoop(int sessions, double fps, double seconds, Rng &rng,
                       Recorder *recorder)
{
    PhaseResult phase;
    phase.label = "open " + std::to_string(sessions) + "x" + fmt(fps, 0)
                  + "fps";
    phase.offeredFps = sessions * fps;
    phase.startNanos = nowNanos();

    struct Event
    {
        std::int64_t offset;
        int session;
        int pool;
    };
    std::vector<Event> events;
    const double period_ns = 1e9 / fps;
    const int pool_size = static_cast<int>(_pool.frames.size());
    for (int s = 0; s < sessions; ++s) {
        // Drifts are stratified over +-1 %, so any two cameras drift
        // apart by at least 2 %/sessions on average and sweep through
        // their relative alignments within the step, whatever the seed.
        const double phase_ns = rng.uniform(0.0, period_ns);
        const double drift =
            0.01 * (2.0 * (s + rng.uniform()) / sessions - 1.0);
        const double period = period_ns * (1.0 + drift);
        for (double t = phase_ns; t < seconds * 1e9; t += period)
            events.push_back({static_cast<std::int64_t>(t), s,
                              rng.uniformInt(0, pool_size - 1)});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.offset < b.offset;
                     });
    phase.records.resize(events.size());
    phase.queueDepths.reserve(events.size());
    const std::size_t wire_per_frame =
        _pool.codes.empty() ? 0 : _pool.codes[0].size() + 256;
    phase.wireBytes.reserve(events.size() * wire_per_frame);

    const std::uint64_t batches0 = _server.metrics().batches;
    const std::uint64_t allocs0 = leca::totalHeapAllocs();
    const std::int64_t start = nowNanos() + 2'000'000;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event &ev = events[i];
        const std::int64_t due = start + ev.offset;
        waitUntil(due);
        const auto s = static_cast<std::size_t>(ev.session);
        Slot &slot = _rings[s][_ringCursor[s]++ % _ringDepth];
        if (slot.record >= 0)
            harvest(phase, slot);
        submit(phase, i, slot, ev.session, ev.pool, due, recorder);
        phase.queueDepths.push_back(_server.queueDepth());
    }
    for (int s = 0; s < sessions; ++s)
        for (int k = 0; k < _ringDepth; ++k) {
            Slot &slot = _rings[static_cast<std::size_t>(s)][k];
            if (slot.record >= 0)
                harvest(phase, slot);
        }
    phase.endNanos = nowNanos();
    phase.heapAllocs = leca::totalHeapAllocs() - allocs0;
    phase.batches = _server.metrics().batches - batches0;
    return phase;
}

PhaseResult
ServeHarness::closedLoop(int sessions, int outstanding, double seconds,
                         std::size_t max_frames, Rng &rng, Recorder *recorder)
{
    PhaseResult phase;
    phase.label = "closed " + std::to_string(outstanding) + " in flight";
    phase.records.reserve(max_frames);
    const std::size_t wire_per_frame =
        _pool.codes.empty() ? 0 : _pool.codes[0].size() + 256;
    phase.wireBytes.reserve(max_frames * wire_per_frame);
    auto slots = std::make_unique<Slot[]>(static_cast<std::size_t>(outstanding));
    const int pool_size = static_cast<int>(_pool.frames.size());
    int next_session = 0;
    const auto submit_next = [&](Slot &slot) {
        phase.records.emplace_back();
        const std::int64_t now = nowNanos();
        submit(phase, phase.records.size() - 1, slot, next_session,
               rng.uniformInt(0, pool_size - 1), now, recorder);
        next_session = (next_session + 1) % sessions;
    };

    const std::uint64_t batches0 = _server.metrics().batches;
    const std::uint64_t allocs0 = leca::totalHeapAllocs();
    phase.startNanos = nowNanos();
    const std::int64_t end =
        phase.startNanos + static_cast<std::int64_t>(seconds * 1e9);
    for (int j = 0; j < outstanding && phase.records.size() < max_frames; ++j)
        submit_next(slots[static_cast<std::size_t>(j)]);
    for (int j = 0;; j = (j + 1) % outstanding) {
        Slot &slot = slots[static_cast<std::size_t>(j)];
        if (slot.record >= 0)
            harvest(phase, slot);
        if (nowNanos() >= end || phase.records.size() >= max_frames)
            break;
        submit_next(slot);
    }
    for (int k = 0; k < outstanding; ++k)
        if (slots[static_cast<std::size_t>(k)].record >= 0)
            harvest(phase, slots[static_cast<std::size_t>(k)]);
    phase.endNanos = nowNanos();
    phase.heapAllocs = leca::totalHeapAllocs() - allocs0;
    phase.batches = _server.metrics().batches - batches0;

    return phase;
}

void
ServeHarness::check(PhaseResult &phase) const
{
    for (const FrameRecord &r : phase.records) {
        if (r.status != ServeStatus::Ok) {
            ++phase.notOk;
            continue;
        }
        ++phase.ok;
        if (!r.identityOk)
            ++phase.wrongIdentity;
        const std::vector<float> &ref =
            _pool.logits[static_cast<std::size_t>(r.pool)];
        if (static_cast<std::size_t>(r.classes) != ref.size()
            || std::memcmp(r.logits.data(), ref.data(),
                           ref.size() * sizeof(float))
                   != 0)
            ++phase.wrongLogits;
        if (_pool.codes.empty())
            continue;
        bool wire_ok = r.wireSize > 0;
        if (wire_ok) {
            const std::int64_t t0 = nowNanos();
            try {
                const std::vector<std::uint8_t> codes =
                    leca::bitstream::decodeByteStream(
                        phase.wireBytes.data() + r.wireOffset, r.wireSize);
                wire_ok = codes
                          == _pool.codes[static_cast<std::size_t>(r.pool)];
            } catch (const std::exception &) {
                wire_ok = false;
            }
            phase.wireDecodeMs +=
                static_cast<double>(nowNanos() - t0) / 1e6;
            phase.wirePayloadBytes += r.wireSize;
        }
        if (!wire_ok)
            ++phase.wrongWire;
    }
}

bool
ServeHarness::stop(std::string &error)
{
    try {
        _server.stop();
        return true;
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "non-standard exception";
    }
    return false;
}

// ---- Accounting -----------------------------------------------------------

Accounting
accountBatches(const PhaseResult &phase, const std::vector<SpanRecord> &spans)
{
    struct BatchSpans
    {
        std::int64_t backend = -1;
        std::int64_t stages = 0;
        std::int64_t wire = 0;
        std::uint32_t items = 0;
    };
    std::vector<BatchSpans> by_id;
    for (const SpanRecord &s : spans) {
        if (s.start < phase.startNanos || s.end > phase.endNanos)
            continue;
        if (s.kind != SpanKind::Backend && s.kind != SpanKind::Encoder
            && s.kind != SpanKind::Decoder && s.kind != SpanKind::Backbone
            && s.kind != SpanKind::WireEncode)
            continue;
        if (s.id >= by_id.size())
            by_id.resize(s.id + 1);
        BatchSpans &b = by_id[s.id];
        const std::int64_t dur = s.end - s.start;
        if (s.kind == SpanKind::Backend) {
            b.backend = dur;
            b.items = s.items;
        } else if (s.kind == SpanKind::WireEncode) {
            b.wire += dur;
        } else {
            b.stages += dur;
        }
    }

    Accounting acc;
    const auto &recs = phase.records;
    std::size_t i = 0;
    while (i < recs.size()) {
        const FrameRecord &r = recs[i];
        const auto size = static_cast<std::size_t>(r.batchSize);
        if (r.status != ServeStatus::Ok || size == 0 || i + size > recs.size()
            || acc.batches >= by_id.size())
            return acc;
        for (std::size_t k = 1; k < size; ++k)
            if (recs[i + k].batchNanos != r.batchNanos
                || recs[i + k].batchSize != r.batchSize)
                return acc;
        const BatchSpans &b = by_id[acc.batches];
        if (b.backend < 0 || b.items != size)
            return acc;
        const std::int64_t overhead = r.batchNanos - b.backend - b.wire;
        const std::int64_t glue = b.backend - b.stages;
        const double tol = std::max(kAccountShare * r.batchNanos,
                                    static_cast<double>(kAccountSlackNanos));
        if (overhead < -2'000 || static_cast<double>(glue) > tol)
            ++acc.violations;
        acc.batchMs += r.batchNanos / 1e6;
        acc.backendMs += b.backend / 1e6;
        acc.stagesMs += b.stages / 1e6;
        acc.wireMs += b.wire / 1e6;
        acc.overheadMs += overhead / 1e6;
        ++acc.batches;
        i += size;
    }
    acc.matched = acc.batches == by_id.size();
    return acc;
}

// ---- The workload ---------------------------------------------------------

int
runServeWorkload(const ServeSpec &spec, std::uint64_t seed, double seconds,
                 bool trace, const std::string &revision,
                 const std::string &out_dir)
{
    Report report(spec.name, trace);
    report.setFingerprint(fingerprintJson(spec.name, seed, revision, trace));
    Recorder recorder(trace ? kTraceCapacity : 0);

    // Set-up, several times; the last context serves.
    std::vector<double> setup_s;
    std::unique_ptr<ServeContext> ctx;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        ctx.reset();
        const std::int64_t t0 = nowNanos();
        ctx = buildContext(spec, seed, recorder);
        setup_s.push_back(static_cast<double>(nowNanos() - t0) / 1e9);
    }
    // The program's footprint when ready to serve; the per-frame record
    // buffers the harness fills later scale with throughput.
    report.set("peak_rss_mb", peakRssMb(), "VmHWM when ready to serve");
    ServeHarness &harness = *ctx->harness;
    std::vector<PhaseResult *> checked;
    harness.check(ctx->warmup);
    checked.push_back(&ctx->warmup);

    // Timed phases: the open-loop ladder, then the saturating loop.
    Rng rng(seed * 0xD1B54A32D192ED03ULL + 11);
    std::vector<std::vector<PhaseResult>> ladder(spec.ladder.size());
    for (std::size_t k = 0; k < spec.ladder.size(); ++k) {
        const bool is_nominal = static_cast<int>(k) == spec.nominalStep;
        const int parts = is_nominal ? kNominalSegments : 1;
        const double part_s =
            (is_nominal ? kNominalShare : kStepShare) * seconds / parts;
        for (int part = 0; part < parts; ++part) {
            ctx->batchIds.store(0);
            recorder.setEnabled(trace);
            ladder[k].push_back(harness.openLoop(
                spec.ladder[k], spec.sessionFps, part_s, rng, &recorder));
            recorder.setEnabled(false);
            harness.check(ladder[k].back());
        }
    }
    for (std::vector<PhaseResult> &step : ladder)
        for (PhaseResult &p : step)
            checked.push_back(&p);

    const int nominal_sessions = spec.ladder[spec.nominalStep];
    const double closed_s = kClosedShare * seconds;
    const auto closed_frames = static_cast<std::size_t>(
        closed_s * spec.maxRateFps + spec.outstanding);
    // Untraced: one closed phase. Traced: half with the recorder off,
    // half on, for the tracing overhead.
    PhaseResult closed = harness.closedLoop(
        nominal_sessions, spec.outstanding, trace ? closed_s / 2 : closed_s,
        closed_frames, rng, &recorder);
    harness.check(closed);
    checked.push_back(&closed);
    PhaseResult closed_traced;
    if (trace) {
        ctx->batchIds.store(0);
        recorder.setEnabled(true);
        closed_traced = harness.closedLoop(nominal_sessions, spec.outstanding,
                                           closed_s / 2, closed_frames, rng,
                                           &recorder);
        recorder.setEnabled(false);
        harness.check(closed_traced);
        checked.push_back(&closed_traced);
    }

    // Stop, then conservation over the server's whole life.
    std::string stop_error;
    const bool stopped = harness.stop(stop_error);
    const leca::serve::MetricsSnapshot m = ctx->server->metrics();
    const bool conserved =
        m.submitted
            == m.completed + m.shed + m.expired + m.rejectedClosed + m.errored
        && m.submitted == harness.submitted();

    std::uint64_t failed = 0, wrong_logits = 0, wrong_wire = 0,
                  wrong_identity = 0, ok = 0;
    double wire_bytes = 0.0, wire_decode_ms = 0.0;
    for (const PhaseResult *p : checked) {
        failed += p->failed();
        wrong_logits += p->wrongLogits;
        wrong_wire += p->wrongWire;
        wrong_identity += p->wrongIdentity;
        ok += p->ok;
        wire_bytes += p->wirePayloadBytes;
        wire_decode_ms += p->wireDecodeMs;
    }
    if (!conserved)
        failed += std::max<std::uint64_t>(
            1, m.submitted > harness.submitted()
                   ? m.submitted - harness.submitted()
                   : harness.submitted() - m.submitted);
    bool correct = failed == 0 && stopped;

    // Phase table.
    const std::vector<PhaseResult> &nominal =
        ladder[static_cast<std::size_t>(spec.nominalStep)];
    double max_rate = 0.0;
    for (const std::vector<PhaseResult> &step : ladder) {
        std::vector<double> lat;
        std::uint64_t n = 0, ok_frames = 0, failed_frames = 0;
        bool grew = false;
        for (const PhaseResult &p : step) {
            const std::vector<double> part = latencies(p);
            lat.insert(lat.end(), part.begin(), part.end());
            n += p.records.size();
            ok_frames += p.ok;
            failed_frames += p.failed();
            grew = grew || backlogGrew(p, spec.maxBatch);
        }
        const WindowedTail tail = windowedTail(lat);
        std::sort(lat.begin(), lat.end());
        const Percentile p50 = percentile(lat, 0.5);
        const bool pass = failed_frames == 0 && !grew && !lat.empty()
                          && tail.value <= spec.latencyLimitMs;
        const double offered = step.front().offeredFps;
        if (pass)
            max_rate = std::max(max_rate, offered);
        report.line("phase " + step.front().label + " x"
                    + std::to_string(step.size()) + ": offered "
                    + fmt(offered, 1) + " frames/s, n=" + std::to_string(n)
                    + ", p50 " + fmt(p50.value) + " ms, tail "
                    + fmt(tail.value) + " ms (" + windowedNote(tail)
                    + "), Ok " + std::to_string(ok_frames) + ", failed "
                    + std::to_string(failed_frames) + ", backlog "
                    + (grew ? "grows" : "steady") + ", "
                    + (pass ? "meets" : "misses") + " the "
                    + fmt(spec.latencyLimitMs, 0) + " ms limit");
    }
    report.line("phase " + closed.label + ": " + std::to_string(closed.ok)
                + " Ok frames in " + fmt(closed.wallSeconds()) + " s, "
                + fmt(closed.batches ? static_cast<double>(closed.ok)
                                           / closed.batches
                                     : 0.0,
                      2)
                + " frames per batch");
    report.line("check: " + std::to_string(ok) + " Ok responses; "
                + std::to_string(wrong_logits) + " logit mismatches, "
                + std::to_string(wrong_wire) + " wire-decode mismatches, "
                + std::to_string(wrong_identity) + " identity mismatches; "
                + "conservation " + (conserved ? "holds" : "BROKEN")
                + " (submitted " + std::to_string(m.submitted) + ", completed "
                + std::to_string(m.completed) + ", shed "
                + std::to_string(m.shed) + ", expired "
                + std::to_string(m.expired) + ", closed "
                + std::to_string(m.rejectedClosed) + ", errored "
                + std::to_string(m.errored) + ")");
    if (!stopped)
        report.line("server stopped on a backend exception: " + stop_error);

    std::vector<double> lat;
    for (const PhaseResult &p : nominal) {
        const std::vector<double> part = latencies(p);
        lat.insert(lat.end(), part.begin(), part.end());
    }
    const WindowedTail tail = windowedTail(lat);
    std::sort(lat.begin(), lat.end());
    const Percentile p50 = percentile(lat, 0.5);

    report.info("lat_tail_ms", tail.value, "ms", windowedNote(tail));
    report.info("max_rate_fps", max_rate, "1/s",
                "highest ladder rate meeting the "
                    + fmt(spec.latencyLimitMs, 0) + " ms tail limit");
    if (spec.wire)
        report.info("wire_bytes_per_frame", ok ? wire_bytes / ok : 0.0, "B",
                    "mean entropy-coded payload");
    if (spec.int8)
        report.info("top1_agree_fp32", top1AgreeFp32(spec, ctx->pool), "ratio",
                    "int8 argmax == fp32 twin argmax over the "
                        + std::to_string(spec.poolSize) + "-frame pool");

    if (!trace) {
        report.set("setup_s", median(setup_s),
                   "median of " + std::to_string(kSetupReps) + " set-ups");
        report.set("capacity_fps", closed.okPerSecond(),
                   std::to_string(closed.ok) + " Ok frames, "
                       + std::to_string(spec.outstanding) + " in flight");
        report.set("lat_p50_ms", p50.value,
                   percentileNote(p50) + " at "
                       + fmt(nominal.front().offeredFps, 0) + " frames/s, "
                       + std::to_string(kNominalSegments) + " segments");
    } else {
        // Serve layer, at the nominal step.
        std::vector<double> queue_ms, submit_ms, late_ms;
        std::uint64_t nominal_ok = 0, nominal_batches = 0;
        for (const PhaseResult &p : nominal) {
            nominal_ok += p.ok;
            nominal_batches += p.batches;
            for (const FrameRecord &r : p.records) {
                if (r.status == ServeStatus::Ok)
                    queue_ms.push_back(r.queueNanos / 1e6);
                submit_ms.push_back((r.submitEnd - r.submitStart) / 1e6);
                late_ms.push_back((r.submitStart - r.due) / 1e6);
            }
        }
        for (auto *v : {&queue_ms, &submit_ms, &late_ms})
            std::sort(v->begin(), v->end());
        const Percentile q50 = percentile(queue_ms, 0.5);
        const Percentile qtail = tailPercentile(queue_ms);
        report.set("serve.queue_wait_ms.p50", q50.value, percentileNote(q50));
        report.set("serve.queue_wait_ms.tail", qtail.value,
                   percentileNote(qtail));
        report.set("serve.batch_size.mean",
                   nominal_batches ? static_cast<double>(nominal_ok)
                                         / nominal_batches
                                   : 0.0,
                   "Ok frames per batch at the nominal step");
        const Percentile stail = tailPercentile(submit_ms);
        report.set("serve.submit_ms.tail", stail.value, percentileNote(stail));
        const Percentile ltail = tailPercentile(late_ms);
        report.set("gen.late_ms.tail", ltail.value, percentileNote(ltail));
        report.set("serve.shed", static_cast<double>(m.shed));
        report.set("serve.expired", static_cast<double>(m.expired));
        report.set("serve.errored", static_cast<double>(m.errored));
        report.set("serve.max_queue_depth",
                   static_cast<double>(m.maxQueueDepth));

        // Stage spans over every traced batch.
        const std::vector<SpanRecord> spans = recorder.spans();
        const std::vector<LayerRow> rows = layerTable(spans);
        const PipelineWork work =
            pipelineWork(*ctx->pipeline, spec.hw, spec.int8 ? 1.0 : 4.0);
        const double peak = peakGmacPerSecond(spec.int8);
        const auto stage = [&](SpanKind kind, const char *prefix,
                               const StageWork &w) {
            for (const LayerRow &row : rows) {
                if (row.kind != kind)
                    continue;
                const double gmac_s =
                    w.macs * row.items / (row.totalMs * 1e-3) / 1e9;
                report.set(std::string(prefix) + ".ms_per_batch",
                           row.totalMs / row.count,
                           std::to_string(row.count) + " batches, "
                               + fmt(static_cast<double>(row.items)
                                         / row.count, 2)
                               + " frames each");
                report.set(std::string(prefix) + ".gmac_s", gmac_s,
                           "computed " + fmt(w.macs / 1e6, 2)
                               + " MMAC/frame, " + fmt(w.bytes / 1e3, 1)
                               + " kB/frame");
                report.set(std::string(prefix) + ".roofline_pct",
                           100.0 * gmac_s / peak,
                           std::string("of computed ")
                               + (spec.int8 ? "int8" : "fp32") + " peak "
                               + fmt(peak, 1) + " GMAC/s");
            }
        };
        stage(SpanKind::Encoder, "encoder", work.encoder);
        stage(SpanKind::Decoder, "decoder", work.decoder);
        stage(SpanKind::Backbone, "backbone", work.backbone);
        for (const LayerRow &row : rows)
            if (row.kind == SpanKind::WireEncode)
                report.set("wire.encode_ms_per_frame", row.totalMs / row.count,
                           std::to_string(row.count) + " frames");
        if (spec.wire && ok) {
            report.set("wire.bytes_per_frame", wire_bytes / ok,
                       "mean entropy-coded payload");
            report.set("wire.decode_ms_per_frame", wire_decode_ms / ok,
                       "decodeByteStream in the check phase");
        }

        // Per-batch accounting over the traced phases.
        Accounting total;
        bool matched = true;
        std::vector<const PhaseResult *> traced;
        for (const std::vector<PhaseResult> &step : ladder)
            for (const PhaseResult &p : step)
                traced.push_back(&p);
        traced.push_back(&closed_traced);
        for (const PhaseResult *p : traced) {
            const Accounting a = accountBatches(*p, spans);
            matched = matched && a.matched;
            total.batches += a.batches;
            total.violations += a.violations;
            total.batchMs += a.batchMs;
            total.backendMs += a.backendMs;
            total.stagesMs += a.stagesMs;
            total.wireMs += a.wireMs;
            total.overheadMs += a.overheadMs;
        }
        const bool accounted =
            matched && recorder.dropped() == 0
            && total.violations
                   <= kAccountViolationShare * static_cast<double>(total.batches);
        report.line("accounting: " + std::to_string(total.batches)
                    + " batches, batchNanos " + fmt(total.batchMs) + " ms = "
                    + "stages " + fmt(total.stagesMs) + " + backend glue "
                    + fmt(total.backendMs - total.stagesMs) + " + wire "
                    + fmt(total.wireMs) + " + serve overhead "
                    + fmt(total.overheadMs) + " ms; "
                    + std::to_string(total.violations)
                    + " batches outside tolerance (glue <= max("
                    + fmt(100 * kAccountShare, 0) + "% of batchNanos, "
                    + fmt(kAccountSlackNanos / 1e3, 0)
                    + " us), overhead >= 0), allowed "
                    + fmt(100 * kAccountViolationShare, 0) + "%; "
                    + (matched ? "records matched to spans"
                               : "records NOT matched to spans")
                    + (accounted ? "" : " -> FAILED"));
        correct = correct && accounted;
        report.set("serve.overhead_ms_per_batch",
                   total.batches ? total.overheadMs / total.batches : 0.0,
                   "batchNanos - backend span - wire spans");
        report.set("trace.unaccounted_pct",
                   total.batchMs > 0
                       ? 100.0 * (total.backendMs - total.stagesMs)
                             / total.batchMs
                       : 0.0,
                   "backend span not covered by stage spans");
        const double cap_off = closed.okPerSecond();
        const double cap_on = closed_traced.okPerSecond();
        report.set("trace.overhead_pct",
                   cap_off > 0 ? 100.0 * (cap_off - cap_on) / cap_off : 0.0,
                   "capacity untraced " + fmt(cap_off, 1) + " vs traced "
                       + fmt(cap_on, 1) + " frames/s");
        report.set("trace.spans_dropped",
                   static_cast<double>(recorder.dropped()));
        report.set("alloc.per_frame",
                   closed.ok ? static_cast<double>(closed.heapAllocs) / closed.ok
                             : 0.0,
                   "heap allocations per Ok frame, untraced closed loop");

        // Files: Chrome trace and the flat per-layer table.
        const std::string base = out_dir + "/" + spec.name;
        if (!writeChromeTrace(base + ".trace.json", spans, kChromeTraceSpans))
            report.line("could not write " + base + ".trace.json");
        const std::string table = formatLayerTable(
            rows, std::string("per-layer table, ") + spec.name + ", seed "
                      + std::to_string(seed));
        report.line(table);
        if (!writeText(base + ".layers.txt", table))
            report.line("could not write " + base + ".layers.txt");
    }

    return report.finish(correct, harness.submitted(), failed,
                         out_dir + "/" + spec.name
                             + (trace ? ".traced.report.txt"
                                      : ".report.txt"));
}

} // namespace servebench
