/**
 * @file
 * The benchmark's own self-tests: latency arithmetic, failure
 * accounting against injected faulty backends, per-batch span
 * accounting, and a short smoke run of every workload checking that
 * each catalog metric is emitted with its unit.
 *
 * Run with `python3 servebench/run.py --selftest`, which also checks
 * the catalog against BENCHMARK.json.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bitstream/codec.hh"
#include "report.hh"
#include "serve_workload.hh"
#include "stats.hh"
#include "train_workload.hh"

namespace servebench {
namespace {

using leca::Tensor;
using leca::serve::Server;

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

TEST(Stats, NearestRankPercentiles)
{
    const std::vector<double> v = iota(100);
    EXPECT_EQ(percentile(v, 0.5).value, 50);
    EXPECT_EQ(percentile(v, 0.5).beyond, 50u);
    EXPECT_EQ(percentile(v, 0.99).value, 99);
    EXPECT_EQ(percentile(v, 0.99).beyond, 1u);
    EXPECT_EQ(percentile(v, 1.0).value, 100);
    EXPECT_EQ(percentile(iota(3), 0.5).value, 2);
    EXPECT_EQ(percentile({}, 0.5).count, 0u);
}

TEST(Stats, TailIsTheHighestLadderPercentileWithTenBeyond)
{
    const Percentile t = tailPercentile(iota(100000));
    EXPECT_EQ(t.value, 99000); // the ladder stops at p99
    EXPECT_EQ(t.beyond, 1000u);
    const Percentile p99 = tailPercentile(iota(1000));
    EXPECT_EQ(p99.value, 990);
    EXPECT_EQ(p99.beyond, 10u);
    EXPECT_EQ(p99.count, 1000u);
    EXPECT_DOUBLE_EQ(p99.percent, 99.0);
    const Percentile p95 = tailPercentile(iota(999));
    EXPECT_DOUBLE_EQ(p95.percent, 95.0); // p99 would leave only 9
    EXPECT_EQ(p95.value, 950);
    EXPECT_EQ(p95.beyond, 49u);
    const Percentile small = tailPercentile(iota(15));
    EXPECT_EQ(small.value, 15);
    EXPECT_EQ(small.beyond, 0u);
}

TEST(Stats, WindowedTailIgnoresOneStalledWindow)
{
    // Three windows of 1000; a 50 ms stall hits 20 samples of the second.
    std::vector<double> ms(3000, 1.0);
    for (int i = 0; i < 3000; ++i)
        ms[static_cast<std::size_t>(i)] = 1.0 + (i % 1000) / 1000.0;
    for (int i = 1100; i < 1120; ++i)
        ms[static_cast<std::size_t>(i)] = 50.0;
    const WindowedTail t = windowedTail(ms);
    EXPECT_EQ(t.windows, 3u);
    EXPECT_DOUBLE_EQ(t.first.percent, 99.0);
    EXPECT_EQ(t.first.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.value, 1.0 + 989 / 1000.0);
    // Fewer samples than a window: one window over all of them.
    EXPECT_EQ(windowedTail(std::vector<double>(500, 2.0)).windows, 1u);
    // A partial last window joins the one before.
    EXPECT_EQ(windowedTail(std::vector<double>(2500, 2.0)).windows, 2u);
    EXPECT_EQ(windowedTail(std::vector<double>(2500, 2.0)).first.count,
              1000u);
}

TEST(Stats, Median)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, DueLatencyChargesGeneratorStalls)
{
    // Due at 1 ms, submitted 2 ms late, served in 5 ms.
    EXPECT_DOUBLE_EQ(dueLatencyMs(1'000'000, 3'000'000, 5'000'000), 7.0);
    // On time: the server's own time only.
    EXPECT_DOUBLE_EQ(dueLatencyMs(1'000'000, 1'000'000, 250'000), 0.25);
}

// ---- Failure accounting against synthetic backends ------------------------

constexpr int kHw = 2;

/** Per-image deterministic logits: a function of the pixel sum. */
Tensor
syntheticLogits(const Tensor &batch, float salt)
{
    const int n = batch.size(0);
    const std::size_t elems = batch.numel() / static_cast<std::size_t>(n);
    Tensor out({n, 4});
    for (int i = 0; i < n; ++i) {
        float sum = 0.0f;
        for (std::size_t j = 0; j < elems; ++j)
            sum += batch.data()[i * elems + j];
        for (int k = 0; k < 4; ++k)
            out.data()[i * 4 + k] = sum * static_cast<float>(k + 1) + salt;
    }
    return out;
}

FramePool
syntheticPool(int frames, bool with_codes)
{
    FramePool pool;
    for (int f = 0; f < frames; ++f) {
        std::vector<float> px(3 * kHw * kHw);
        for (std::size_t j = 0; j < px.size(); ++j)
            px[j] = static_cast<float>((f * 7 + static_cast<int>(j)) % 11)
                    / 11.0f;
        pool.frames.push_back(Tensor::fromData({3, kHw, kHw}, px));
        const Tensor one =
            Tensor::borrow({1, 3, kHw, kHw}, pool.frames.back().data());
        const Tensor logits = syntheticLogits(one, 0.0f);
        pool.logits.emplace_back(logits.data(), logits.data() + 4);
        if (with_codes)
            pool.codes.push_back({static_cast<std::uint8_t>(f), 1, 2, 3});
    }
    return pool;
}

leca::serve::ServerOptions
syntheticOptions(bool wire)
{
    leca::serve::ServerOptions options;
    options.maxBatch = 4;
    options.maxWaitMicros = 200;
    options.wirePayload = wire;
    return options;
}

TEST(FailureAccounting, CleanBackendPassesEveryCheck)
{
    const FramePool pool = syntheticPool(8, false);
    Server server([](const Tensor &b) { return syntheticLogits(b, 0.0f); },
                  {3, kHw, kHw}, syntheticOptions(false));
    ServeHarness harness(server, pool, 4, 8);
    leca::Rng rng(1);
    PhaseResult open = harness.openLoop(4, 500.0, 0.1, rng, nullptr);
    PhaseResult closed = harness.closedLoop(4, 4, 0.1, 100000, rng, nullptr);
    harness.check(open);
    harness.check(closed);
    std::string error;
    ASSERT_TRUE(harness.stop(error)) << error;
    EXPECT_GT(open.ok, 0u);
    EXPECT_GT(closed.ok, 0u);
    EXPECT_EQ(open.failed() + closed.failed(), 0u);
    EXPECT_EQ(server.metrics().submitted, harness.submitted());
    EXPECT_EQ(server.metrics().completed, harness.submitted());
}

TEST(FailureAccounting, WrongLogitsAreCounted)
{
    const FramePool pool = syntheticPool(8, false);
    Server server([](const Tensor &b) { return syntheticLogits(b, 1e-6f); },
                  {3, kHw, kHw}, syntheticOptions(false));
    ServeHarness harness(server, pool, 2, 8);
    leca::Rng rng(2);
    PhaseResult closed = harness.closedLoop(2, 4, 60.0, 40, rng, nullptr);
    harness.check(closed);
    std::string error;
    ASSERT_TRUE(harness.stop(error));
    EXPECT_EQ(closed.ok, 40u);
    EXPECT_EQ(closed.wrongLogits, 40u);
    EXPECT_EQ(closed.failed(), 40u);
}

TEST(FailureAccounting, WrongWirePayloadsAreCounted)
{
    const FramePool pool = syntheticPool(8, true);
    // Encodes codes {0, 1, 2, 3} for every frame: right only for frame 0.
    Server::WireEncoder wire = [](const Tensor &,
                                  std::vector<std::uint8_t> &out) {
        const std::uint8_t codes[4] = {0, 1, 2, 3};
        out = leca::bitstream::encodeByteStream(codes, 4, 2);
    };
    Server server([](const Tensor &b) { return syntheticLogits(b, 0.0f); },
                  {3, kHw, kHw}, syntheticOptions(true), wire);
    ServeHarness harness(server, pool, 2, 8);
    leca::Rng rng(3);
    PhaseResult closed = harness.closedLoop(2, 4, 60.0, 64, rng, nullptr);
    harness.check(closed);
    std::string error;
    ASSERT_TRUE(harness.stop(error));
    std::uint64_t frame0 = 0;
    for (const FrameRecord &r : closed.records)
        frame0 += r.pool == 0;
    EXPECT_EQ(closed.wrongLogits, 0u);
    EXPECT_EQ(closed.wrongWire, closed.ok - frame0);
    EXPECT_GT(closed.wrongWire, 0u);
}

TEST(FailureAccounting, ThrowingBackendIsCaughtAndCounted)
{
    const FramePool pool = syntheticPool(8, false);
    std::atomic<int> calls{0};
    Server server(
        [&calls](const Tensor &b) {
            if (calls.fetch_add(1) == 5)
                throw std::runtime_error("injected backend fault");
            return syntheticLogits(b, 0.0f);
        },
        {3, kHw, kHw}, syntheticOptions(false));
    ServeHarness harness(server, pool, 3, 8);
    leca::Rng rng(4);
    PhaseResult open = harness.openLoop(3, 300.0, 0.2, rng, nullptr);
    harness.check(open);
    std::string error;
    EXPECT_FALSE(harness.stop(error));
    EXPECT_NE(error.find("injected backend fault"), std::string::npos);

    // Frames before the fault were served; the faulty batch errored and
    // everything after was refused, and all of it is accounted for.
    const leca::serve::MetricsSnapshot m = server.metrics();
    EXPECT_GT(open.ok, 0u);
    EXPECT_GT(open.notOk, 0u);
    EXPECT_GE(m.errored, 1u);
    EXPECT_EQ(open.ok + open.notOk, open.records.size());
    EXPECT_EQ(open.failed(), open.notOk);
    EXPECT_EQ(m.submitted, harness.submitted());
    EXPECT_EQ(m.submitted,
              m.completed + m.shed + m.expired + m.rejectedClosed + m.errored);
}

// ---- Per-batch span accounting --------------------------------------------

FrameRecord
okRecord(int batch_size, std::int64_t batch_nanos)
{
    FrameRecord r;
    r.status = leca::serve::ServeStatus::Ok;
    r.batchSize = batch_size;
    r.batchNanos = batch_nanos;
    return r;
}

SpanRecord
span(SpanKind kind, std::int64_t start, std::int64_t end, std::uint32_t id,
     std::uint32_t items)
{
    SpanRecord s;
    s.kind = kind;
    s.start = start;
    s.end = end;
    s.id = id;
    s.items = items;
    return s;
}

TEST(Accounting, MatchesFifoBatchesToSpans)
{
    PhaseResult phase;
    phase.startNanos = 0;
    phase.endNanos = 10'000'000;
    // Batch 0: two frames, 1 ms; batch 1: one frame, 2 ms.
    phase.records = {okRecord(2, 1'000'000), okRecord(2, 1'000'000),
                     okRecord(1, 2'000'000)};
    std::vector<SpanRecord> spans = {
        span(SpanKind::WireEncode, 100, 50'100, 0, 1),
        span(SpanKind::Backend, 60'000, 960'000, 0, 2),
        span(SpanKind::Encoder, 61'000, 100'000, 0, 2),
        span(SpanKind::Decoder, 100'000, 400'000, 0, 2),
        span(SpanKind::Backbone, 400'000, 959'000, 0, 2),
        span(SpanKind::Backend, 2'000'000, 3'990'000, 1, 1),
        span(SpanKind::Encoder, 2'000'500, 2'100'000, 1, 1),
        span(SpanKind::Decoder, 2'100'000, 2'500'000, 1, 1),
        span(SpanKind::Backbone, 2'500'000, 3'989'000, 1, 1),
    };
    const Accounting a = accountBatches(phase, spans);
    EXPECT_TRUE(a.matched);
    EXPECT_EQ(a.batches, 2u);
    EXPECT_EQ(a.violations, 0u);
    EXPECT_NEAR(a.overheadMs, (1'000'000 - 900'000 - 50'000 + 10'000) / 1e6,
                1e-12);

    // A stage the spans do not cover beyond the tolerance is flagged.
    spans[7].start = 3'000'000; // decoder of batch 1 loses 0.5 ms
    EXPECT_EQ(accountBatches(phase, spans).violations, 1u);

    // A batch split that disagrees with the records does not match.
    phase.records[1].batchNanos = 5;
    EXPECT_FALSE(accountBatches(phase, spans).matched);
}

// ---- Smoke runs ------------------------------------------------------------

/** The result object (last stdout line) of one short workload run. */
std::string
smokeResult(const std::string &workload, bool trace)
{
    const std::string out = ".bench_build/servebench-selftest";
    std::filesystem::create_directories(out);
    testing::internal::CaptureStdout();
    int code = -1;
    if (const ServeSpec *spec = findServeSpec(workload))
        code = runServeWorkload(*spec, 3, 1.0, trace, "selftest", out);
    else
        code = runTrainWorkload(3, 1.0, trace, "selftest", out);
    const std::string stdout_text = testing::internal::GetCapturedStdout();
    EXPECT_EQ(code, 0) << stdout_text;
    const auto last = stdout_text.find_last_of('\n', stdout_text.size() - 2);
    return stdout_text.substr(last + 1);
}

void
expectEveryMetric(const std::string &result, bool trace)
{
    EXPECT_EQ(result.rfind("{\"correct\": true, \"attempted\": ", 0), 0u)
        << result;
    for (const MetricDef &m : metricCatalog()) {
        std::string key = "\"";
        key.append(m.name).append("\": {\"value\": ");
        const auto at = result.find(key);
        if (m.perLayer != trace) {
            EXPECT_EQ(at, std::string::npos) << m.name;
            continue;
        }
        ASSERT_NE(at, std::string::npos) << m.name << " missing: " << result;
        std::string unit = ", \"unit\": \"";
        unit.append(m.unit).append("\"}");
        EXPECT_EQ(result.find(unit, at), result.find('}', at) - unit.size() + 1)
            << m.name;
    }
}

class Smoke : public testing::TestWithParam<const char *>
{
};

TEST_P(Smoke, EmitsEveryEndToEndMetricWithItsUnit)
{
    expectEveryMetric(smokeResult(GetParam(), false), false);
}

TEST_P(Smoke, EmitsEveryPerLayerMetricWithItsUnit)
{
    expectEveryMetric(smokeResult(GetParam(), true), true);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         testing::Values("serve_int8_full48",
                                         "serve_tiny_fp32", "train_proxy24"));

} // namespace
} // namespace servebench
