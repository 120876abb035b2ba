/**
 * @file
 * google-benchmark micro-benchmarks of the hot substrate operations:
 * matmul (blocked and naive-reference), im2col convolution (packed and
 * naive), the SCM MAC chain, a full-frame chip encode, and CS block
 * reconstruction. After the google-benchmark run, a blocked-vs-naive
 * comparison table with GFLOP/s and speedups is printed to stdout.
 *
 * Pass --json <path> (or set LECA_BENCH_JSON) to additionally emit a
 * machine-readable wall-time/throughput report of the key kernels.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analog/chain.hh"
#include "compression/compressive_sensing.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"
#include "hw/sensor_chip.hh"
#include "hw/weights.hh"
#include "json_report.hh"
#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv.hh"
#include "nn/sequential.hh"
#include "tensor/isa.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "tensor/quant.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace {

using namespace leca;

Tensor
randomTensor(std::vector<int> shape, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(-1, 1));
    return t;
}

void
BM_Matmul256(benchmark::State &state)
{
    const Tensor a = randomTensor({256, 256}, 1);
    const Tensor b = randomTensor({256, 256}, 2);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2LL * 256 * 256 * 256);
}
BENCHMARK(BM_Matmul256);

void
BM_Matmul256Naive(benchmark::State &state)
{
    const Tensor a = randomTensor({256, 256}, 1);
    const Tensor b = randomTensor({256, 256}, 2);
    Tensor c({256, 256});
    for (auto _ : state) {
        gemmReference(256, 256, 256, a.data(), 256, false, b.data(), 256,
                      false, c.data(), 256, false);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2LL * 256 * 256 * 256);
}
BENCHMARK(BM_Matmul256Naive);

/** The pre-blocking conv path: materialised im2col + naive GEMM. */
Tensor
convNaive(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
          int pad)
{
    const int n = x.size(0), cin = x.size(1), h = x.size(2), ww = x.size(3);
    const int cout = w.size(0), k = w.size(2);
    const int oh = convOutSize(h, k, stride, pad);
    const int ow = convOutSize(ww, k, stride, pad);
    const int kdim = cin * k * k;
    const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
    Tensor y({n, cout, oh, ow});
    Tensor cols({kdim, oh * ow});
    for (int i = 0; i < n; ++i) {
        im2colRaw(x.data() + static_cast<std::size_t>(i) * cin * h * ww,
                  cin, h, ww, k, k, stride, pad, cols.data());
        float *dst = y.data() + static_cast<std::size_t>(i) * cout * ohow;
        gemmReference(cout, ohow, kdim, w.data(), kdim, false, cols.data(),
                      ohow, false, dst, ohow, false);
        for (int co = 0; co < cout; ++co)
            for (std::int64_t p = 0; p < ohow; ++p)
                dst[co * ohow + p] += b[static_cast<std::size_t>(co)];
    }
    return y;
}

void
BM_Conv2d(benchmark::State &state)
{
    const Tensor x = randomTensor({1, 16, 32, 32}, 3);
    const Tensor w = randomTensor({32, 16, 3, 3}, 4);
    const Tensor b = randomTensor({32}, 5);
    for (auto _ : state) {
        Tensor y = conv2d(x, w, b, 1, 1);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_Conv2d);

void
BM_Conv2dNaive(benchmark::State &state)
{
    const Tensor x = randomTensor({1, 16, 32, 32}, 3);
    const Tensor w = randomTensor({32, 16, 3, 3}, 4);
    const Tensor b = randomTensor({32}, 5);
    for (auto _ : state) {
        Tensor y = convNaive(x, w, b, 1, 1);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_Conv2dNaive);

void
BM_Im2col(benchmark::State &state)
{
    const Tensor img = randomTensor({16, 64, 64}, 6);
    for (auto _ : state) {
        Tensor cols = im2col(img, 3, 3, 1, 1);
        benchmark::DoNotOptimize(cols.data());
    }
}
BENCHMARK(BM_Im2col);

void
BM_ScmMacChain16(benchmark::State &state)
{
    CircuitConfig cfg;
    AnalogChain chain = AnalogChain::nominal(cfg);
    chain.adc.configure(QBits(3.0), 0.3);
    Rng rng(7);
    std::vector<double> pixels(16);
    std::vector<ScmWeight> weights(16);
    for (int i = 0; i < 16; ++i) {
        pixels[static_cast<std::size_t>(i)] = rng.uniform(0.4, 1.4);
        weights[static_cast<std::size_t>(i)] =
            ScmWeight{rng.uniformInt(0, 15), rng.uniform() < 0.5};
    }
    for (auto _ : state) {
        const int code = chain.encode(pixels, weights, true, nullptr);
        benchmark::DoNotOptimize(code);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ScmMacChain16);

void
BM_ChipFrameEncode64(benchmark::State &state)
{
    ChipConfig cfg;
    cfg.rgbHeight = 64;
    cfg.rgbWidth = 64;
    cfg.monteCarlo = false;
    LecaSensorChip chip(cfg);
    Tensor w = randomTensor({4, 3, 2, 2}, 8);
    chip.loadKernels(flattenKernels(w, 1.0f));
    const Tensor scene = randomTensor({3, 64, 64}, 9);
    Tensor clipped = scene;
    for (std::size_t i = 0; i < clipped.numel(); ++i)
        clipped[i] = 0.5f + 0.4f * clipped[i];
    Rng rng(1);
    for (auto _ : state) {
        Tensor codes = chip.encodeFrame(clipped, PeMode::Ideal, rng,
                                        false);
        benchmark::DoNotOptimize(codes.data());
    }
}
BENCHMARK(BM_ChipFrameEncode64);

void
BM_GemmQ8_256x1024(benchmark::State &state)
{
    const std::int64_t m = 256, n = 256, k = 1024;
    const Tensor a = randomTensor({(int)m, (int)k}, 11);
    const Tensor b = randomTensor({(int)n, (int)k}, 12);
    const QuantTensor qa = quantizeRowMajor(a, m, k);
    QuantTensor qb = quantizeRowMajor(b, n, k);
    qb.pack();
    std::vector<float> c(static_cast<std::size_t>(m * n));
    for (auto _ : state) {
        gemmQ8(m, qa.q.data(), qa.scales.data(), qb, c.data(), n);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmQ8_256x1024);

void
BM_QuantizeRows(benchmark::State &state)
{
    const std::int64_t m = 256, cols = 1024;
    const Tensor src = randomTensor({(int)m, (int)cols}, 13);
    const std::int64_t nb = quantBlocks(cols);
    std::vector<std::int8_t> q(static_cast<std::size_t>(m * nb
                                                        * kQuantBlock));
    std::vector<float> scales(static_cast<std::size_t>(m * nb));
    for (auto _ : state) {
        quantizeRowsInto(src.data(), m, cols, q.data(), scales.data());
        benchmark::DoNotOptimize(q.data());
    }
    state.SetItemsProcessed(state.iterations() * m * cols);
}
BENCHMARK(BM_QuantizeRows);

void
BM_CsBlockReconstruction(benchmark::State &state)
{
    CompressiveSensing cs(4);
    Rng rng(10);
    float block[64];
    for (auto &v : block)
        v = static_cast<float>(rng.uniform());
    const auto y = cs.measureBlock(block);
    float recon[64];
    for (auto _ : state) {
        cs.reconstructBlock(y, recon);
        benchmark::DoNotOptimize(recon);
    }
}
BENCHMARK(BM_CsBlockReconstruction);

/**
 * Head-to-head timing of the blocked kernels against the retained
 * naive reference on the large-GEMM and conv shapes: prints a
 * GFLOP/s + speedup table and records both sides in the JSON report
 * (kernel-compare entries carry a "gflops" key).
 */
void
compareKernels(leca::bench::JsonReport &report)
{
    using leca::bench::timeWallMs;
    Table table({"kernel", "naive ms", "blocked ms", "naive GF/s",
                 "blocked GF/s", "speedup"});

    const auto row = [&](const std::string &name, double flops,
                         double naive_ms, double blocked_ms) {
        const double ngf = flops / naive_ms / 1e6;
        const double bgf = flops / blocked_ms / 1e6;
        table.addRow({name, Table::num(naive_ms, 3),
                      Table::num(blocked_ms, 3), Table::num(ngf, 2),
                      Table::num(bgf, 2),
                      Table::num(naive_ms / blocked_ms, 2) + "x"});
        report.add(name + "_naive", naive_ms, 0.0, ngf);
        report.add(name + "_blocked", blocked_ms, 0.0, bgf);
    };

    {
        const Tensor a = randomTensor({256, 256}, 1);
        const Tensor b = randomTensor({256, 256}, 2);
        Tensor c({256, 256});
        const double naive_ms = timeWallMs([&] {
            gemmReference(256, 256, 256, a.data(), 256, false, b.data(),
                          256, false, c.data(), 256, false);
            benchmark::DoNotOptimize(c.data());
        }, 20);
        const double blocked_ms = timeWallMs([&] {
            gemmBlocked(256, 256, 256, a.data(), 256, false, b.data(),
                        256, false, c.data(), 256, false);
            benchmark::DoNotOptimize(c.data());
        }, 20);
        row("gemm_256", 2.0 * 256 * 256 * 256, naive_ms, blocked_ms);
    }
    {
        const Tensor x = randomTensor({1, 16, 32, 32}, 3);
        const Tensor w = randomTensor({32, 16, 3, 3}, 4);
        const Tensor b = randomTensor({32}, 5);
        const double naive_ms = timeWallMs([&] {
            Tensor y = convNaive(x, w, b, 1, 1);
            benchmark::DoNotOptimize(y.data());
        }, 50);
        const double blocked_ms = timeWallMs([&] {
            Tensor y = conv2d(x, w, b, 1, 1);
            benchmark::DoNotOptimize(y.data());
        }, 50);
        // FLOPs = 2 * Cout * (Cin*K*K) * OH*OW.
        row("conv_16x32x32", 2.0 * 32 * (16 * 9) * 32 * 32, naive_ms,
            blocked_ms);
    }

    printBanner(std::cout, "blocked vs naive kernels (single GEMM call)");
    table.print(std::cout);
}

/**
 * Estimated core clock in GHz from a serially dependent integer
 * chain: one xorshift64 step is three shift->xor pairs, each pair two
 * dependent 1-cycle ALU ops, so an iteration costs 6 cycles of pure
 * latency on every x86-64 and AArch64 core this targets (the loop
 * branch hides under the chain). Gives the roofline a denominator
 * without reading MSRs. Turbo and frequency scaling make this an
 * estimate; set LECA_PEAK_GHZ to pin the nominal clock instead.
 */
double
estimateClockGhz()
{
    if (const char *env = std::getenv("LECA_PEAK_GHZ")) {
        const double pinned = std::atof(env);
        if (pinned > 0.0)
            return pinned;
    }
    constexpr std::int64_t iters = 1 << 25;
    constexpr double cycles_per_iter = 6.0;
    std::uint64_t x = 88172645463325252ULL;
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(x);
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    return cycles_per_iter * static_cast<double>(iters) / ns;
}

/**
 * int8 quantized kernels vs the fp32 blocked GEMM at the serving
 * shape, plus a roofline: measured GFLOP/s (fp32) and GOP/s (int8,
 * 2 ops per MAC) against the dispatched KernelSet's theoretical
 * per-cycle peak x estimated clock x worker threads.
 */
void
compareQuantKernels(leca::bench::JsonReport &report)
{
    using leca::bench::timeWallMs;
    const std::int64_t m = 256, n = 256, k = 1024;
    const double ops = 2.0 * static_cast<double>(m) * n * k;

    const Tensor a = randomTensor({(int)m, (int)k}, 11);
    const Tensor b = randomTensor({(int)n, (int)k}, 12);
    const QuantTensor qa = quantizeRowMajor(a, m, k);
    QuantTensor qb = quantizeRowMajor(b, n, k);
    qb.pack();
    std::vector<float> c(static_cast<std::size_t>(m * n));

    const double f32_ms = timeWallMs([&] {
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), k, true,
                    c.data(), n, false);
        benchmark::DoNotOptimize(c.data());
    }, 20);
    const double i8_ms = timeWallMs([&] {
        gemmQ8(m, qa.q.data(), qa.scales.data(), qb, c.data(), n);
        benchmark::DoNotOptimize(c.data());
    }, 20);
    const double f32_gfs = ops / f32_ms / 1e6;
    const double i8_gops = ops / i8_ms / 1e6;

    // Quantize / dequantize bandwidth: bytes read + bytes written.
    const std::int64_t nb = quantBlocks(k);
    std::vector<std::int8_t> q(static_cast<std::size_t>(m * nb
                                                        * kQuantBlock));
    std::vector<float> scales(static_cast<std::size_t>(m * nb));
    const double quant_bytes =
        static_cast<double>(m) * (4.0 * k + nb * (kQuantBlock + 4.0));
    const double quant_ms = timeWallMs([&] {
        quantizeRowsInto(a.data(), m, k, q.data(), scales.data());
        benchmark::DoNotOptimize(q.data());
    }, 50);
    Tensor back({(int)m, (int)k});
    const double dequant_ms = timeWallMs([&] {
        const Tensor t = dequantizeRowMajor(qa);
        benchmark::DoNotOptimize(t.data());
    }, 50);
    const double quant_gbps = quant_bytes / quant_ms / 1e6;
    const double dequant_gbps = quant_bytes / dequant_ms / 1e6;

    Table table({"kernel", "ms", "rate", "GB/s"});
    table.addRow({"gemm_f32_256x1024", Table::num(f32_ms, 3),
                  Table::num(f32_gfs, 2) + " GF/s", "-"});
    table.addRow({"gemm_q8_256x1024", Table::num(i8_ms, 3),
                  Table::num(i8_gops, 2) + " GOP/s", "-"});
    table.addRow({"quantize_rows", Table::num(quant_ms, 3), "-",
                  Table::num(quant_gbps, 2)});
    table.addRow({"dequantize_rows", Table::num(dequant_ms, 3), "-",
                  Table::num(dequant_gbps, 2)});
    printBanner(std::cout, "int8 quantized kernels (vs fp32 blocked)");
    table.print(std::cout);
    std::cout << "int8 GEMM speedup over fp32: "
              << Table::num(f32_ms / i8_ms, 2) << "x\n";

    report.add("gemm_f32_256x1024", f32_ms, 0.0, f32_gfs);
    report.add("gemm_q8_256x1024", i8_ms, 0.0, i8_gops);
    report.add("quantize_rows_256x1024", quant_ms, 0.0);
    report.add("dequantize_rows_256x1024", dequant_ms, 0.0);
    report.addValue("quantize_rows_gbps", quant_gbps);
    report.addValue("dequantize_rows_gbps", dequant_gbps);
    report.addValue("gemm_q8_speedup_vs_f32", f32_ms / i8_ms);

    // Roofline: the dispatched KernelSet advertises its per-core
    // per-cycle peak; scale by estimated clock and pool width. int8
    // peak is in ops (2 x MACs) to match the measured GOP/s.
    const KernelSet &ks = activeKernels();
    const double ghz = estimateClockGhz();
    const int threads = threadCount();
    const double f32_peak = ghz * ks.f32FlopsPerCycle * threads;
    const double i8_peak = ghz * 2.0 * ks.i8MacsPerCycle * threads;
    Table roof({"path", "measured", "peak", "% of peak"});
    roof.addRow({"fp32 (" + std::string(ks.name) + ")",
                 Table::num(f32_gfs, 2) + " GF/s",
                 Table::num(f32_peak, 2),
                 Table::num(100.0 * f32_gfs / f32_peak, 1)});
    roof.addRow({"int8 (" + std::string(ks.name) + ")",
                 Table::num(i8_gops, 2) + " GOP/s",
                 Table::num(i8_peak, 2),
                 Table::num(100.0 * i8_gops / i8_peak, 1)});
    printBanner(std::cout, "roofline (clock est. "
                               + Table::num(ghz, 2)
                               + " GHz, LECA_PEAK_GHZ overrides)");
    roof.print(std::cout);
    report.addValue("clock_ghz_est", ghz);
    report.addValue("roofline_f32_pct_peak", 100.0 * f32_gfs / f32_peak);
    report.addValue("roofline_i8_pct_peak", 100.0 * i8_gops / i8_peak);
}

/**
 * Per-layer-shape conv comparison at every Full-backbone conv shape
 * and the decoder's convs (the 48x48 serving geometry): the fp32 conv
 * (the direct conv where convUsesDirect takes the shape, else the
 * packed im2col GEMM) vs the resident int8 path (codes in, codes
 * out). The resident column times
 * convForwardResident with quantize-on-exit from an already-resident
 * input — the mid-chain steady state — so the two columns are the two
 * ways the serving pipeline could run that layer.
 */
void
compareConvPaths(leca::bench::JsonReport &report)
{
    using leca::bench::timeWallMs;

    struct Shape
    {
        const char *name;
        int cin, cout, k, stride, pad, hw;
    };
    // One row per distinct conv shape in the Full backbone at 48x48,
    // plus the F=64 decoder's convs: its 3->3 DnCNN taps, the 3->64
    // widening conv and the 64->3 head (576-wide patches against only
    // 3 output columns).
    const Shape shapes[] = {
        {"conv_3x48_c32", 3, 32, 3, 1, 1, 48},      // stem (narrow)
        {"conv_32x48_c32", 32, 32, 3, 1, 1, 48},    // rb1
        {"conv_32x48_c64_s2", 32, 64, 3, 2, 1, 48}, // rb2.conv1
        {"conv_64x24_c64", 64, 64, 3, 1, 1, 24},    // rb2.conv2 / rb3
        {"conv_64x24_c128_s2", 64, 128, 3, 2, 1, 24}, // rb4.conv1
        {"conv_128x12_c128", 128, 128, 3, 1, 1, 12},  // rb4.conv2
        {"conv_128x12_c128_s2", 128, 128, 3, 2, 1, 12}, // rb5.conv1
        {"conv_3x48_c3_dec", 3, 3, 3, 1, 1, 48},    // decoder DnCNN tap
        {"conv_3x48_c64_dec", 3, 64, 3, 1, 1, 48},  // decoder 3->F
        {"conv_64x48_c3_dec", 64, 3, 3, 1, 1, 48},  // decoder head
    };
    const int batch = 8; // the serving maxBatch
    const int reps = 6;

    Table table({"shape", "fp32 ms", "resident ms", "res/fp32"});
    for (const Shape &s : shapes) {
        const Tensor x = randomTensor({batch, s.cin, s.hw, s.hw}, 21);
        const Tensor w = randomTensor({s.cout, s.cin, s.k, s.k}, 22);
        const Tensor b = randomTensor({s.cout}, 23);
        const int oh = convOutSize(s.hw, s.k, s.stride, s.pad);
        const std::int64_t ohow = static_cast<std::int64_t>(oh) * oh;
        const double f32_ms = timeWallMs([&] {
            Tensor y = conv2d(x, w, b, s.stride, s.pad);
            benchmark::DoNotOptimize(y.data());
        }, reps);

        const QuantTensor wq = quantizeRowMajor(
            w, s.cout, static_cast<std::int64_t>(s.cin) * s.k * s.k);
        // Resident: codes in, codes out, bias epilogue fused.
        const QuantTensor wq_hwc =
            quantizeConvWeightsHwc(wq, s.cin, s.k, s.k);
        const std::int64_t in_rows =
            static_cast<std::int64_t>(batch) * s.hw * s.hw;
        const std::int64_t out_rows =
            static_cast<std::int64_t>(batch) * ohow;
        std::vector<std::int8_t> in_q(
            static_cast<std::size_t>(in_rows * quantPadded(s.cin)));
        std::vector<float> in_s(
            static_cast<std::size_t>(in_rows * quantBlocks(s.cin)));
        quantizeActivationNchw(x.data(), batch, s.cin, s.hw, s.hw,
                               in_q.data(), in_s.data());
        const QuantActivation act{batch, s.cin, s.hw, s.hw, in_q.data(),
                                  in_s.data()};
        std::vector<std::int8_t> o_q(
            static_cast<std::size_t>(out_rows * quantPadded(s.cout)));
        std::vector<float> o_s(
            static_cast<std::size_t>(out_rows * quantBlocks(s.cout)));
        std::vector<float> ea(static_cast<std::size_t>(s.cout), 1.0f);
        const ResidentEpilogue epi{ea.data(), b.data(), true};
        const double res_ms = timeWallMs([&] {
            convForwardResident(act, s.k, s.k, s.stride, s.pad, wq_hwc,
                                epi, o_q.data(), o_s.data(), nullptr,
                                nullptr);
            benchmark::DoNotOptimize(o_q.data());
        }, reps);

        table.addRow({s.name, Table::num(f32_ms, 3), Table::num(res_ms, 3),
                      Table::num(f32_ms / res_ms, 2) + "x"});
        report.add(std::string(s.name) + "_f32", f32_ms, 0.0);
        report.add(std::string(s.name) + "_resident_i8", res_ms, 0.0);
    }
    printBanner(std::cout,
                "conv paths per backbone shape (batch 8, serving geometry)");
    table.print(std::cout);
}

/**
 * Conv2d::backward at batch 32 on the train_proxy24 geometry: every
 * Proxy-backbone conv shape the frozen-backbone step runs plus the
 * decoder head, each with trainable parameters (dW, db and dX) and
 * frozen ones (dX only — the backbone's case in joint training). The
 * dX route (adjoint direct conv or GEMM + col2im) is the shape's own,
 * printed in the last column.
 */
void
compareConvBackward(leca::bench::JsonReport &report)
{
    struct Shape
    {
        const char *name;
        int cin, cout, hw;
        bool bias;
    };
    const Shape shapes[] = {
        {"convbwd_3x24_c16", 3, 16, 24, false},  // Proxy stem
        {"convbwd_16x24_c16", 16, 16, 24, false}, // rb1
        {"convbwd_32x12_c32", 32, 32, 12, false}, // rb2.conv2
        {"convbwd_64x6_c64", 64, 64, 6, false},  // rb3.conv2
        {"convbwd_16x24_c3_dec", 16, 3, 24, true}, // decoder head
    };
    const int batch = 32;
    const int reps = 6;

    Table table({"shape", "trainable ms", "frozen ms", "frozen/train",
                 "dX route"});
    for (const Shape &s : shapes) {
        Rng rng(31);
        Conv2d conv(s.cin, s.cout, 3, 1, 1, s.bias, rng);
        const Tensor x = randomTensor({batch, s.cin, s.hw, s.hw}, 32);
        const Tensor dy = randomTensor({batch, s.cout, s.hw, s.hw}, 33);
        // Mean backward wall time over reps after one warm-up; each
        // backward needs its own Train forward, which is not timed.
        const auto time = [&](bool frozen) {
            conv.freeze(frozen);
            double total_ms = 0.0;
            for (int r = 0; r <= reps; ++r) {
                conv.forward(x, Mode::Train);
                const auto t0 = std::chrono::steady_clock::now();
                Tensor dx = conv.backward(dy);
                benchmark::DoNotOptimize(dx.data());
                const auto t1 = std::chrono::steady_clock::now();
                if (r > 0)
                    total_ms += std::chrono::duration<double, std::milli>(
                                    t1 - t0)
                                    .count();
            }
            return total_ms / reps;
        };
        const double train_ms = time(false);
        const double frozen_ms = time(true);
        table.addRow({s.name, Table::num(train_ms, 3),
                      Table::num(frozen_ms, 3),
                      Table::num(frozen_ms / train_ms, 2),
                      conv.adjointDx(s.hw) ? "adjoint" : "gemm+col2im"});
        report.add(std::string(s.name) + "_trainable", train_ms, 0.0);
        report.add(std::string(s.name) + "_frozen", frozen_ms, 0.0);
    }
    printBanner(std::cout, "Conv2d::backward per Proxy/decoder shape "
                           "(batch 32, train_proxy24 geometry)");
    table.print(std::cout);
}

/** Mean wall time of @p fn over @p reps calls after one warm-up, each
 *  preceded by an untimed @p setup (e.g. the Train forward a backward
 *  needs). */
template <typename Setup, typename Fn>
double
timeAfterSetup(int reps, const Setup &setup, const Fn &fn)
{
    double total_ms = 0.0;
    for (int r = 0; r <= reps; ++r) {
        setup();
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        if (r > 0)
            total_ms +=
                std::chrono::duration<double, std::milli>(t1 - t0).count();
    }
    return total_ms / reps;
}

/**
 * The train step's elementwise and encoder-gradient passes at the
 * train_proxy24 geometry (batch 32, 24×24): Train-mode BatchNorm2d→Relu
 * as the folded pass Sequential runs, next to the two separate layers,
 * and the encoder's lane-dense dW (convWeightGradBatch, 3→8 channels,
 * k = stride = 2) at 24×24 and 48×48.
 */
void
compareTrainPasses(leca::bench::JsonReport &report)
{
    const int reps = 10;
    Table table({"pass", "folded ms", "separate ms"});
    {
        const Tensor x = randomTensor({32, 16, 24, 24}, 41);
        const Tensor g = randomTensor({32, 16, 24, 24}, 42);
        Sequential folded;
        folded.emplace<BatchNorm2d>(16);
        folded.emplace<Relu>();
        BatchNorm2d bn(16);
        Relu relu;
        const double fwd = timeAfterSetup(reps, [] {}, [&] {
            Tensor y = folded.forward(x, Mode::Train);
            benchmark::DoNotOptimize(y.data());
        });
        const double bwd = timeAfterSetup(
            reps, [&] { folded.forward(x, Mode::Train); },
            [&] {
                Tensor dx = folded.backward(g);
                benchmark::DoNotOptimize(dx.data());
            });
        const double sep_fwd = timeAfterSetup(reps, [] {}, [&] {
            Tensor y = relu.forward(bn.forward(x, Mode::Train), Mode::Train);
            benchmark::DoNotOptimize(y.data());
        });
        const double sep_bwd = timeAfterSetup(
            reps,
            [&] { relu.forward(bn.forward(x, Mode::Train), Mode::Train); },
            [&] {
                Tensor dx = bn.backward(relu.backward(g));
                benchmark::DoNotOptimize(dx.data());
            });
        table.addRow({"bn+relu train fwd 32x16x24", Table::num(fwd, 3),
                      Table::num(sep_fwd, 3)});
        table.addRow({"bn+relu train bwd 32x16x24", Table::num(bwd, 3),
                      Table::num(sep_bwd, 3)});
        report.add("bnrelu_train_fwd_32x16x24", fwd, 0.0);
        report.add("bnrelu_train_bwd_32x16x24", bwd, 0.0);
    }
    for (const int hw : {24, 48}) {
        const Tensor x = randomTensor({32, 3, hw, hw}, 43);
        const Tensor dy = randomTensor({32, 8, hw / 2, hw / 2}, 44);
        std::vector<float> dw(8 * 3 * 2 * 2, 0.0f);
        const double ms = timeAfterSetup(reps, [] {}, [&] {
            convWeightGradBatch(x.data(), 32, 3, hw, hw, 2, 2, 0, dy.data(),
                                8, dw.data(), nullptr);
            benchmark::DoNotOptimize(dw.data());
        });
        const std::string name = "encoder_dw_32x3x" + std::to_string(hw);
        table.addRow({name, Table::num(ms, 3), "-"});
        report.add(name, ms, 0.0);
    }
    printBanner(std::cout, "Train-step passes (batch 32, folded BN+ReLU vs "
                           "separate layers; encoder dW)");
    table.print(std::cout);
}

/**
 * End-to-end training-path throughput: full trainClassifier calls
 * (gather + augment + forward + backward + Adam + batch-norm refresh)
 * on a small SyntheticVision problem shaped like the fig10/fig11
 * training workloads, reported as images/sec over the epoch loop.
 */
void
reportTrainEpoch(leca::bench::JsonReport &report)
{
    using leca::bench::timeWallMs;
    SyntheticVision::Config cfg;
    cfg.resolution = 32;
    cfg.numClasses = 4;
    cfg.seed = 42;
    SyntheticVision gen(cfg);
    const Dataset train = gen.generate(192, 1);
    const Dataset val; // empty: time the training path, not the eval tail

    constexpr int kEpochs = 2;
    const auto run = [&](bool augment) {
        TrainOptions options;
        options.epochs = kEpochs;
        options.batchSize = 16;
        options.learningRate = 1e-3;
        options.augment = augment;
        options.seed = 7;
        Rng rng(11);
        auto net = makeBackbone(BackboneStyle::Proxy, 3, 4, rng);
        trainClassifier(*net, train, val, options);
    };
    const double images = static_cast<double>(kEpochs) * train.count();
    const double ms = timeWallMs([&] { run(false); }, 2);
    report.add("train_epoch_proxy32", ms, images * 1000.0 / ms);
    const double aug_ms = timeWallMs([&] { run(true); }, 2);
    report.add("train_epoch_proxy32_aug", aug_ms,
               images * 1000.0 / aug_ms);
    std::cout << "train_epoch_proxy32: "
              << Table::num(images * 1000.0 / ms, 1)
              << " images/s (augmented: "
              << Table::num(images * 1000.0 / aug_ms, 1) << ")\n";
}

/** Wall-clock timing of the key kernels for the JSON report. */
void
reportJson(leca::bench::JsonReport &report)
{
    using leca::bench::timeWallMs;
    {
        const Tensor a = randomTensor({256, 256}, 1);
        const Tensor b = randomTensor({256, 256}, 2);
        const double ms = timeWallMs([&] {
            Tensor c = matmul(a, b);
            benchmark::DoNotOptimize(c.data());
        }, 20);
        report.add("matmul_256", ms, 1000.0 / ms,
                   2.0 * 256 * 256 * 256 / ms / 1e6);
    }
    {
        const Tensor x = randomTensor({8, 16, 32, 32}, 3);
        const Tensor w = randomTensor({32, 16, 3, 3}, 4);
        const Tensor b = randomTensor({32}, 5);
        const double ms = timeWallMs([&] {
            Tensor y = conv2d(x, w, b, 1, 1);
            benchmark::DoNotOptimize(y.data());
        }, 20);
        report.add("conv2d_batch8", ms, 8.0 * 1000.0 / ms,
                   8.0 * 2.0 * 32 * (16 * 9) * 32 * 32 / ms / 1e6);
    }
    {
        ChipConfig cfg;
        cfg.rgbHeight = 64;
        cfg.rgbWidth = 64;
        cfg.monteCarlo = false;
        LecaSensorChip chip(cfg);
        Tensor w = randomTensor({4, 3, 2, 2}, 8);
        chip.loadKernels(flattenKernels(w, 1.0f));
        Tensor scene = randomTensor({3, 64, 64}, 9);
        for (std::size_t i = 0; i < scene.numel(); ++i)
            scene[i] = 0.5f + 0.4f * scene[i];
        Rng rng(1);
        const double ms = timeWallMs([&] {
            Tensor codes =
                chip.encodeFrame(scene, PeMode::Ideal, rng, false);
            benchmark::DoNotOptimize(codes.data());
        }, 5);
        report.add("chip_frame_encode_64", ms, 1000.0 / ms);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    leca::bench::JsonReport report(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    compareKernels(report);
    compareQuantKernels(report);
    compareConvPaths(report);
    compareConvBackward(report);
    compareTrainPasses(report);
    if (report.enabled()) {
        reportJson(report);
        reportTrainEpoch(report);
    }
    return 0;
}
