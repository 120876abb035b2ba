#include "sensor_chip.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sensor/bayer.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

LecaSensorChip::LecaSensorChip(const ChipConfig &config)
    : _config(config),
      _pixelArray(config.sensor, 2 * config.rgbHeight, 2 * config.rgbWidth)
{
    LECA_CHECK(config.rgbHeight % 2 == 0 && config.rgbWidth % 2 == 0,
                "RGB frame extents must be even");
    const int pe_count = (2 * config.rgbWidth) / 4;
    _pes.reserve(static_cast<std::size_t>(pe_count));
    Rng mc(config.mcSeed);
    for (int i = 0; i < pe_count; ++i) {
        if (config.monteCarlo) {
            _pes.emplace_back(config.circuit, mc);
        } else {
            _pes.emplace_back(config.circuit);
        }
        _pes.back().configureAdc(config.qbits, config.adcFullScale);
    }
}

void
LecaSensorChip::loadKernels(std::vector<FlatKernel> kernels)
{
    LECA_CHECK(!kernels.empty(), "need at least one kernel");
    _kernels = std::move(kernels);
    // Programming the encoder writes Nch x 16 x 5 bits of global SRAM.
    _chipStats.globalSramWriteBits +=
        static_cast<std::int64_t>(_kernels.size()) * 16 * 5;
}

Tensor
LecaSensorChip::encodeFrame(const Tensor &rgb_scene, PeMode mode, Rng &rng,
                            bool sensor_noise)
{
    LECA_CHECK(!_kernels.empty(), "kernels not programmed");
    LECA_CHECK(rgb_scene.dim() == 3 && rgb_scene.size(0) == 3 &&
                rgb_scene.size(1) == _config.rgbHeight &&
                rgb_scene.size(2) == _config.rgbWidth,
                "scene shape mismatch");

    const Tensor raw = mosaic(rgb_scene);
    _pixelArray.expose(raw, rng, sensor_noise);

    const int raw_rows = _pixelArray.rows();
    const int raw_cols = _pixelArray.cols();
    const int of_h = raw_rows / 4;
    const int of_w = raw_cols / 4;
    const int nch = static_cast<int>(_kernels.size());
    const int passes = (nch + 3) / 4;

    Tensor ofmap({nch, of_h, of_w});
    Rng *noise_rng = mode == PeMode::RealNoisy ? &rng : nullptr;

    const int pe_count = static_cast<int>(_pes.size());
    // Every band row's voltages, read once up front so the per-PE sweep
    // below has no shared readout state. The modelled chip reads a
    // band's four rows once per pass, and the stats count it so.
    std::vector<std::vector<double>> voltages(
        static_cast<std::size_t>(of_h) * 4);
    for (int r = 0; r < of_h * 4; ++r)
        voltages[static_cast<std::size_t>(r)] =
            _pixelArray.readRowVoltages(r);
    _chipStats.pixelReads +=
        static_cast<std::int64_t>(of_h) * passes * 4 * raw_cols;
    // One noise stream per (band, pass, PE), forked serially in that
    // order before the parallel region: the stream a PE consumes
    // depends only on its position, keeping noisy captures
    // bit-identical for every thread count.
    std::vector<Rng> pe_rngs;
    if (noise_rng) {
        pe_rngs.reserve(static_cast<std::size_t>(of_h) * passes * pe_count);
        for (int unit = 0; unit < of_h * passes; ++unit)
            for (Rng &stream : Rng::split(
                     *noise_rng, static_cast<std::size_t>(pe_count)))
                pe_rngs.push_back(std::move(stream));
    }
    // One parallel region per frame: each PE sweeps its own columns
    // through every band and pass, in the serial (band, pass) order.
    parallelFor(0, pe_count, 1, [&](std::int64_t p0, std::int64_t p1) {
        for (int p = static_cast<int>(p0); p < p1; ++p) {
            Pe &pe = _pes[static_cast<std::size_t>(p)];
            for (int band = 0; band < of_h; ++band) {
                for (int pass = 0; pass < passes; ++pass) {
                    const int kernel_base = pass * 4;
                    const int kernel_count = std::min(4, nch - kernel_base);
                    Rng *pe_rng =
                        noise_rng ? &pe_rngs[(static_cast<std::size_t>(band)
                                                  * passes
                                              + pass)
                                                 * pe_count
                                             + p]
                                  : nullptr;
                    pe.startBlock();
                    for (int r = 0; r < 4; ++r) {
                        const auto &row = voltages[static_cast<std::size_t>(
                            band * 4 + r)];
                        pe.loadWeights(_kernels, kernel_base, kernel_count,
                                       r);
                        pe.loadRow({row[static_cast<std::size_t>(4 * p)],
                                    row[static_cast<std::size_t>(4 * p + 1)],
                                    row[static_cast<std::size_t>(4 * p + 2)],
                                    row[static_cast<std::size_t>(4 * p + 3)]});
                        pe.processRow(kernel_count, mode, pe_rng);
                    }
                    const auto codes =
                        pe.readOfmap(kernel_count, mode, pe_rng);
                    for (int k = 0; k < kernel_count; ++k)
                        ofmap.at(kernel_base + k, band, p) =
                            static_cast<float>(
                                codes[static_cast<std::size_t>(k)]);
                }
            }
        }
    });

    // Quantized ofmap goes through the global SRAM and off-chip.
    const double bits = _config.qbits.bits();
    const auto ofmap_bits = static_cast<std::int64_t>(
        std::llround(static_cast<double>(ofmap.numel()) * bits));
    _chipStats.globalSramWriteBits += ofmap_bits;
    _chipStats.globalSramReadBits += ofmap_bits;
    _chipStats.outputLinkBits += ofmap_bits;
    return ofmap;
}

Tensor
LecaSensorChip::normalModeCapture(const Tensor &rgb_scene, Rng &rng,
                                  bool sensor_noise)
{
    const Tensor raw = mosaic(rgb_scene);
    _pixelArray.expose(raw, rng, sensor_noise);
    const int rows = _pixelArray.rows(), cols = _pixelArray.cols();
    Tensor out({rows, cols});
    const SensorConfig &sc = _config.sensor;
    parallelFor(0, rows, 1, [&](std::int64_t r0, std::int64_t r1) {
        for (int r = static_cast<int>(r0); r < r1; ++r) {
            const auto voltages = _pixelArray.readRowVoltages(r);
            for (int c = 0; c < cols; ++c) {
                const int code = quantizeCode(
                    static_cast<float>(sc.voltageToDigital(
                        voltages[static_cast<std::size_t>(c)])),
                    0.0f, 1.0f, 256);
                out.at(r, c) = static_cast<float>(code) / 255.0f;
            }
        }
    });
    _chipStats.pixelReads += static_cast<std::int64_t>(rows) * cols;
    // All pixels digitized at 8 bits, stored, and streamed out.
    const std::int64_t pixels = static_cast<std::int64_t>(rows) * cols;
    _chipStats.adcConversions[8.0] += pixels;
    _chipStats.globalSramWriteBits += pixels * 8;
    _chipStats.globalSramReadBits += pixels * 8;
    _chipStats.outputLinkBits += pixels * 8;
    return out;
}

Tensor
LecaSensorChip::codesToFeatures(const Tensor &codes) const
{
    const int levels = _config.qbits.levels();
    Tensor features(codes.shape());
    for (std::size_t i = 0; i < codes.numel(); ++i) {
        features[i] = 2.0f * codes[i] / static_cast<float>(levels - 1)
                      - 1.0f;
    }
    return features;
}

ChipStats
LecaSensorChip::stats() const
{
    ChipStats total = _chipStats;
    for (const auto &pe : _pes)
        total += pe.stats();
    return total;
}

void
LecaSensorChip::resetStats()
{
    _chipStats = ChipStats{};
    for (auto &pe : _pes)
        pe.resetStats();
}

} // namespace leca
