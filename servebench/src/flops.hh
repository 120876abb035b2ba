/**
 * @file
 * Computed (not measured) work per pipeline stage: multiply-accumulates
 * from the layers' weight shapes times the output pixels they are
 * applied at, and the bytes a stage must at least touch (its weights at
 * the serving precision plus its fp32 input and output activations).
 * Turned into GMAC/s with a measured span time, and into a share of the
 * host's roofline, estimated the way bench/micro_ops does it.
 */

#ifndef SERVEBENCH_FLOPS_HH
#define SERVEBENCH_FLOPS_HH

namespace leca {
class LecaPipeline;
} // namespace leca

namespace servebench {

/** Computed work of one stage for one frame. */
struct StageWork
{
    double macs = 0.0;
    double bytes = 0.0;
};

/** Computed work of the three pipeline stages for one frame. */
struct PipelineWork
{
    StageWork encoder;
    StageWork decoder;
    StageWork backbone;

    double totalMacs() const
    {
        return encoder.macs + decoder.macs + backbone.macs;
    }
};

/**
 * Walk @p pipeline's layer shapes for one @p hw x @p hw RGB frame.
 * @p weight_bytes is the stored size of one weight (1 for int8, 4 for
 * fp32).
 */
PipelineWork pipelineWork(leca::LecaPipeline &pipeline, int hw,
                          double weight_bytes);

/**
 * Estimated peak GMAC/s of the dispatched kernels on threadCount()
 * cores: per-cycle peak from activeKernels() times a clock estimated
 * from a serially dependent integer chain (LECA_PEAK_GHZ overrides).
 */
double peakGmacPerSecond(bool int8);

} // namespace servebench

#endif // SERVEBENCH_FLOPS_HH
