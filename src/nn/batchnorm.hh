/**
 * @file
 * Batch normalisation over the channel dimension of [N,C,H,W] tensors
 * (used by the backbone residual blocks and the LeCA decoder head,
 * Table 2).
 */

#ifndef LECA_NN_BATCHNORM_HH
#define LECA_NN_BATCHNORM_HH

#include "nn/layer.hh"

namespace leca {

class Relu;

/**
 * BatchNorm2d with learnable affine (gamma, beta) and running statistics
 * for evaluation mode. In Train mode each channel's two double sums run
 * serially in (image, pixel) order — the chains of up to 8 channels are
 * interleaved in one loop, which hides the add latency without
 * reordering any chain — so the statistics are bit-identical at every
 * thread count.
 */
class BatchNorm2d : public Layer
{
  public:
    explicit BatchNorm2d(int channels, float momentum = 0.1f,
                         float eps = 1e-5f);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;

    /**
     * Train forward with the following @p relu folded in (Sequential
     * does this for every BatchNorm2d→Relu pair in Train mode): one
     * pass writes x̂ and the rectified output and records relu's mask.
     * Bitwise forward(x, Train) followed by relu.forward(·, Train).
     */
    Tensor forwardRelu(const Tensor &x, Relu &relu);

    /**
     * Backward of forwardRelu: relu's mask is applied inside the sums
     * and the dx pass. Bitwise relu.backward() followed by backward().
     */
    Tensor backwardRelu(const Tensor &grad_out, Relu &relu);

    std::vector<Param *> params() override { return {&_gamma, &_beta}; }
    std::vector<Tensor *> state() override
    {
        return {&_runningMean, &_runningVar};
    }

    void setStatsRefresh(bool enable) override;

    const Tensor &runningMean() const { return _runningMean; }
    const Tensor &runningVar() const { return _runningVar; }

    /**
     * The eval-mode normalisation as one per-channel affine y = a·x + b
     * with a = gamma/sqrt(var+eps), b = beta − a·mean — the form the
     * resident conv epilogue fuses (DESIGN.md §13). Algebraically equal
     * to the eval forward; the fused form is what the quantized plan
     * pins as ITS deterministic reference. @p a and @p b hold
     * channels() floats.
     */
    void evalAffineInto(float *a, float *b) const;

    int channels() const { return _channels; }

  private:
    Tensor forwardTrain(const Tensor &x, unsigned char *mask);
    Tensor backwardMasked(const Tensor &grad_out, const unsigned char *mask);

    int _channels;
    float _momentum;
    float _eps;
    Param _gamma;
    Param _beta;
    Tensor _runningMean;
    Tensor _runningVar;
    bool _refresh = false;
    long _refreshCount = 0;

    // Forward cache (training mode).
    Tensor _xhat;
    std::vector<float> _batchStd; // per-channel sqrt(var + eps)
};

} // namespace leca

#endif // LECA_NN_BATCHNORM_HH
