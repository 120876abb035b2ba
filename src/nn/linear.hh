/**
 * @file
 * Fully-connected layer (classifier head of the backbone networks).
 */

#ifndef LECA_NN_LINEAR_HH
#define LECA_NN_LINEAR_HH

#include "nn/layer.hh"
#include "tensor/quant.hh"
#include "util/rng.hh"

namespace leca {

/** y = x W^T + b with x [N, in], W [out, in], b [out]. */
class Linear : public Layer
{
  public:
    Linear(int in_features, int out_features, Rng &rng);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override { return {&_weight, &_bias}; }
    void quantizeWeights(std::vector<QuantStat> &stats) override;
    std::vector<QuantTensor *> quantTensors() override { return {&_qweight}; }

    Param &weight() { return _weight; }
    Param &bias() { return _bias; }
    bool quantized() const { return !_qweight.empty(); }

    /**
     * (Re)build the packed GEMM layout of the int8 weights. Done by
     * quantizeWeights(); quantized-checkpoint restores replace the
     * codes without it, so the owning Sequential's planQuantized()
     * calls this again.
     */
    void preparePacked();

  private:
    int _in, _out;
    Param _weight;
    Param _bias;
    QuantTensor _qweight; //!< int8 weights; empty until quantizeWeights
    Tensor _input;
};

} // namespace leca

#endif // LECA_NN_LINEAR_HH
