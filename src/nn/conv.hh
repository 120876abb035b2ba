/**
 * @file
 * 2-D convolution layer with hand-derived backward pass.
 */

#ifndef LECA_NN_CONV_HH
#define LECA_NN_CONV_HH

#include <array>
#include <vector>

#include "nn/layer.hh"
#include "tensor/kernels.hh"
#include "tensor/quant.hh"
#include "util/rng.hh"

namespace leca {

/**
 * Standard 2-D convolution: weight [Cout, Cin, K, K], optional bias.
 *
 * Forward runs convForwardBatch — the direct conv for the shapes
 * convUsesDirect takes, else each image's im2col packed straight into
 * arena scratch (no column matrix is ever materialised), with the
 * weights packed once per call. Backward (DESIGN.md §9):
 *  - [dW | db] per image as one GEMM with dY as the A operand and the
 *    image's patches packed into lane-dense B panels, bias as a ones
 *    column (convWeightGradBatch) — skipped entirely when the weight
 *    and bias are frozen, whose grads then stay untouched (and whose
 *    Train forward then caches only the input's dims, not a copy);
 *  - dX as one direct conv over dY with the rotated, channel-transposed
 *    weights when adjointDx() holds, else col2im of W^T * dY with W^T
 *    packed once per call (convBackwardDataBatch).
 * All scratch and gradient partials live in the thread-local Arena.
 */
class Conv2d : public Layer
{
  public:
    /**
     * @param cin     input channels
     * @param cout    output channels
     * @param k       square kernel extent
     * @param stride  stride (LeCA encoder uses stride == k)
     * @param pad     symmetric zero padding
     * @param bias    whether to learn a bias term
     * @param rng     initialisation stream (Kaiming)
     */
    Conv2d(int cin, int cout, int k, int stride, int pad, bool bias,
           Rng &rng);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override;
    void quantizeWeights(std::vector<QuantStat> &stats) override;
    std::vector<QuantTensor *> quantTensors() override { return {&_qweight}; }

    Param &weight() { return _weight; }
    Param &bias() { return _bias; }
    bool hasBias() const { return _hasBias; }
    int stride() const { return _stride; }
    int pad() const { return _pad; }
    int kernel() const { return _k; }
    int cin() const { return _cin; }
    int cout() const { return _cout; }
    bool quantized() const { return !_qweight.empty(); }

    /**
     * Whether backward computes dX for an input of width @p w as the
     * adjoint direct conv: stride 1, pad < k, and convUsesDirect
     * taking the adjoint shape (cout -> cin at width w). Its contract:
     * each dX element is one ascending (co, ky, kx) chain over the
     * 180°-rotated weights, like the forward direct conv — not the
     * (co)-then-col2im order of W^T * dY.
     */
    bool adjointDx(int w) const;

    /**
     * The HWC-laid resident weight layout (empty until
     * prepareResident). Consumed by convForwardResident.
     */
    const QuantTensor &qweightHwc() const { return _qweightHwc; }

    /**
     * (Re)build the HWC resident layout from the CHW int8 CODES — not
     * from the fp32 weights — so quantize() and loadQuantized() yield
     * identical resident inference (DESIGN.md §13). Called at plan
     * time; always rebuilds, so a checkpoint restored over already-
     * quantized weights can never leave a stale layout behind.
     */
    void prepareResident();

    /**
     * Cache the fp32 weight copy dequantized from the stored CODES that
     * a quantized conv outside the resident path runs through the fp32
     * packed conv (DESIGN.md §13). For narrow inputs (cin <
     * kResidentMinCin) the int8 block padding inflates every patch dot
     * to quantPadded(cin)/cin times its real MACs, so evaluating the
     * same quantized weight VALUES through the fp32 conv is faster and
     * changes nothing the codes don't already carry. Deriving the copy
     * from the codes keeps quantize() and loadQuantized() pipelines
     * bit-identical. Called at plan time; always rebuilds (restore-
     * over-quantized safety). Without it, forward() dequantizes the
     * codes per call.
     */
    void preparePlainFp32();

    /**
     * Eval forward of a planned quantized conv with its folded
     * epilogue: the fp32 conv over the preparePlainFp32 weights with
     * no separate bias pass — the caller folds the bias into @p epi,
     * together with a trailing eval-mode BatchNorm and/or ReLU (the
     * planner's ConvFp32 step, DESIGN.md §13). The direct conv applies
     * @p epi in its kernel.
     */
    Tensor forwardFused(const Tensor &x, const ConvEpilogue &epi);

  private:
    int _cin, _cout, _k, _stride, _pad;
    bool _hasBias;
    Param _weight;
    Param _bias;
    QuantTensor _qweight; //!< int8 weights; empty until quantizeWeights
    QuantTensor _qweightHwc; //!< resident layout; see prepareResident
    Tensor _dqweight; //!< fp32 execution copy; see preparePlainFp32

    /** Whether backward computes a gradient (dW or db) at all. */
    bool trainsParams() const
    {
        return !_weight.frozen || (_hasBias && !_bias.frozen);
    }

    // Forward cache: the input's (n, h, w), n = 0 when none is cached,
    // and the input itself when trainsParams() (K*K smaller than the
    // column matrices the backward pass recomputes from it).
    std::array<int, 3> _inDims{};
    Tensor _input;
};

} // namespace leca

#endif // LECA_NN_CONV_HH
