/**
 * @file
 * Container layers: Sequential composition and residual blocks
 * (the backbone networks are ResNet-style stacks of these).
 */

#ifndef LECA_NN_SEQUENTIAL_HH
#define LECA_NN_SEQUENTIAL_HH

#include <memory>
#include <vector>

#include "nn/activation.hh"
#include "nn/layer.hh"
#include "util/rng.hh"

namespace leca {

class Conv2d;
class BatchNorm2d;
struct QuantActivation;

/**
 * Smallest input-channel count for which a quantized conv consumes
 * resident int8 codes (DESIGN.md §13). The planner runs a quantized
 * conv resident only when cin >= kResidentMinCin AND cout >=
 * simd::kPackedQ8Cols (16, one packed int8 weight tile):
 *  - below the cin bound (the 3-channel backbone stem, the decoder's
 *    DnCNN taps) block padding inflates the patch MACs to
 *    quantPadded(cin)/cin times the real ones;
 *  - below the cout bound (the decoder's 64->3 head) the int8 GEMM
 *    fills only cout of the tile's 16 lanes.
 * Either way the conv runs in fp32 over the weights dequantized from
 * its codes (Conv2d::preparePlainFp32) — the direct conv for the
 * decoder and the stem (convUsesDirect) — with a trailing BatchNorm
 * and/or ReLU folded into its epilogue (QuantStep::Kind::ConvFp32)
 * unless they feed a resident consumer (QuantStep::Kind::FusedEntry).
 */
inline constexpr int kResidentMinCin = 16;

/**
 * One step of a Sequential's quantized execution plan, decided once at
 * quantize()/loadQuantized() time — never per forward (DESIGN.md §13).
 * ConvResident and ConvFp32 fold a following BatchNorm2d (eval affine)
 * and Relu into the conv epilogue; Residual delegates to
 * ResidualBlock::forwardResident; the pool kinds pool straight over
 * resident codes; Plain runs the layer's normal forward on fp32.
 * emitQuant: leave the step's output resident for the next step.
 */
struct QuantStep
{
    enum class Kind
    {
        Plain,
        ConvResident,
        Residual,
        PoolMax,
        PoolAvg,
        Gap,
        /** Fp32 producer -> resident consumer boundary with the
         *  intervening BatchNorm/ReLU fused into the entry quantize
         *  (one pass over the planes instead of three). */
        FusedEntry,
        /** Plain quantized conv with its bias and a trailing BatchNorm
         *  and/or ReLU folded into the fp32 conv's epilogue (fused into
         *  the direct conv); fp32 in, fp32 out. Formed only when it
         *  folds something and no resident consumer follows. */
        ConvFp32
    };
    Kind kind = Kind::Plain;
    Layer *layer = nullptr;    //!< Plain/Residual/pool target
    Conv2d *conv = nullptr;    //!< ConvResident / ConvFp32 only
    BatchNorm2d *bn = nullptr; //!< folded into the epilogue (may be null)
    bool relu = false;         //!< folded trailing ReLU
    bool emitQuant = false;    //!< output stays resident int8
    int poolK = 0;             //!< PoolMax/PoolAvg kernel
};

/**
 * Runs child layers in order; backward runs them in reverse. The input
 * goes to the first child as is (no copy). In Train mode a BatchNorm2d
 * followed by a Relu runs as one folded pass each way
 * (BatchNorm2d::forwardRelu / backwardRelu), bitwise the separate
 * layers.
 */
class Sequential : public Layer
{
  public:
    Sequential() = default;

    /** Append a child layer; returns *this for chaining. */
    Sequential &add(LayerPtr layer);

    /** Emplace-construct a child layer. */
    template <typename L, typename... Args>
    L &
    emplace(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L &ref = *layer;
        _layers.push_back(std::move(layer));
        return ref;
    }

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override;
    std::vector<Tensor *> state() override;
    void setStatsRefresh(bool enable) override;
    void quantizeWeights(std::vector<QuantStat> &stats) override;
    std::vector<QuantTensor *> quantTensors() override;

    std::size_t size() const { return _layers.size(); }
    Layer &at(std::size_t i) { return *_layers[i]; }

    /**
     * (Re)build the quantized execution plan: classify every child as a
     * resident step or a plain one, fold conv→BN→ReLU runs, prepare the
     * HWC weight layouts, and decide the precision boundaries (which
     * steps hand codes to the next). Called automatically at the end of
     * quantizeWeights(); call explicitly after loadQuantized-style
     * restores where quantizeWeights never runs. With no resident-
     * capable child the plan stays empty and forward() is unchanged.
     */
    void planQuantized();

    bool hasQuantPlan() const { return !_plan.empty(); }
    const std::vector<QuantStep> &quantPlan() const { return _plan; }

  private:
    Tensor forwardPlanned(const Tensor &x);

    /** The BatchNorm2d at @p i when a Relu follows it, else null. */
    BatchNorm2d *bnBeforeRelu(std::size_t i) const;

    std::vector<LayerPtr> _layers;
    std::vector<QuantStep> _plan; //!< empty until planQuantized
};

/**
 * ResNet basic block: conv-bn-relu-conv-bn + skip, final relu.
 * When the channel count or stride changes, the skip path uses a
 * 1x1 strided projection (conv + bn), as in He et al.
 */
class ResidualBlock : public Layer
{
  public:
    ResidualBlock(int cin, int cout, int stride, Rng &rng);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override;
    std::vector<Tensor *> state() override;
    void setStatsRefresh(bool enable) override;
    void quantizeWeights(std::vector<QuantStat> &stats) override;
    std::vector<QuantTensor *> quantTensors() override;

    /**
     * Prepare the block's quantized execution (DESIGN.md §13): re-plans
     * the child Sequentials (which builds the convs' packed HWC layouts
     * or fp32 copies) and checks every conv is quantized and wide
     * enough (kResidentMinCin in, kPackedQ8Cols out) to run resident.
     * Returns whether the block will run resident; idempotent, called
     * from the owning Sequential's planQuantized().
     */
    bool planResident();
    bool resident() const { return _resident; }

    int outChannels() const;
    void outShape(int h, int w, int &oh, int &ow) const;

    /**
     * Resident Eval forward: conv1(+bn1+relu) emits a resident
     * activation; conv2(+bn2) and the projection emit fp32 pixel-major
     * rows; skip-add + final ReLU run per pixel row, which then exits
     * either requantized (@p out_q/@p out_s, resident semantics) or as
     * fp32 NCHW planes (@p out_planes). Exactly one exit may be given.
     * The identity skip is the exact dequantization of the resident
     * input — the value the quantized chain actually carries.
     */
    void forwardResident(const QuantActivation &in, std::int8_t *out_q,
                         float *out_s, float *out_planes);

  private:
    Sequential _main;
    Sequential _proj;  // empty when identity skip
    bool _hasProj;
    Relu _finalRelu; //!< folded with the skip add (Relu::forwardAdd)

    // Raw child pointers captured at construction (the children live in
    // _main/_proj); used by the resident path and plan build.
    Conv2d *_conv1 = nullptr;
    BatchNorm2d *_bn1 = nullptr;
    Conv2d *_conv2 = nullptr;
    BatchNorm2d *_bn2 = nullptr;
    Conv2d *_projConv = nullptr;
    BatchNorm2d *_projBn = nullptr;
    bool _resident = false;
};

} // namespace leca

#endif // LECA_NN_SEQUENTIAL_HH
