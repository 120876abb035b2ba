/**
 * @file
 * Pointwise activation layers.
 */

#ifndef LECA_NN_ACTIVATION_HH
#define LECA_NN_ACTIVATION_HH

#include <cstdint>
#include <cstring>

#include "nn/layer.hh"

namespace leca {

/**
 * @p g where the mask byte @p m is set, else +0.0f, branchlessly: the
 * 0/1 byte expands to an all-ones/all-zero lane ANDed with the
 * gradient bits, so the result is bit-identical to the ternary (the
 * gradient's bits pass through untouched, the masked case is +0.0f)
 * without a data-dependent branch — masks are ~50% random
 * mid-training, so the branchy form mispredicts on every other
 * element. The ReLU and HardClamp backwards and BatchNorm2d's folded
 * ReLU all apply their masks through it.
 */
inline float
maskedGrad(float g, unsigned char m)
{
    std::uint32_t bits;
    std::memcpy(&bits, &g, sizeof bits);
    bits &= 0u - static_cast<std::uint32_t>(m);
    std::memcpy(&g, &bits, sizeof bits);
    return g;
}

/**
 * Rectified linear unit. Its Train forward records a byte mask (1
 * where the input was positive) that backward consumes. A producer
 * that folds the ReLU into its own pass — BatchNorm2d's Train forward,
 * ResidualBlock's skip add (DESIGN.md §9) — records the same mask here
 * through recordMask() and consumes it through takeMask(), so a folded
 * pair is bitwise the separate layers.
 */
class Relu : public Layer
{
  public:
    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;

    /**
     * In place @p sum = relu(sum + @p addend), recording the mask in
     * Train mode: the skip add and ReLU of a residual block in one
     * pass, bitwise `sum += addend` followed by forward().
     */
    void forwardAdd(Tensor &sum, const Tensor &addend, Mode mode);

    /** Mask storage for a Train forward over @p numel elements; the
     *  caller writes every byte (1 where the ReLU input is > 0). */
    unsigned char *recordMask(std::size_t numel);

    /** The mask a Train forward over @p numel elements recorded,
     *  consumed; fails like backward() when no such forward ran. */
    const unsigned char *takeMask(std::size_t numel);

  private:
    // Byte mask (not std::vector<bool>): distinct indices are distinct
    // bytes, so the parallel forward writes race-free, and the packed
    // bit twiddling disappears from the hot loop. The storage is kept
    // between steps (no refill); _live is the element count of the
    // forward it holds, 0 once backward consumed it.
    std::vector<unsigned char> _mask;
    std::size_t _live = 0;
};

/**
 * Hard clamp to [lo, hi] with pass-through gradient inside the range
 * and zero outside (clipped straight-through). Models the limited
 * signal range of the analog path (Sec. 3.4 "hardware constraints").
 */
class HardClamp : public Layer
{
  public:
    HardClamp(float lo, float hi) : _lo(lo), _hi(hi) {}

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    float _lo, _hi;
    std::vector<unsigned char> _inside; // byte mask, see Relu::_mask
    std::vector<int> _shape;
};

} // namespace leca

#endif // LECA_NN_ACTIVATION_HH
