/**
 * @file
 * Quantization primitives shared by the LeCA encoder, the ADC models
 * and the baseline compression methods.
 *
 * Bit depths follow the paper's convention: Q_bit ranges over
 * {1, 1.5, 2, 3, 4, 8} where 1.5 denotes ternary (3 levels). The real
 * value enters the compression-ratio formula, Eq. (1).
 */

#ifndef LECA_NN_QUANTIZE_HH
#define LECA_NN_QUANTIZE_HH

#include <vector>

#include "nn/layer.hh"

namespace leca {

/** Strong type for a (possibly fractional) quantizer bit depth. */
class QBits
{
  public:
    explicit constexpr QBits(double bits) : _bits(bits) {}

    /** The real-valued bit depth (1.5 for ternary). */
    constexpr double bits() const { return _bits; }

    /** Number of representable levels: 3 for ternary, else 2^bits. */
    int levels() const;

    /** True for the 1.5-bit ternary configuration. */
    constexpr bool isTernary() const { return _bits == 1.5; }

    friend constexpr bool
    operator==(const QBits &a, const QBits &b)
    {
        return a._bits == b._bits;
    }

  private:
    double _bits;
};

/**
 * Nearest-level code for @p x clamped into [lo, hi], in [0, levels).
 * ±Inf clamp to the end codes; NaN (a dead or corrupt pixel) maps to
 * code 0, the value lo, so one bad frame yields grid values instead of
 * an exception.
 */
int quantizeCode(float x, float lo, float hi, int levels);

/** Dequantized value of @p code on the same uniform grid. */
float dequantizeCode(int code, float lo, float hi, int levels);

/** Round-trip quantize+dequantize of a scalar. */
float quantizeUniform(float x, float lo, float hi, int levels);

/** Elementwise round-trip quantization of a tensor. */
Tensor quantizeTensor(const Tensor &x, float lo, float hi, int levels);

/**
 * Straight-through-estimator quantization layer (Eq. (2) of the paper):
 * forward emits the quantized value; backward passes the gradient
 * through unchanged inside [lo, hi] and zero outside (clipped STE).
 */
class SteQuantizer : public Layer
{
  public:
    SteQuantizer(QBits qbits, float lo, float hi);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;

    QBits qbits() const { return _qbits; }

    /** Change the bit depth (the incremental-Qbit training schedule). */
    void setQbits(QBits q) { _qbits = q; }

  private:
    QBits _qbits;
    float _lo, _hi;
    // unsigned char, not bool: vector<bool> packs bits, so parallel
    // writes to distinct elements would race on shared bytes.
    std::vector<unsigned char> _inside;
};

} // namespace leca

#endif // LECA_NN_QUANTIZE_HH
