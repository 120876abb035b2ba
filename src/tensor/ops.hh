/**
 * @file
 * Numeric ops over Tensor: matrix multiply variants, im2col/col2im,
 * convolution, pooling, and resampling. These are the only hot loops in
 * the training framework; everything in nn/ composes them. The dense
 * inner kernels (packed blocked GEMM, packed im2col) live in
 * tensor/kernels.hh; this layer adds Tensor shapes and contracts.
 */

#ifndef LECA_TENSOR_OPS_HH
#define LECA_TENSOR_OPS_HH

#include "tensor/tensor.hh"

namespace leca {

/** C = A (MxK) * B (KxN). */
Tensor matmul(const Tensor &a, const Tensor &b);

/** C = A^T * B where A is (KxM), B is (KxN) -> C is (MxN). */
Tensor matmulTransA(const Tensor &a, const Tensor &b);

/** C = A * B^T where A is (MxK), B is (NxK) -> C is (MxN). */
Tensor matmulTransB(const Tensor &a, const Tensor &b);

/**
 * Unfold one image [C,H,W] into convolution columns.
 *
 * @return a (C*kh*kw) x (OH*OW) matrix where OH/OW are the output extents
 *         for the given stride/padding.
 */
Tensor im2col(const Tensor &image, int kh, int kw, int stride, int pad);

/**
 * Fold convolution columns back into an image, accumulating overlaps.
 * Exact adjoint of im2col; used for conv backward-data and transposed
 * convolution.
 */
Tensor col2im(const Tensor &cols, int channels, int height, int width,
              int kh, int kw, int stride, int pad);

/** Output spatial extent of a convolution along one axis. */
int convOutSize(int in, int k, int stride, int pad);

/**
 * Batched 2-D convolution.
 *
 * @param x      input [N, Cin, H, W]
 * @param weight [Cout, Cin, kh, kw]
 * @param bias   [Cout] or empty tensor for no bias
 */
Tensor conv2d(const Tensor &x, const Tensor &weight, const Tensor &bias,
              int stride, int pad);

/**
 * The one shared im2col+GEMM kernel behind every convolution forward
 * (ops.cc conv2d, nn/conv.cc Conv2d, core/encoder.cc LecaEncoder).
 *
 * Computes y[item] = wmat * im2col(x[item]) (+ bias added in-place per
 * output channel) for a single batch item, reading straight from the
 * batch without slicing a copy. Writes only the [Cout, OH, OW] slab of
 * @p y belonging to @p item, so distinct items may run in parallel.
 *
 * @param x      input batch [N, Cin, H, W]
 * @param item   batch index to convolve
 * @param wmat   weights already reshaped to [Cout, Cin*kh*kw]
 * @param bias   [Cout] or empty tensor for no bias
 * @param y      output batch [N, Cout, OH, OW] (item slab overwritten)
 * @return the im2col matrix (Cin*kh*kw x OH*OW) — per-image scratch that
 *         layers keep for their backward pass.
 */
Tensor conv2dImage(const Tensor &x, int item, const Tensor &wmat,
                   const Tensor &bias, int kh, int kw, int stride, int pad,
                   Tensor &y);

/** Batched average pooling with kernel=stride (non-overlapping blocks). */
Tensor avgPool2d(const Tensor &x, int k);

/** Batched max pooling with kernel=stride; optionally records argmaxes. */
Tensor maxPool2d(const Tensor &x, int k, std::vector<int> *argmax = nullptr);

/** Global average pool: [N,C,H,W] -> [N,C]. */
Tensor globalAvgPool(const Tensor &x);

/** Bilinear resize of [N,C,H,W] to [N,C,outH,outW] (align_corners=false). */
Tensor bilinearResize(const Tensor &x, int out_h, int out_w);

/** Per-row softmax of a [N, K] logit matrix. */
Tensor softmax(const Tensor &logits);

/** Index of the maximum entry in each row of a [N, K] matrix. */
std::vector<int> argmaxRows(const Tensor &m);

/** Mean of all elements. */
double mean(const Tensor &t);

/** Mean squared error between two same-shaped tensors. */
double mse(const Tensor &a, const Tensor &b);

/** Peak signal-to-noise ratio in dB for signals in [0, 1]. */
double psnrDb(const Tensor &reference, const Tensor &test);

} // namespace leca

#endif // LECA_TENSOR_OPS_HH
