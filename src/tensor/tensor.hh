/**
 * @file
 * Dense row-major float tensor with value semantics.
 *
 * The whole repository standardises on NCHW layout for 4-D image tensors
 * (batch, channel, height, width). Tensors are plain owning containers;
 * all numeric kernels live in ops.hh so they can be tested in isolation.
 */

#ifndef LECA_TENSOR_TENSOR_HH
#define LECA_TENSOR_TENSOR_HH

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace leca {

/**
 * A dense float tensor of rank 1..4 with row-major (C-order) layout.
 *
 * Indexing helpers are provided for the common ranks; shape mismatches
 * panic rather than silently broadcasting, which catches dataflow bugs
 * in the simulator early.
 */
class Tensor
{
  public:
    /** Empty rank-0 tensor. */
    Tensor() = default;

    /** Zero-initialised tensor with the given shape. Takes the shape
     *  by const reference and copies it through the recycled-buffer
     *  pool, so `Tensor(x.shape())` performs no call-site argument
     *  allocation (it used to copy the vector into a by-value param). */
    explicit Tensor(const std::vector<int> &shape);

    /** Convenience initializer-list constructor: Tensor({n, c, h, w}). */
    Tensor(std::initializer_list<int> shape);

    /**
     * Tensor whose elements the caller overwrites in full (a kernel's
     * output). It recycles a pooled buffer without an assign pass, so
     * the elements are unspecified: stale values of an earlier tensor
     * when a pooled buffer is reused. Storage that is not recycled —
     * fresh allocations, and every buffer when the pool is compiled
     * out (sanitizer builds) or switched off — reads quiet NaN, so an
     * element a kernel leaves unwritten shows up in the exact-compare
     * tests instead of passing as a zero (DESIGN.md §9).
     */
    static Tensor uninitialized(const std::vector<int> &shape);

    /** uninitialized(), brace form: builds its shape from the pool, so
     *  Tensor::uninitialized({n, c, h, w}) allocates nothing warm. */
    static Tensor uninitialized(std::initializer_list<int> shape);

    /** Zero-filled factory (reads better at call sites). */
    static Tensor zeros(const std::vector<int> &shape);

    /** Zero-filled factory, brace form: Tensor::zeros({n, c}) builds
     *  its shape from the recycled-buffer pool instead of a fresh
     *  call-site std::vector (hot-path allocation hygiene, §11). */
    static Tensor zeros(std::initializer_list<int> shape);

    /** Constant-filled factory. */
    static Tensor full(const std::vector<int> &shape, float value);

    /** Adopt existing data; size must match the shape product. */
    static Tensor fromData(std::vector<int> shape, std::vector<float> data);

    /**
     * Non-owning read-only view of @p count-element external storage
     * (count = product of @p shape). The caller guarantees @p data
     * outlives the view. Used to forward contiguous batch slabs of a
     * dataset straight into Layer::forward without a per-batch deep
     * copy (eval / batch-norm-refresh paths).
     *
     * A borrowed tensor is read-only: the mutating entry points
     * (non-const data(), fill, +=, *=) reject it. Copying a borrowed
     * tensor materialises an owning deep copy, so layers that cache
     * their input (`_input = x`) remain safe even when fed a view.
     */
    static Tensor borrow(std::vector<int> shape, const float *data);

    /** borrow(), brace form (avoids a call-site shape allocation). */
    static Tensor borrow(std::initializer_list<int> shape,
                         const float *data);

    /** True when this tensor is a non-owning borrow() view. */
    bool borrowed() const { return _borrowed != nullptr; }

    Tensor(const Tensor &other);
    Tensor &operator=(const Tensor &other);
    Tensor(Tensor &&other) noexcept = default;

    /** Swap-based move assignment: the displaced buffers travel into
     *  @p other, whose destructor retires them to the recycled pool —
     *  a defaulted move would free them outright, leaking recyclable
     *  capacity on every `_cache = Tensor(...)` style reassignment. */
    Tensor &operator=(Tensor &&other) noexcept;

    /** Donates the storage to the calling thread's recycled-buffer
     *  pool so steady-state construct/destroy cycles of same-shaped
     *  tensors stop touching the heap (see tensor.cc, DESIGN.md §11). */
    ~Tensor();

    /** Number of dimensions. */
    int dim() const { return static_cast<int>(_shape.size()); }

    /** Full shape vector. */
    const std::vector<int> &shape() const { return _shape; }

    /** Extent of dimension @p d (negative d counts from the back). */
    int size(int d) const;

    /** Total element count. */
    std::size_t numel() const
    {
        return _borrowed ? _borrowedSize : _data.size();
    }

    /** Raw storage access (non-const access rejects borrowed views). */
    float *data();
    const float *data() const { return _borrowed ? _borrowed : _data.data(); }

    /** Flat element access. */
    float &operator[](std::size_t i) { return _data[i]; }
    float operator[](std::size_t i) const { return data()[i]; }

    /** Rank-specific indexing (bounds-checked via assert in debug). */
    float &at(int i);
    float at(int i) const;
    float &at(int i, int j);
    float at(int i, int j) const;
    float &at(int i, int j, int k);
    float at(int i, int j, int k) const;
    float &at(int n, int c, int h, int w);
    float at(int n, int c, int h, int w) const;

    /** Set every element to @p value. */
    void fill(float value);

    /**
     * Return a copy with a new shape; the element count must match.
     * A single -1 extent is inferred from the rest. Takes the shape by
     * const reference (and, for brace call sites, by initializer list)
     * so neither form allocates a call-site argument vector; the
     * result's buffers come from the recycled pool.
     */
    Tensor reshape(const std::vector<int> &new_shape) const;

    /** reshape(), brace form: x.reshape({n, -1}). */
    Tensor reshape(std::initializer_list<int> new_shape) const;

    /** True if both tensors have identical shape. */
    bool sameShape(const Tensor &other) const
    {
        return _shape == other._shape;
    }

    /** In-place elementwise accumulate; shapes must match. */
    Tensor &operator+=(const Tensor &other);

    /** In-place scalar scale. */
    Tensor &operator*=(float scale);

  private:
    std::vector<int> _shape;
    std::vector<float> _data;
    const float *_borrowed = nullptr; //!< external storage of a view
    std::size_t _borrowedSize = 0;    //!< element count of the view

    std::size_t flatIndex(int n, int c, int h, int w) const;
    Tensor reshapeFrom(const int *first, const int *last) const;
};

} // namespace leca

#endif // LECA_TENSOR_TENSOR_HH
