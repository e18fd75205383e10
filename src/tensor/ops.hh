/**
 * @file
 * Forward tensor kernels.
 *
 * Every function really computes its result on the host CPU and emits
 * one KernelRecord (name, FLOPs, bytes moved) to the Profiler, which is
 * how the timing model learns what a GPU deployment would have
 * executed. Autograd wrappers (autograd/functions.hh) compose these.
 *
 * Naming note: `xxxInto` variants write into a preallocated output and
 * are used by the optimizer's in-place updates.
 */

#ifndef GNNPERF_TENSOR_OPS_HH
#define GNNPERF_TENSOR_OPS_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace gnnperf {
namespace ops {

// ----- elementwise kinds ---------------------------------------------------
//
// The recorded-IR layer (src/ir) replays and fuses elementwise kernels,
// so the per-element math is single-sourced here: the eager wrappers,
// the `Into` replay variants and the fused launches all inline the same
// expressions, which is what makes graph mode bit-identical to eager.

/** Unary elementwise kernels (param: scale s, added s, elu α, slope). */
enum class EwUnary
{
    Scale,
    AddScalar,
    Relu,
    Sigmoid,
    Tanh,
    Elu,
    LeakyRelu,
    Exp,
};

/** Binary elementwise kernels. */
enum class EwBinary
{
    Add,
    Sub,
    Mul,
    Div,
};

inline float
ewUnaryApply(EwUnary k, float x, float p)
{
    switch (k) {
      case EwUnary::Scale:
        return p * x;
      case EwUnary::AddScalar:
        return x + p;
      case EwUnary::Relu:
        return x > 0.0f ? x : 0.0f;
      case EwUnary::Sigmoid:
        return 1.0f / (1.0f + std::exp(-x));
      case EwUnary::Tanh:
        return std::tanh(x);
      case EwUnary::Elu:
        return x > 0.0f ? x : p * (std::exp(x) - 1.0f);
      case EwUnary::LeakyRelu:
        return x > 0.0f ? x : p * x;
      case EwUnary::Exp:
        return std::exp(x);
    }
    return x;
}

inline float
ewBinaryApply(EwBinary k, float x, float y)
{
    switch (k) {
      case EwBinary::Add:
        return x + y;
      case EwBinary::Sub:
        return x - y;
      case EwBinary::Mul:
        return x * y;
      case EwBinary::Div:
        return x / y;
    }
    return x;
}

/** Registered kernel name for an elementwise kind. */
const char *ewUnaryName(EwUnary k);
const char *ewBinaryName(EwBinary k);

/** Per-element FLOP cost, matching the eager wrappers' records. */
double ewUnaryFlops(EwUnary k);
double ewBinaryFlops(EwBinary k);

// ----- elementwise binary ------------------------------------------------

/** c = a + b (same shape). */
Tensor add(const Tensor &a, const Tensor &b);

/** c = a - b (same shape). */
Tensor sub(const Tensor &a, const Tensor &b);

/** c = a * b elementwise (same shape). */
Tensor mul(const Tensor &a, const Tensor &b);

/** c = a / b elementwise (same shape). */
Tensor div(const Tensor &a, const Tensor &b);

/** c[i,j] = a[i,j] + b[j]  — row-broadcast add (bias). */
Tensor addRows(const Tensor &a, const Tensor &b);

/** c[i,j] = a[i,j] * b[i]  — column-broadcast multiply. */
Tensor mulCols(const Tensor &a, const Tensor &b);

/** c[i,j] = a[i,j] / b[i]  — column-broadcast divide. */
Tensor divCols(const Tensor &a, const Tensor &b);

/** a += b in place (same shape). */
void addInPlace(Tensor &a, const Tensor &b);

/** a += s * b in place (axpy). */
void addScaledInPlace(Tensor &a, const Tensor &b, float s);

// ----- elementwise unary -------------------------------------------------

/** c = s * a. */
Tensor scale(const Tensor &a, float s);

/** c = a + s. */
Tensor addScalar(const Tensor &a, float s);

Tensor relu(const Tensor &a);
Tensor sigmoid(const Tensor &a);
Tensor tanhT(const Tensor &a);
Tensor elu(const Tensor &a, float alpha = 1.0f);
Tensor leakyRelu(const Tensor &a, float slope = 0.2f);
Tensor expT(const Tensor &a);
Tensor logT(const Tensor &a);
Tensor sqrtT(const Tensor &a);
Tensor square(const Tensor &a);
Tensor reciprocal(const Tensor &a, float eps = 0.0f);

// ----- reductions ----------------------------------------------------------

/** Column sums: [N,F] → [F]. */
Tensor sumRows(const Tensor &a);

/** Column means: [N,F] → [F]. */
Tensor meanRows(const Tensor &a);

/** Column variance (biased): [N,F] → [F]. */
Tensor varRows(const Tensor &a, const Tensor &mean);

/** Per-row sums: [N,F] → [N]. */
Tensor sumCols(const Tensor &a);

/** Sum of all elements → scalar [1]. */
Tensor sumAll(const Tensor &a);

/** Mean of all elements → scalar [1]. */
Tensor meanAll(const Tensor &a);

/** Per-row argmax of a rank-2 tensor. */
std::vector<int64_t> argmaxRows(const Tensor &a);

// ----- softmax -------------------------------------------------------------

/** Row-wise softmax of a rank-2 tensor. */
Tensor softmaxRows(const Tensor &a);

/** Row-wise log-softmax of a rank-2 tensor. */
Tensor logSoftmaxRows(const Tensor &a);

// ----- shaping -------------------------------------------------------------

/** Concatenate along columns: [N,Fa] ++ [N,Fb] → [N,Fa+Fb]. */
Tensor concatCols(const Tensor &a, const Tensor &b);

/** Take columns [begin, end) of a rank-2 tensor. */
Tensor sliceCols(const Tensor &a, int64_t begin, int64_t end);

/** Take rows [begin, end) of a rank-2 tensor. */
Tensor sliceRows(const Tensor &a, int64_t begin, int64_t end);

/** Transpose a rank-2 tensor. */
Tensor transpose(const Tensor &a);

/** Gather rows: out[e] = a[idx[e]]. */
Tensor gatherRows(const Tensor &a, const std::vector<int64_t> &idx);

/** Scatter-add rows: out[idx[e]] += src[e]; out has `num_rows` rows. */
Tensor scatterAddRows(const Tensor &src, const std::vector<int64_t> &idx,
                      int64_t num_rows);

// ----- preallocated-output (`Into`) replay variants ------------------------
//
// Used by the recorded-IR executor (src/ir/executor.cc): the executor
// allocates `out` ahead of the launch, and each variant runs
// the exact eager kernel — same parallelFor launch name, grain and
// KernelRecord — into it, so an unfused replayed node is
// indistinguishable from its eager counterpart.

/** out = unary(a) elementwise; out must match a's shape. */
void ewUnaryInto(Tensor &out, const Tensor &a, EwUnary k, float p);

/** out = a ∘ b elementwise; all three shapes must match. */
void ewBinaryInto(Tensor &out, const Tensor &a, const Tensor &b,
                  EwBinary k);

/** out[e] = a[idx[e]]; out must be [idx.size(), a.dim(1)]. */
void gatherRowsInto(Tensor &out, const Tensor &a,
                    const std::vector<int64_t> &idx);

/**
 * out[idx[e]] += src[e] after zero-filling out in-kernel (each output
 * chunk clears its own rows, so no separate fill pass is needed and
 * the accumulation order matches the eager kernel exactly).
 */
void scatterAddRowsInto(Tensor &out, const Tensor &src,
                        const std::vector<int64_t> &idx);

/** L2-normalise each row (zero rows stay zero). */
Tensor l2NormalizeRows(const Tensor &a, float eps = 1e-12f);

/** Per-row L2 norms: [N,F] → [N]. */
Tensor rowNorms(const Tensor &a, float eps = 1e-12f);

// ----- misc ----------------------------------------------------------------

/** Elementwise maximum of two tensors. */
Tensor maximum(const Tensor &a, const Tensor &b);

/** Dropout forward: returns masked/scaled copy, fills `mask`. */
Tensor dropout(const Tensor &a, float p, Tensor &mask, uint64_t seed);

/** True when all finite (used by tests and loss guards). */
bool allFinite(const Tensor &a);

} // namespace ops
} // namespace gnnperf

#endif // GNNPERF_TENSOR_OPS_HH
