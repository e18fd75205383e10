/**
 * @file
 * Dense matrix multiplication (the cuBLAS sgemm stand-in).
 *
 * All three transposes run one blocked GEMM (matmul.cc): an 8×32
 * micro-kernel written once with GCC vector extensions and compiled
 * for AVX2, taken when the CPU has it, with a naive scalar triple
 * loop as the fallback and the test oracle. NN and
 * TN keep the historical zero-skip semantics through a SIMD row-skip
 * kernel taken when A is sparse (Cora's bag-of-words features). Every
 * path is bit-identical to the scalar loop at every pool width; see
 * docs/CORRECTNESS.md "Dense GEMM" for the accumulation-order contract.
 */

#ifndef GNNPERF_TENSOR_MATMUL_HH
#define GNNPERF_TENSOR_MATMUL_HH

#include "tensor/tensor.hh"

namespace gnnperf {
namespace ops {

/** C[N,M] = A[N,K] · B[K,M]. */
Tensor matmul(const Tensor &a, const Tensor &b);

/** C[K,M] = Aᵀ[K,N] · B[N,M] for A stored as [N,K]. */
Tensor matmulTransA(const Tensor &a, const Tensor &b);

/** C[N,K] = A[N,M] · Bᵀ[M,K] for B stored as [K,M]. */
Tensor matmulTransB(const Tensor &a, const Tensor &b);

namespace gemm {

/** Which operand is transposed: matmul, matmulTransA, matmulTransB. */
enum class Op { NN, TN, NT };

/** Instruction-set builds of the engine. */
enum class Isa { Scalar, Avx2 };

/**
 * Kernel choice for NN/TN. Auto picks per pooled chunk from the
 * density of the A rows it scans; NT has no zero skip and always runs
 * the dense kernel.
 */
enum class Path { Auto, Dense, Skip };

/** True when this CPU can run `isa` (Scalar always can). */
bool supported(Isa isa);

/** What matmul* runs, probed once: AVX2 when the CPU has it, else scalar. */
Isa selected();

/** "scalar" or "avx2". */
const char *isaName(Isa isa);

/**
 * op(A, B) on a forced Isa and Path, without a profiler record: the
 * hook the oracle test and the micro-bench use. Fatal when the CPU
 * lacks `isa`.
 */
Tensor run(Op op, const Tensor &a, const Tensor &b, Isa isa,
           Path path = Path::Auto);

} // namespace gemm

} // namespace ops
} // namespace gnnperf

#endif // GNNPERF_TENSOR_MATMUL_HH
