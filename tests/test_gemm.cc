/**
 * @file
 * GEMM oracle and canary tests: every SIMD build this CPU can run
 * (others are skipped) must equal the scalar triple loop byte for
 * byte, at pool widths 1–8, on every path (auto, dense, zero-skip) and
 * transpose, over a seeded grid of ragged shapes, sparse A, the
 * workload shapes and non-finite inputs. The scalar loop itself is
 * pinned to the historical per-transpose loops, and a canary fails if
 * the compiler ever fuses the kernels' multiply-add into an FMA.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hh"
#include "device/device.hh"
#include "parallel/thread_pool.hh"
#include "tensor/matmul.hh"

using namespace gnnperf;
using namespace gnnperf::ops;
using gemm::Isa;
using gemm::Op;
using gemm::Path;

namespace {

bool
bitEq(const Tensor &a, const Tensor &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/**
 * Bitwise equality except that a NaN matches any NaN. When two NaNs of
 * different sign or payload meet in an add, x86 returns the first
 * operand's, and the compiler orders a commutative add as it likes, so
 * only the positions of such NaNs are part of the contract.
 */
bool
bitEqUpToNaNPayload(const Tensor &a, const Tensor &b)
{
    if (!a.sameShape(b))
        return false;
    for (int64_t i = 0; i < a.numel(); ++i) {
        const float x = a.data()[i], y = b.data()[i];
        if (std::isnan(x) && std::isnan(y))
            continue;
        if (std::memcmp(&x, &y, sizeof x) != 0)
            return false;
    }
    return true;
}

/** Normal entries, each kept with probability `density` (else +0). */
Tensor
randomMatrix(int64_t rows, int64_t cols, double density, Rng &rng)
{
    Tensor t = Tensor::zeros({rows, cols});
    for (int64_t i = 0; i < t.numel(); ++i)
        if (rng.bernoulli(density))
            t.data()[i] = static_cast<float>(rng.normal());
    return t;
}

/** The SIMD builds this CPU runs. */
std::vector<Isa>
simdIsas()
{
    std::vector<Isa> isas;
    if (gemm::supported(Isa::Avx2))
        isas.push_back(Isa::Avx2);
    return isas;
}

/** Operands for `op` at forward shape X[n,k]·W[k,m]. */
struct Operands
{
    Tensor a, b;
};

Operands
operandsFor(Op op, int64_t n, int64_t k, int64_t m, double density,
            Rng &rng)
{
    switch (op) {
      case Op::NN:  // Y = X · W
        return {randomMatrix(n, k, density, rng),
                randomMatrix(k, m, 1.0, rng)};
      case Op::TN:  // dW = Xᵀ · dY
        return {randomMatrix(n, k, density, rng),
                randomMatrix(n, m, 1.0, rng)};
      case Op::NT:  // dX = dY · Wᵀ
        break;
    }
    return {randomMatrix(n, m, density, rng), randomMatrix(k, m, 1.0, rng)};
}

const char *
opName(Op op)
{
    return op == Op::NN ? "NN" : op == Op::TN ? "TN" : "NT";
}

/**
 * Every supported SIMD build, on every path in `paths`, at pool widths
 * 1–8, equals the scalar oracle byte for byte.
 */
void
expectMatchesOracle(Op op, const Tensor &a, const Tensor &b,
                    const std::vector<Path> &paths, const std::string &what,
                    bool anyNaNPayload = false)
{
    const Tensor want = gemm::run(op, a, b, Isa::Scalar);
    for (Isa isa : simdIsas()) {
        for (Path path : paths) {
            for (int width = 1; width <= 8; ++width) {
                par::ThreadScope scope(width);
                const Tensor got = gemm::run(op, a, b, isa, path);
                ASSERT_TRUE(anyNaNPayload ? bitEqUpToNaNPayload(got, want)
                                          : bitEq(got, want))
                    << what << " " << opName(op) << " on "
                    << gemm::isaName(isa) << " path "
                    << static_cast<int>(path) << " width " << width;
            }
        }
    }
}

const std::vector<Path> kAllPaths = {Path::Auto, Path::Dense, Path::Skip};

/** The historical per-transpose loops the scalar oracle replaces. */
Tensor
historicalLoop(Op op, const Tensor &a, const Tensor &b)
{
    const float *pa = a.data();
    const float *pb = b.data();
    if (op == Op::NN) {
        const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
        Tensor c = Tensor::zeros({n, m});
        for (int64_t i = 0; i < n; ++i)
            for (int64_t kk = 0; kk < k; ++kk) {
                const float aik = pa[i * k + kk];
                if (aik == 0.0f)
                    continue;
                for (int64_t j = 0; j < m; ++j)
                    c.data()[i * m + j] += aik * pb[kk * m + j];
            }
        return c;
    }
    if (op == Op::TN) {
        const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
        Tensor c = Tensor::zeros({k, m});
        for (int64_t i = 0; i < n; ++i)
            for (int64_t kk = 0; kk < k; ++kk) {
                const float aik = pa[i * k + kk];
                if (aik == 0.0f)
                    continue;
                for (int64_t j = 0; j < m; ++j)
                    c.data()[kk * m + j] += aik * pb[i * m + j];
            }
        return c;
    }
    const int64_t n = a.dim(0), m = a.dim(1), k = b.dim(0);
    Tensor c = Tensor::zeros({n, k});
    for (int64_t i = 0; i < n; ++i)
        for (int64_t kk = 0; kk < k; ++kk) {
            float s = 0.0f;
            for (int64_t j = 0; j < m; ++j)
                s += pa[i * m + j] * pb[kk * m + j];
            c.data()[i * k + kk] = s;
        }
    return c;
}

const Op kOps[] = {Op::NN, Op::TN, Op::NT};

} // namespace

TEST(Gemm, SelectedPathIsSupported)
{
    EXPECT_TRUE(gemm::supported(Isa::Scalar));
    EXPECT_TRUE(gemm::supported(gemm::selected()));
    const Isa want =
        gemm::supported(Isa::Avx2) ? Isa::Avx2 : Isa::Scalar;
    EXPECT_EQ(gemm::selected(), want);
}

TEST(Gemm, ScalarOracleEqualsHistoricalLoops)
{
    Rng rng(21);
    for (Op op : kOps) {
        for (double density : {0.05, 0.5, 1.0}) {
            const Operands o = operandsFor(op, 37, 29, 41, density, rng);
            EXPECT_TRUE(bitEq(gemm::run(op, o.a, o.b, Isa::Scalar),
                              historicalLoop(op, o.a, o.b)))
                << opName(op) << " density " << density;
        }
    }
}

TEST(Gemm, PublicEntryPointsRunTheSelectedPath)
{
    Rng rng(22);
    const Operands nn = operandsFor(Op::NN, 45, 23, 70, 0.5, rng);
    const Operands tn = operandsFor(Op::TN, 45, 23, 70, 0.5, rng);
    const Operands nt = operandsFor(Op::NT, 45, 23, 70, 0.5, rng);
    EXPECT_TRUE(bitEq(matmul(nn.a, nn.b),
                      gemm::run(Op::NN, nn.a, nn.b, Isa::Scalar)));
    EXPECT_TRUE(bitEq(matmulTransA(tn.a, tn.b),
                      gemm::run(Op::TN, tn.a, tn.b, Isa::Scalar)));
    EXPECT_TRUE(bitEq(matmulTransB(nt.a, nt.b),
                      gemm::run(Op::NT, nt.a, nt.b, Isa::Scalar)));
}

TEST(Gemm, RaggedShapesMatchOracle)
{
    // Empty operands, k = 1, and every remainder of the 8-row and
    // 32-column micro-tile (plus the 16-lane skip-kernel blocks).
    Rng rng(23);
    const int64_t ns[] = {0, 1, 7, 8, 9, 17};
    const int64_t ks[] = {0, 1, 3, 16, 33};
    const int64_t ms[] = {0, 1, 15, 16, 31, 32, 33, 65, 80};
    for (Op op : kOps)
        for (int64_t n : ns)
            for (int64_t k : ks)
                for (int64_t m : ms) {
                    const Operands o = operandsFor(op, n, k, m, 0.7, rng);
                    const std::string what = "n=" + std::to_string(n) +
                                             " k=" + std::to_string(k) +
                                             " m=" + std::to_string(m);
                    expectMatchesOracle(op, o.a, o.b, kAllPaths, what);
                }
}

TEST(Gemm, SparseAMatchesOracle)
{
    // Cora's raw features are 1.3% dense, its aggregated features 5.8%.
    Rng rng(24);
    for (double density : {0.013, 0.058, 0.2})
        for (Op op : kOps) {
            const Operands o = operandsFor(op, 203, 171, 45, density, rng);
            expectMatchesOracle(op, o.a, o.b, kAllPaths,
                                "density " + std::to_string(density));
        }
}

TEST(Gemm, WorkloadShapesMatchOracle)
{
    struct Shape
    {
        const char *name;
        int64_t n, k, m;
        double density;
    };
    const Shape shapes[] = {
        {"gatedgcn", 4334, 96, 96, 1.0},
        {"gat", 2734, 256, 256, 1.0},
        {"gat readout", 16, 256, 128, 1.0},
        {"cora layer 1", 2708, 1433, 80, 0.058},
        {"cora layer 2", 2708, 80, 7, 0.5},
    };
    Rng rng(25);
    for (const Shape &s : shapes)
        for (Op op : kOps) {
            const Operands o =
                operandsFor(op, s.n, s.k, s.m, s.density, rng);
            expectMatchesOracle(op, o.a, o.b, {Path::Auto}, s.name);
        }
}

TEST(Gemm, NonFiniteInputsMatchOracle)
{
    // The historical NN/TN loops skip zero A elements, so 0·Inf and
    // 0·NaN never reach C there; NT never skipped. Every path must
    // reproduce both. With -NaN (0xffc00000, the NaN x86 itself makes
    // for 0·Inf and Inf-Inf) as the input NaN every NaN in play has the
    // same bits, so the whole output must match byte for byte; with
    // +NaN inputs two payloads meet and only NaN positions are fixed.
    const float inf = std::numeric_limits<float>::infinity();
    const float minusNaN = -std::numeric_limits<float>::quiet_NaN();
    const float plusNaN = std::numeric_limits<float>::quiet_NaN();
    uint32_t bits = 0;
    std::memcpy(&bits, &minusNaN, sizeof bits);
    ASSERT_EQ(bits, 0xffc00000u);
    Rng rng(26);
    for (bool plus : {false, true})
        for (Op op : kOps)
            for (double density : {0.05, 0.6})
                for (int where = 0; where < 3; ++where) {
                    // where: 0 = A only, 1 = B only, 2 = both.
                    const float specials[] = {plus ? plusNaN : minusNaN,
                                              inf, -inf};
                    Operands o = operandsFor(op, 41, 37, 50, density, rng);
                    for (int t = 0; t < 6; ++t) {
                        const float v = specials[t % 3];
                        if (where != 1)
                            o.a.data()[rng.uniformInt(
                                static_cast<uint64_t>(o.a.numel()))] = v;
                        if (where != 0)
                            o.b.data()[rng.uniformInt(
                                static_cast<uint64_t>(o.b.numel()))] = v;
                    }
                    expectMatchesOracle(
                        op, o.a, o.b, kAllPaths,
                        std::string(plus ? "+NaN" : "-NaN") + " case " +
                            std::to_string(where),
                        plus);
                }
}

TEST(Gemm, ZeroTimesInfinityStaysSkipped)
{
    // A zero A element facing an infinite B row: the NN/TN result is
    // the finite sum of the other terms, NT's is NaN.
    const float inf = std::numeric_limits<float>::infinity();
    Tensor a = Tensor::zeros({9, 40});
    Tensor b = Tensor::zeros({40, 33});
    for (int64_t i = 0; i < a.numel(); ++i)
        a.data()[i] = (i % 40 == 3) ? 0.0f : 0.5f;
    for (int64_t i = 0; i < b.numel(); ++i)
        b.data()[i] = (i / 33 == 3) ? inf : 1.0f;
    for (Isa isa : simdIsas())
        for (Path path : kAllPaths) {
            const Tensor c = gemm::run(Op::NN, a, b, isa, path);
            for (int64_t i = 0; i < c.numel(); ++i)
                ASSERT_EQ(c.data()[i], 19.5f) << gemm::isaName(isa);
        }
    Tensor at = Tensor::zeros({40, 9});
    for (int64_t i = 0; i < 40; ++i)
        for (int64_t j = 0; j < 9; ++j)
            at.data()[i * 9 + j] = a.data()[j * 40 + i];
    expectMatchesOracle(Op::TN, at, b, kAllPaths, "TN 0*inf");
    Tensor bt = Tensor::zeros({33, 40});
    for (int64_t i = 0; i < 40; ++i)
        for (int64_t j = 0; j < 33; ++j)
            bt.data()[j * 40 + i] = b.data()[i * 33 + j];
    const Tensor nt = gemm::run(Op::NT, a, bt, Isa::Scalar);
    EXPECT_TRUE(std::isnan(nt.data()[0]));
    expectMatchesOracle(Op::NT, a, bt, kAllPaths, "NT 0*inf");
}

TEST(Gemm, NoFusedMultiplyAddCanary)
{
    // x·x rounds, so x·x + x·(-x) is exactly 0 with a separate multiply
    // and add, but fmaf keeps the first product's rounding error. Every
    // element of every tile position is such a sum.
    const float x = 1.0f + std::ldexp(1.0f, -12);
    const float rounded = x * x;
    ASSERT_NE(std::fmaf(x, -x, rounded), 0.0f) << "not a canary";
    const int64_t n = 19, m = 45;
    Tensor a = Tensor::full({n, 2}, x);
    Tensor b = Tensor::zeros({2, m});
    Tensor at = Tensor::full({2, n}, x);
    Tensor bt = Tensor::zeros({m, 2});
    for (int64_t j = 0; j < m; ++j) {
        b.data()[j] = x;
        b.data()[m + j] = -x;
        bt.data()[j * 2] = x;
        bt.data()[j * 2 + 1] = -x;
    }
    for (Isa isa : {Isa::Scalar, Isa::Avx2}) {
        if (!gemm::supported(isa))
            continue;
        for (Path path : kAllPaths) {
            const Tensor cs[] = {gemm::run(Op::NN, a, b, isa, path),
                                 gemm::run(Op::TN, at, b, isa, path),
                                 gemm::run(Op::NT, a, bt, isa, path)};
            for (const Tensor &c : cs)
                for (int64_t i = 0; i < c.numel(); ++i)
                    ASSERT_EQ(c.data()[i], 0.0f)
                        << gemm::isaName(isa) << " element " << i;
        }
    }
}

TEST(Gemm, RecycledOutputMemoryIsOverwritten)
{
    // C is allocated uninitialised, so every path must write every
    // element, an empty reduction included (k = 0 for NN/TN, m = 0 for
    // NT). Each call is handed a recycled block of stale finite values
    // (a stale NaN would be recomputed by the NN/TN NaN fix-up and hide
    // a missed write): with the cache emptied first, the block a
    // released C-sized tensor leaves is the caching allocator's only
    // best fit for C.
    DeviceManager &dm = DeviceManager::instance();
    if (dm.allocatorKind(DeviceKind::Cuda) != AllocatorKind::Caching)
        GTEST_SKIP() << "needs the caching allocator";
    const float stale = -3.0f;
    std::vector<Isa> isas = simdIsas();
    isas.push_back(Isa::Scalar);
    Rng rng(27);
    for (Op op : kOps)
        for (int64_t n : {1, 9, 40})
            for (int64_t k : {0, 1, 33})
                for (int64_t m : {0, 1, 33, 80}) {
                    const Operands o = operandsFor(op, n, k, m, 0.3, rng);
                    const Tensor want = historicalLoop(op, o.a, o.b);
                    for (Isa isa : isas)
                        for (Path path : kAllPaths)
                            for (int width : {1, 3}) {
                                par::ThreadScope scope(width);
                                dm.emptyCaches();
                                const float *block = nullptr;
                                {
                                    const Tensor dirty =
                                        Tensor::full(want.shape(), stale);
                                    block = dirty.data();
                                }
                                const Tensor got =
                                    gemm::run(op, o.a, o.b, isa, path);
                                ASSERT_EQ(got.data(), block)
                                    << "C is not the recycled block";
                                ASSERT_TRUE(bitEq(got, want))
                                    << opName(op) << " n=" << n
                                    << " k=" << k << " m=" << m << " on "
                                    << gemm::isaName(isa) << " path "
                                    << static_cast<int>(path) << " width "
                                    << width;
                            }
                }
}
