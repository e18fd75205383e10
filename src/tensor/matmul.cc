#include "tensor/matmul.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/logging.hh"
#include "device/profiler.hh"
#include "parallel/thread_pool.hh"

// Bit-identity with the scalar loop rests on every C element being one
// `c = c + a * b` chain: ascending reduction index, starting from +0,
// a rounded multiply then a rounded add. target("avx512f") enables FMA
// and GCC would contract that pair into one vfmadd, so this file is
// compiled with -ffp-contract=off (src/CMakeLists.txt); test_gemm's
// canary fails if contraction ever comes back.

namespace gnnperf {
namespace ops {
namespace gemm {

namespace {

/**
 * One call in stride form: C[n, m] (row-major, uninitialised: every
 * path writes each row of its chunk) gets Σ_p A(i, p) · B(p, j) over
 * p < k, where A(i, p) = a[i*ars + p*aps] and B(p, j) = b[p*bps +
 * j*bjs].
 */
struct Problem
{
    int64_t n, k, m;
    const float *a;
    int64_t ars, aps;
    const float *b;
    int64_t bps, bjs;
    float *c;
    /** NN/TN: zero A elements contribute nothing, as they always have. */
    bool skipZeroA;
};

/** The naive triple loop: the fallback path and the test oracle. */
void
scalarRows(const Problem &pr, int64_t i0, int64_t i1)
{
    for (int64_t i = i0; i < i1; ++i) {
        float *crow = pr.c + i * pr.m;
        std::fill(crow, crow + pr.m, 0.0f);
        for (int64_t p = 0; p < pr.k; ++p) {
            const float av = pr.a[i * pr.ars + p * pr.aps];
            if (pr.skipZeroA && av == 0.0f)
                continue;
            const float *bp = pr.b + p * pr.bps;
            for (int64_t j = 0; j < pr.m; ++j)
                crow[j] = crow[j] + av * bp[j * pr.bjs];
        }
    }
}

#if defined(__x86_64__)

// ---- SIMD engine: written once with GCC vector extensions over the
// ISA's native vector (Isa::Vec, Isa::kLanes floats) and instantiated
// per ISA by the flattened target wrappers below. A generic vector
// wider than the target's registers is lowered element by element, so
// each build must use its own width. ----

constexpr int kMr = 8;   ///< micro-tile rows (an A panel)
constexpr int kNr = 32;  ///< micro-tile columns (a B panel)
/** A elements one Isa::compress16 call scans. */
constexpr int kCompress = 16;

template <class V>
inline void
loadVec(V &v, const float *p)
{
    std::memcpy(&v, p, sizeof v);
}

template <class V>
inline void
storeVec(float *p, const V &v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * B in 32-column panels. Full panels of a unit-stride B (NN, TN) are
 * read in place, `bps` apart; the ragged last panel and every panel of
 * a transposed B (NT) are packed zero-padded, kNr floats per p.
 */
struct PanelsB
{
    const float *b = nullptr;
    int64_t bps = 0;
    int64_t inPlaceCols = 0;  ///< columns [0, inPlaceCols) read in place
    const float *packed = nullptr;
    int64_t k = 0;

    void
    panel(int64_t j0, const float *&bp, int64_t &ldb) const
    {
        if (j0 + kNr <= inPlaceCols) {
            bp = b + j0;
            ldb = bps;
        } else {
            bp = packed + (j0 - inPlaceCols) / kNr * k * kNr;
            ldb = kNr;
        }
    }
};

/** The calling thread's panel buffer (a GEMM never nests). */
std::vector<float> &
packBuffer()
{
    thread_local std::vector<float> buf;
    return buf;
}

PanelsB
packB(const Problem &pr)
{
    PanelsB pb;
    pb.b = pr.b;
    pb.bps = pr.bps;
    pb.k = pr.k;
    pb.inPlaceCols = pr.bjs == 1 ? pr.m / kNr * kNr : 0;
    const int64_t panels = (pr.m - pb.inPlaceCols + kNr - 1) / kNr;
    if (panels == 0)
        return pb;
    std::vector<float> &buf = packBuffer();
    buf.assign(static_cast<size_t>(panels * pr.k * kNr), 0.0f);
    for (int64_t q = 0; q < panels; ++q) {
        float *dst = buf.data() + q * pr.k * kNr;
        const int64_t j0 = pb.inPlaceCols + q * kNr;
        const int64_t cols = std::min<int64_t>(kNr, pr.m - j0);
        for (int64_t jj = 0; jj < cols; ++jj) {
            const float *src = pr.b + (j0 + jj) * pr.bjs;
            for (int64_t p = 0; p < pr.k; ++p)
                dst[p * kNr + jj] = src[p * pr.bps];
        }
    }
    pb.packed = buf.data();
    return pb;
}

/**
 * One register tile, R rows × V vectors: out[r][j] (row stride ldo)
 * continues its `c = c + a * b` chain over arow[r][p*aps] · bp[p*ldb +
 * j] for p < kd. The first reduction block (`fresh`) starts from +0
 * instead of loading C; later blocks resume exactly where the last one
 * stored.
 */
template <class Isa, int R, int V>
inline void
registerTile(int64_t kd, const float *const *arow, int64_t aps,
             const float *bp, int64_t ldb, float *out, int64_t ldo,
             bool fresh)
{
    using Vec = typename Isa::Vec;
    constexpr int L = Isa::kLanes;
    const float *ar[R];
    Vec acc[R][V];
    for (int r = 0; r < R; ++r) {
        ar[r] = arow[r];
        for (int v = 0; v < V; ++v) {
            if (fresh)
                acc[r][v] = Vec{};
            else
                loadVec(acc[r][v], out + r * ldo + v * L);
        }
    }
    for (int64_t p = 0; p < kd; ++p) {
        Vec b[V];
        for (int v = 0; v < V; ++v)
            loadVec(b[v], bp + p * ldb + v * L);
        const int64_t ap = p * aps;
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
            const float av = ar[r][ap];
            for (int v = 0; v < V; ++v)
                acc[r][v] = acc[r][v] + av * b[v];
        }
    }
    for (int r = 0; r < R; ++r)
        for (int v = 0; v < V; ++v)
            storeVec(out + r * ldo + v * L, acc[r][v]);
}

/**
 * The 8×32 micro-kernel, run as the ISA's register tiles: AVX-512
 * holds the whole tile in 16 zmm accumulators, AVX2 (16 ymm registers
 * in all) runs it as four 4×16 tiles of 8 accumulators. Each C element
 * keeps its own chain, so the split changes no bits.
 */
template <class Isa>
inline void
microTile(int64_t kd, const float *const *arow, int64_t aps,
          const float *bp, int64_t ldb, float *out, int64_t ldo,
          bool fresh)
{
    constexpr int R = Isa::kTileRows;
    constexpr int V = Isa::kTileVecs;
    constexpr int W = V * Isa::kLanes;
    static_assert(kMr % R == 0 && kNr % W == 0, "tile must split evenly");
    for (int r0 = 0; r0 < kMr; r0 += R)
        for (int c0 = 0; c0 < kNr; c0 += W)
            registerTile<Isa, R, V>(kd, arow + r0, aps, bp + c0, ldb,
                                    out + r0 * ldo + c0, ldo, fresh);
}

/** Per-thread nonzero lists for the skip kernel. */
struct SkipScratch
{
    std::vector<float> val;
    std::vector<int32_t> idx;
};

/**
 * The running thread's lists, sized for `len` entries plus slack for
 * compress16's full-width stores. noinline keeps the growth path out
 * of the flattened kernels.
 */
__attribute__((noinline)) SkipScratch &
skipScratch(int64_t len)
{
    thread_local SkipScratch s;
    const size_t need = static_cast<size_t>(len + kCompress);
    if (s.val.size() < need) {
        s.val.resize(need);
        s.idx.resize(need);
    }
    return s;
}

/**
 * Nonzero entries (NaN included: zero skipping tests only `== 0`) of
 * x[0, len) into val/idx in ascending order; returns their count.
 */
template <class Isa>
inline int64_t
compressNonzero(const float *x, int64_t len, float *val, int32_t *idx)
{
    int64_t cnt = 0, t = 0;
    for (; t + kCompress <= len; t += kCompress)
        cnt += Isa::compress16(x + t, static_cast<int32_t>(t), val + cnt,
                               idx + cnt);
    for (; t < len; ++t) {
        if (x[t] != 0.0f) {
            val[cnt] = x[t];
            idx[cnt] = static_cast<int32_t>(t);
            ++cnt;
        }
    }
    return cnt;
}

/**
 * out[u*L + l] = Σ_t val[t] · b[idx[t]*bps + u*L + l] over the nonzero
 * list, NV vectors of the C row held in registers.
 */
template <class Isa, int NV>
inline void
skipBlock(int64_t nnz, const float *val, const int32_t *idx,
          const float *b, int64_t bps, float *out)
{
    using Vec = typename Isa::Vec;
    constexpr int L = Isa::kLanes;
    Vec acc[NV] = {};
    for (int64_t t = 0; t < nnz; ++t) {
        const float v = val[t];
        const float *bp = b + idx[t] * bps;
        for (int u = 0; u < NV; ++u) {
            Vec bv;
            loadVec(bv, bp + u * L);
            acc[u] = acc[u] + v * bv;
        }
    }
    for (int u = 0; u < NV; ++u)
        storeVec(out + u * L, acc[u]);
}

/** crow[j] = crow[j] + v * brow[j] for j < m. */
template <class Isa>
inline void
axpy(float *crow, float v, const float *brow, int64_t m)
{
    using Vec = typename Isa::Vec;
    constexpr int L = Isa::kLanes;
    int64_t j = 0;
    for (; j + L <= m; j += L) {
        Vec c, bv;
        loadVec(c, crow + j);
        loadVec(bv, brow + j);
        c = c + v * bv;
        storeVec(crow + j, c);
    }
    for (; j < m; ++j)
        crow[j] = crow[j] + v * brow[j];
}

/**
 * Zero-skip rows [i0, i1) of a B with unit column stride. NN (A rows
 * contiguous) gathers each A row's nonzeros and holds the C row in
 * registers; TN (A columns contiguous) keeps the historical loop order,
 * scanning each A row's slice and adding into the C rows it hits, so it
 * zero-fills them first.
 */
template <class Isa>
void
skipRows(const Problem &pr, int64_t i0, int64_t i1)
{
    constexpr int L = Isa::kLanes;
    const int64_t m = pr.m;
    if (pr.aps == 1) {
        SkipScratch &s = skipScratch(pr.k);
        for (int64_t i = i0; i < i1; ++i) {
            const int64_t nnz = compressNonzero<Isa>(
                pr.a + i * pr.ars, pr.k, s.val.data(), s.idx.data());
            const float *val = s.val.data();
            const int32_t *idx = s.idx.data();
            float *crow = pr.c + i * m;
            int64_t j = 0;
            for (; j + 4 * L <= m; j += 4 * L)
                skipBlock<Isa, 4>(nnz, val, idx, pr.b + j, pr.bps,
                                  crow + j);
            for (; j + L <= m; j += L)
                skipBlock<Isa, 1>(nnz, val, idx, pr.b + j, pr.bps,
                                  crow + j);
            for (; j < m; ++j) {
                float acc = 0.0f;
                for (int64_t t = 0; t < nnz; ++t)
                    acc = acc + val[t] * pr.b[idx[t] * pr.bps + j];
                crow[j] = acc;
            }
        }
        return;
    }
    std::fill(pr.c + i0 * m, pr.c + i1 * m, 0.0f);
    SkipScratch &s = skipScratch(i1 - i0);
    for (int64_t p = 0; p < pr.k; ++p) {
        const int64_t nnz =
            compressNonzero<Isa>(pr.a + p * pr.aps + i0 * pr.ars, i1 - i0,
                                 s.val.data(), s.idx.data());
        const float *brow = pr.b + p * pr.bps;
        for (int64_t t = 0; t < nnz; ++t)
            axpy<Isa>(pr.c + (i0 + s.idx[t]) * m, s.val[t], brow, m);
    }
}

/** Nonzero count of `rows` slices of `len` floats, `stride` apart. */
template <class Isa>
inline int64_t
countNonzero(const float *x, int64_t rows, int64_t len, int64_t stride)
{
    using Vec = typename Isa::Vec;
    using VecI = typename Isa::VecI;
    constexpr int L = Isa::kLanes;
    const Vec zero = {};
    VecI lanes = {};
    int64_t cnt = 0;
    for (int64_t r = 0; r < rows; ++r) {
        const float *row = x + r * stride;
        int64_t t = 0;
        for (; t + L <= len; t += L) {
            Vec v;
            loadVec(v, row + t);
            lanes -= v != zero;  // -1 per nonzero (or NaN) lane
        }
        for (; t < len; ++t)
            cnt += row[t] != 0.0f;
    }
    for (int l = 0; l < L; ++l)
        cnt += lanes[l];
    return cnt;
}

/** True when any of x[0, m) is NaN. */
inline bool
anyNaN(const float *x, int64_t m)
{
    bool nan = false;
    for (int64_t j = 0; j < m; ++j)
        nan |= x[j] != x[j];
    return nan;
}

/**
 * Dense rows [i0, i1): 8-row panels of A (read in place; a ragged
 * panel repeats its last row and drops the extra results) against
 * every B panel, the reduction split into kKc-long blocks so the A and
 * B blocks a chunk sweeps stay in L2 when k is long (TN's k is the
 * node count). The first block writes C without reading it, so C needs
 * no zero fill.
 *
 * Zero skipping changes nothing unless a skipped zero meets a
 * non-finite B value: c starts at +0 and round-to-nearest addition
 * never yields -0 from a non-(-0) operand, so c + (±0) == c. A 0·Inf
 * or 0·NaN product makes the dense element NaN, so a skipping call
 * recomputes every row holding a NaN with the skip kernel — the historical
 * bits whatever B holds, at O(m) per row instead of an O(km) scan of B.
 */
template <class Isa>
void
denseRows(const Problem &pr, const PanelsB &pb, int64_t i0, int64_t i1)
{
    constexpr int64_t kKc = 256;
    const int64_t m = pr.m;
    if (pr.k == 0)
        std::fill(pr.c + i0 * m, pr.c + i1 * m, 0.0f);
    for (int64_t pc = 0; pc < pr.k; pc += kKc) {
        const int64_t kd = std::min(kKc, pr.k - pc);
        const bool fresh = pc == 0;
        for (int64_t ib = i0; ib < i1; ib += kMr) {
            const int64_t rows = std::min<int64_t>(kMr, i1 - ib);
            const float *arow[kMr];
            for (int r = 0; r < kMr; ++r)
                arow[r] = pr.a +
                          (ib + std::min<int64_t>(r, rows - 1)) * pr.ars +
                          pc * pr.aps;
            for (int64_t j0 = 0; j0 < m; j0 += kNr) {
                const int64_t cols = std::min<int64_t>(kNr, m - j0);
                const float *bp = nullptr;
                int64_t ldb = 0;
                pb.panel(j0, bp, ldb);
                bp += pc * ldb;
                float *out = pr.c + ib * m + j0;
                if (rows == kMr && cols == kNr) {
                    microTile<Isa>(kd, arow, pr.aps, bp, ldb, out, m, fresh);
                    continue;
                }
                alignas(64) float tile[kMr * kNr];
                const size_t bytes = static_cast<size_t>(cols) * sizeof(float);
                if (!fresh)
                    for (int64_t r = 0; r < rows; ++r)
                        std::memcpy(tile + r * kNr, out + r * m, bytes);
                microTile<Isa>(kd, arow, pr.aps, bp, ldb, tile, kNr, fresh);
                for (int64_t r = 0; r < rows; ++r)
                    std::memcpy(out + r * m, tile + r * kNr, bytes);
            }
        }
    }
    if (!pr.skipZeroA)
        return;
    for (int64_t i = i0; i < i1; ++i) {
        if (anyNaN(pr.c + i * m, m))
            skipRows<Isa>(pr, i, i + 1);
    }
}

/**
 * Auto takes the zero-skip kernel below this share of nonzero A
 * elements: the crossover of BM_Sgemm's dense and skip kernels on
 * Cora's layer-1 NN (docs/CORRECTNESS.md "Dense GEMM").
 */
constexpr double kSkipBelowDensity = 0.2;

/**
 * One pooled chunk of C rows. Auto picks the kernel from the density
 * of the A the chunk reads: both give the same bits, so chunks may
 * choose differently.
 */
template <class Isa>
void
runChunk(const Problem &pr, const PanelsB &pb, Path path, int64_t i0,
         int64_t i1)
{
    bool skip = false;
    if (pr.skipZeroA && path != Path::Dense) {
        skip = path == Path::Skip;
        if (path == Path::Auto) {
            const int64_t rows = i1 - i0;
            const int64_t nnz =
                pr.aps == 1
                    ? countNonzero<Isa>(pr.a + i0 * pr.ars, rows, pr.k,
                                        pr.ars)
                    : countNonzero<Isa>(pr.a + i0 * pr.ars, pr.k, rows,
                                        pr.aps);
            skip = static_cast<double>(nnz) <
                   kSkipBelowDensity * static_cast<double>(rows * pr.k);
        }
    }
    if (skip)
        skipRows<Isa>(pr, i0, i1);
    else
        denseRows<Isa>(pr, pb, i0, i1);
}

struct Avx512
{
    typedef float Vec __attribute__((vector_size(64)));
    typedef int32_t VecI __attribute__((vector_size(64)));
    static constexpr int kLanes = 16;
    /** The whole 8×32 micro-tile: 16 of the 32 zmm registers. */
    static constexpr int kTileRows = 8;
    static constexpr int kTileVecs = 2;

    __attribute__((target("avx512f,popcnt"))) static int64_t
    compress16(const float *x, int32_t base, float *val, int32_t *idx)
    {
        const __m512 v = _mm512_loadu_ps(x);
        const __mmask16 nz =
            _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_NEQ_UQ);
        const __m512i lane = _mm512_add_epi32(
            _mm512_set1_epi32(base),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                              14, 15));
        _mm512_storeu_ps(val, _mm512_maskz_compress_ps(nz, v));
        _mm512_storeu_si512(idx, _mm512_maskz_compress_epi32(nz, lane));
        return __builtin_popcount(nz);
    }
};

struct Avx2
{
    typedef float Vec __attribute__((vector_size(32)));
    typedef int32_t VecI __attribute__((vector_size(32)));
    static constexpr int kLanes = 8;
    /** 4×16: 8 accumulators, 2 B vectors and a broadcast in 16 ymm. */
    static constexpr int kTileRows = 4;
    static constexpr int kTileVecs = 2;

    __attribute__((target("avx2"))) static int64_t
    compress16(const float *x, int32_t base, float *val, int32_t *idx)
    {
        const __m256 zero = _mm256_setzero_ps();
        unsigned nz =
            static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(
                _mm256_loadu_ps(x), zero, _CMP_NEQ_UQ))) |
            static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(
                _mm256_loadu_ps(x + 8), zero, _CMP_NEQ_UQ)))
                << 8;
        int64_t cnt = 0;
        for (; nz != 0; nz &= nz - 1, ++cnt) {
            const int t = __builtin_ctz(nz);
            val[cnt] = x[t];
            idx[cnt] = base + t;
        }
        return cnt;
    }
};

// `flatten` inlines the generic body, and the ISA hooks it calls, into
// each wrapper, so one source compiles to zmm and to ymm code.
__attribute__((target("avx512f,popcnt"), flatten)) void
chunkAvx512(const Problem &pr, const PanelsB &pb, Path path, int64_t i0,
            int64_t i1)
{
    runChunk<Avx512>(pr, pb, path, i0, i1);
}

__attribute__((target("avx2"), flatten)) void
chunkAvx2(const Problem &pr, const PanelsB &pb, Path path, int64_t i0,
          int64_t i1)
{
    runChunk<Avx2>(pr, pb, path, i0, i1);
}

#endif // __x86_64__

/** Run `pr` on `isa`, one pooled launch split over C rows. */
void
launch(Op op, const Problem &pr, Isa isa, Path path)
{
    // Launch names and grains are the historical ones, so the pool's
    // launch and chunk counters are unchanged.
    const char *name = op == Op::NN   ? "par.sgemm"
                       : op == Op::TN ? "par.sgemm_tn"
                                      : "par.sgemm_nt";
    const int64_t grain = op == Op::TN ? par::grainFor(pr.n, 1) : 16;
    if (isa == Isa::Scalar) {
        par::parallelFor(name, 0, pr.n, grain,
                         [&](int64_t i0, int64_t i1, int) {
                             scalarRows(pr, i0, i1);
                         });
        return;
    }
#if defined(__x86_64__)
    const PanelsB pb = packB(pr);
    const auto chunk = isa == Isa::Avx512 ? &chunkAvx512 : &chunkAvx2;
    par::parallelFor(name, 0, pr.n, grain,
                     [&](int64_t i0, int64_t i1, int) {
                         chunk(pr, pb, path, i0, i1);
                     });
#else
    (void)path;
    gnnperf_panic("gemm: no SIMD build on this architecture");
#endif
}

} // namespace

bool
supported(Isa isa)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    switch (isa) {
      case Isa::Scalar:
        return true;
      case Isa::Avx2:
        return __builtin_cpu_supports("avx2");
      case Isa::Avx512:
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("popcnt");
    }
    return false;
#else
    return isa == Isa::Scalar;
#endif
}

Isa
selected()
{
    // AVX2 first: on a shared Sapphire Rapids host the AVX-512 build
    // made whole training runs spread ~3× wider in CPU time (zmm code
    // moves the core's frequency licence, which its neighbours also
    // move) for ~12% more speed end to end (docs/CORRECTNESS.md).
    static const Isa isa = supported(Isa::Avx2)     ? Isa::Avx2
                           : supported(Isa::Avx512) ? Isa::Avx512
                                                    : Isa::Scalar;
    return isa;
}

const char *
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return "scalar";
      case Isa::Avx2:
        return "avx2";
      case Isa::Avx512:
        return "avx512";
    }
    return "?";
}

Tensor
run(Op op, const Tensor &a, const Tensor &b, Isa isa, Path path)
{
    if (!supported(isa))
        gnnperf_fatal("gemm: this CPU cannot run the ", isaName(isa),
                      " path");
    Problem pr{};
    Tensor c;
    switch (op) {
      case Op::NN:
        gnnperf_assert(a.rank() == 2 && b.rank() == 2 &&
                           a.dim(1) == b.dim(0),
                       "matmul: ", a.describe(), " x ", b.describe());
        c = Tensor({a.dim(0), b.dim(1)}, a.device());
        pr = {a.dim(0), a.dim(1), b.dim(1), a.data(), a.dim(1), 1,
              b.data(), b.dim(1), 1, c.data(), true};
        break;
      case Op::TN:
        gnnperf_assert(a.rank() == 2 && b.rank() == 2 &&
                           a.dim(0) == b.dim(0),
                       "matmulTransA: ", a.describe(), "^T x ",
                       b.describe());
        c = Tensor({a.dim(1), b.dim(1)}, a.device());
        pr = {a.dim(1), a.dim(0), b.dim(1), a.data(), 1, a.dim(1),
              b.data(), b.dim(1), 1, c.data(), true};
        break;
      case Op::NT:
        gnnperf_assert(a.rank() == 2 && b.rank() == 2 &&
                           a.dim(1) == b.dim(1),
                       "matmulTransB: ", a.describe(), " x ",
                       b.describe(), "^T");
        c = Tensor({a.dim(0), b.dim(0)}, a.device());
        pr = {a.dim(0), a.dim(1), b.dim(0), a.data(), a.dim(1), 1,
              b.data(), 1, b.dim(1), c.data(), false};
        break;
    }
    launch(op, pr, isa, path);
    return c;
}

} // namespace gemm

namespace {

void
recordGemm(const char *name, int64_t n, int64_t k, int64_t m)
{
    recordKernel(name, 2.0 * static_cast<double>(n) * k * m,
                 static_cast<double>(n * k + k * m + n * m) *
                     sizeof(float));
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    Tensor c = gemm::run(gemm::Op::NN, a, b, gemm::selected());
    recordGemm("sgemm", a.dim(0), a.dim(1), b.dim(1));
    return c;
}

Tensor
matmulTransA(const Tensor &a, const Tensor &b)
{
    Tensor c = gemm::run(gemm::Op::TN, a, b, gemm::selected());
    recordGemm("sgemm_tn", a.dim(1), a.dim(0), b.dim(1));
    return c;
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    Tensor c = gemm::run(gemm::Op::NT, a, b, gemm::selected());
    recordGemm("sgemm_nt", a.dim(0), a.dim(1), b.dim(0));
    return c;
}

} // namespace ops
} // namespace gnnperf
