#include "parallel/thread_pool.hh"

#include <algorithm>

#include "common/buildinfo.hh"
#include "common/checks.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "parallel/write_check.hh"

namespace gnnperf {
namespace par {

namespace {

/** Set on pool worker threads for their whole lifetime. */
thread_local bool t_onWorker = false;

/** Set while this thread is inside a parallel launch (worker or caller). */
thread_local bool t_inRegion = false;

/**
 * Checked-launch trampoline: run the user's chunk, then log the chunk
 * range into the write-set checker's per-slot log. `ctx` is the
 * (userFn, userCtx) pair published with the launch.
 */
struct CheckedLaunch
{
    ChunkFn fn;
    void *ctx;
};

void
checkedTrampoline(void *ctx, int64_t b, int64_t e, int slot)
{
    auto *launch = static_cast<CheckedLaunch *>(ctx);
    launch->fn(launch->ctx, b, e, slot);
    writecheck::LaunchChecker::instance().noteChunk(slot, b, e);
}

/** One per process: launches never nest (nested calls run inline). */
CheckedLaunch g_checkedLaunch;

} // namespace

ThreadPool &
ThreadPool::instance()
{
    // Leaked, like DeviceManager: workers must outlive every static
    // destructor that might still launch a kernel.
    static ThreadPool *pool = new ThreadPool();  // lint:allow leaked singleton
    return *pool;
}

ThreadPool::ThreadPool() : numThreads_(defaultThreads())
{
    std::lock_guard<std::mutex> lock(mu_);
    spawnWorkersLocked(numThreads_ - 1);
    buildinfo::setRunFact("threads", std::to_string(numThreads_));
}

int
ThreadPool::defaultThreads()
{
    const int64_t env = envInt("GNNPERF_THREADS", 0);
    if (env > 0)
        return static_cast<int>(std::min<int64_t>(env, kMaxThreads));
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1
                   : std::min(static_cast<int>(hc), kMaxThreads);
}

bool
ThreadPool::onWorkerThread()
{
    return t_onWorker;
}

bool
ThreadPool::inParallelRegion()
{
    return t_inRegion;
}

void
ThreadPool::setNumThreads(int n)
{
    gnnperf_assert(!inParallelRegion(),
                   "ThreadPool::setNumThreads inside a parallel region");
    n = std::clamp(n, 1, kMaxThreads);
    std::lock_guard<std::mutex> lock(mu_);
    numThreads_ = n;
    spawnWorkersLocked(n - 1);
    buildinfo::setRunFact("threads", std::to_string(numThreads_));
}

void
ThreadPool::spawnWorkersLocked(int target)
{
    while (static_cast<int>(workers_.size()) < target) {
        const int index = static_cast<int>(workers_.size());
        workers_.emplace_back([this, index] { workerMain(index); });
    }
}

void
ThreadPool::workerMain(int worker_index)
{
    t_onWorker = true;
    uint64_t seen = 0;
    for (;;) {
        int width;
        {
            std::unique_lock<std::mutex> lock(mu_);
            jobCv_.wait(lock, [&] { return generation_ != seen; });
            // Read the launch width under the same lock as the
            // generation: a worker the launch does not use may only
            // reacquire the lock after the *next* launch is published,
            // and must then see that launch's width, not a torn pair.
            seen = generation_;
            width = width_;
        }
        // Worker i owns slot i + 1 (the caller is slot 0); workers
        // beyond the launch width sit this one out. Participants may
        // read the job fields without the lock: the caller is blocked
        // at the barrier until they finish, so nothing mutates them.
        const int slot = worker_index + 1;
        if (slot >= width)
            continue;
        t_inRegion = true;
        uint64_t tasks = 0, steals = 0;
        workOn(slot, width, tasks, steals);
        t_inRegion = false;
        jobTasks_.fetch_add(tasks, std::memory_order_relaxed);
        jobSteals_.fetch_add(steals, std::memory_order_relaxed);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Lock/unlock pairs the notify with the caller's wait so
            // the wake-up cannot be lost between its predicate check
            // and its sleep.
            { std::lock_guard<std::mutex> lock(mu_); }
            doneCv_.notify_one();
        }
    }
}

void
ThreadPool::drainPartition(int part, int slot, uint64_t &tasks,
                           uint64_t &steals)
{
    Partition &p = parts_[part];
    const int64_t end = p.end;
    for (;;) {
        // fetch_add claims a disjoint [b, b + grain) window even under
        // contention; overshoot past `end` just means nothing was left.
        const int64_t b =
            p.cursor.fetch_add(grain_, std::memory_order_relaxed);
        if (b >= end)
            return;
        fn_(ctx_, b, std::min(b + grain_, end), slot);
        ++tasks;
        if (part != slot)
            ++steals;
    }
}

void
ThreadPool::workOn(int slot, int width, uint64_t &tasks,
                   uint64_t &steals)
{
    // Own partition first (static chunking, best locality) ...
    drainPartition(slot, slot, tasks, steals);
    // ... then one stealing sweep over everyone else's leftovers.
    for (int off = 1; off < width; ++off)
        drainPartition((slot + off) % width, slot, tasks, steals);
}

void
ThreadPool::run(const char *name, int64_t begin, int64_t end,
                int64_t grain, ChunkFn fn, void *ctx)
{
    static stats::Counter &launches =
        stats::counter("parallel.launches");
    static stats::Counter &taskCount = stats::counter("parallel.tasks");
    static stats::Counter &stealCount =
        stats::counter("parallel.steals");
    static stats::Counter &barrierWaits =
        stats::counter("parallel.barrier_waits");
    static stats::Gauge &threadsGauge = stats::gauge("parallel.threads");

    HostSpan span(name);

    const int64_t total = end - begin;
    const int64_t chunks = (total + grain - 1) / grain;
    const int width = static_cast<int>(std::min<int64_t>(
        numThreads_, std::min<int64_t>(chunks, kMaxThreads)));

    // Checked builds log every chunk this launch executes and verify
    // disjointness + exact coverage after the barrier. The wrap is
    // decided before the launch is published so workers and caller
    // agree on the trampoline.
    const bool checked = checksEnabled();
    if (checked) {
        writecheck::LaunchChecker::instance().beginLaunch(name, begin,
                                                          end);
        g_checkedLaunch = CheckedLaunch{fn, ctx};
        fn = &checkedTrampoline;
        ctx = &g_checkedLaunch;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        fn_ = fn;
        ctx_ = ctx;
        grain_ = grain;
        width_ = width;
        // Contiguous per-slot partitions: slot s gets
        // [begin + s*base + min(s, rem), ... + base + (s < rem)).
        const int64_t base = total / width;
        const int64_t rem = total % width;
        int64_t at = begin;
        for (int s = 0; s < width; ++s) {
            const int64_t len = base + (s < rem ? 1 : 0);
            parts_[s].cursor.store(at, std::memory_order_relaxed);
            parts_[s].end = at + len;
            at += len;
        }
        if (corruptNextLaunch_) {
            // Seeded partition race (tests only): rewind slot 1's
            // cursor one grain into slot 0's territory so one chunk is
            // claimed twice. The write-set checker must turn this into
            // a deterministic abort.
            corruptNextLaunch_ = false;
            if (width >= 2) {
                const int64_t rewound = std::max(
                    begin, parts_[1].cursor.load(
                               std::memory_order_relaxed) - grain);
                parts_[1].cursor.store(rewound,
                                       std::memory_order_relaxed);
            }
        }
        jobTasks_.store(0, std::memory_order_relaxed);
        jobSteals_.store(0, std::memory_order_relaxed);
        pending_.store(width - 1, std::memory_order_relaxed);
        ++generation_;
    }
    jobCv_.notify_all();

    // The caller is slot 0.
    t_inRegion = true;
    uint64_t tasks = 0, steals = 0;
    workOn(0, width, tasks, steals);
    t_inRegion = false;
    jobTasks_.fetch_add(tasks, std::memory_order_relaxed);
    jobSteals_.fetch_add(steals, std::memory_order_relaxed);

    bool waited = false;
    if (pending_.load(std::memory_order_acquire) != 0) {
        waited = true;
        std::unique_lock<std::mutex> lock(mu_);
        doneCv_.wait(lock, [&] {
            return pending_.load(std::memory_order_acquire) == 0;
        });
    }

    if (checked)
        writecheck::LaunchChecker::instance().endLaunch();

    launches.inc();
    taskCount.inc(jobTasks_.load(std::memory_order_relaxed));
    stealCount.inc(jobSteals_.load(std::memory_order_relaxed));
    if (waited)
        barrierWaits.inc();
    threadsGauge.set(static_cast<double>(numThreads_));
}

int64_t
grainFor(int64_t total, int chunks_per_slot)
{
    const int64_t slots = ThreadPool::instance().numThreads();
    const int64_t chunks =
        std::max<int64_t>(1, slots * std::max(chunks_per_slot, 1));
    return std::max<int64_t>(1, (total + chunks - 1) / chunks);
}

} // namespace par
} // namespace gnnperf
