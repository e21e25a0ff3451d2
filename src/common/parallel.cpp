#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace awb {

namespace {

std::atomic<int> g_intra_threads{0};

/** Set while a worker executes chunks; nested calls run inline. */
thread_local bool t_in_parallel = false;

} // namespace

void
setIntraThreads(int n)
{
    g_intra_threads.store(n < 0 ? 0 : n, std::memory_order_relaxed);
}

int
intraThreads()
{
    int n = g_intra_threads.load(std::memory_order_relaxed);
    if (n > 0) return n;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

bool
shouldParallelize(std::uint64_t work)
{
    return work >= kParallelMinWork && intraThreads() > 1 && !t_in_parallel;
}

void
parallelFor(std::size_t total, std::size_t grain,
            const std::function<void(std::size_t, std::size_t)> &fn,
            int workers)
{
    if (total == 0) return;
    grain = std::max<std::size_t>(grain, 1);
    const std::size_t n_chunks = (total + grain - 1) / grain;
    workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(workers > 0 ? workers : intraThreads()),
        n_chunks));
    if (workers <= 1 || t_in_parallel) {
        fn(0, total);
        return;
    }

    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        t_in_parallel = true;
        for (;;) {
            std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
            if (c >= n_chunks) break;
            std::size_t begin = c * grain;
            std::size_t end = std::min(begin + grain, total);
            fn(begin, end);
        }
        t_in_parallel = false;
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers) - 1);
    for (int t = 1; t < workers; ++t) pool.emplace_back(worker);
    worker();  // the calling thread participates
    for (auto &t : pool) t.join();
}

} // namespace awb
