#include "accel/round_cache.hpp"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

namespace awb {

std::uint64_t
roundMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31U);
}

std::uint64_t
hashRoundKey(const RoundEntryKey &key)
{
    std::uint64_t h = roundMix64(static_cast<std::uint64_t>(key.netParity) + 1);
    for (int o : key.owners)
        h = roundMix64(h ^ static_cast<std::uint64_t>(o));
    for (std::size_t q : key.arbiter)
        h = roundMix64(h ^ static_cast<std::uint64_t>(q));
    return h;
}

std::uint64_t
roundContextDigest(const CscMatrix &a, const AccelConfig &cfg, int tdq_kind)
{
    std::uint64_t h = roundMix64(0xA3B1C5D7E9F00301ULL);
    h = roundMix64(h ^ static_cast<std::uint64_t>(a.rows()));
    h = roundMix64(h ^ static_cast<std::uint64_t>(a.cols()));
    h = roundMix64(h ^ static_cast<std::uint64_t>(a.nnz()));
    // Structure only: row ids and column extents drive every control
    // decision; values flow exclusively into the functional accumulator.
    std::uint64_t s = h;
    for (Count p : a.colPtr()) s = roundMix64(s ^ static_cast<std::uint64_t>(p));
    for (Index r : a.rowId()) s = roundMix64(s ^ static_cast<std::uint64_t>(r));
    h = roundMix64(h ^ s);
    // Timing-relevant configuration. Platform/engine/policy/chips are
    // excluded on purpose (see the file header in round_cache.hpp).
    h = roundMix64(h ^ static_cast<std::uint64_t>(cfg.numPes));
    h = roundMix64(h ^ static_cast<std::uint64_t>(cfg.numQueuesPerPe));
    h = roundMix64(h ^ static_cast<std::uint64_t>(cfg.sharingHops));
    h = roundMix64(h ^ static_cast<std::uint64_t>(cfg.networkSpeedup));
    h = roundMix64(h ^ static_cast<std::uint64_t>(tdq_kind));
    return h;
}

struct RoundStateCache::Impl
{
    struct Entry
    {
        std::uint64_t context;
        RoundEntryKey key;
        std::shared_ptr<const RoundRecord> record;
    };

    std::atomic<bool> enabled{false};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::vector<Entry>> buckets;
    std::size_t entries = 0;
    std::unordered_set<std::uint64_t> sighted;
};

RoundStateCache &
RoundStateCache::instance()
{
    static RoundStateCache cache;
    return cache;
}

RoundStateCache::Impl &
RoundStateCache::impl() const
{
    static Impl impl;
    return impl;
}

std::shared_ptr<const RoundRecord>
RoundStateCache::lookup(std::uint64_t context, const RoundEntryKey &key)
{
    Impl &im = impl();
    const std::uint64_t h = roundMix64(context ^ hashRoundKey(key));
    std::lock_guard<std::mutex> lock(im.mu);
    auto bucket = im.buckets.find(h);
    if (bucket != im.buckets.end()) {
        for (const auto &e : bucket->second) {
            if (e.context == context && e.key == key) {
                im.hits.fetch_add(1, std::memory_order_relaxed);
                return e.record;
            }
        }
    }
    im.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
}

void
RoundStateCache::insert(std::uint64_t context, const RoundEntryKey &key,
                        std::shared_ptr<const RoundRecord> record)
{
    Impl &im = impl();
    const std::uint64_t h = roundMix64(context ^ hashRoundKey(key));
    std::lock_guard<std::mutex> lock(im.mu);
    auto &bucket = im.buckets[h];
    for (const auto &e : bucket)
        if (e.context == context && e.key == key) return;
    bucket.push_back({context, key, std::move(record)});
    ++im.entries;
}

bool
RoundStateCache::admit(std::uint64_t stream)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    return !im.sighted.insert(stream).second;
}

void
RoundStateCache::setEnabled(bool on)
{
    impl().enabled.store(on, std::memory_order_relaxed);
}

bool
RoundStateCache::enabled() const
{
    return impl().enabled.load(std::memory_order_relaxed);
}

std::uint64_t
RoundStateCache::hits() const
{
    return impl().hits.load(std::memory_order_relaxed);
}

std::uint64_t
RoundStateCache::misses() const
{
    return impl().misses.load(std::memory_order_relaxed);
}

std::size_t
RoundStateCache::size() const
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    return im.entries;
}

void
RoundStateCache::clear()
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.buckets.clear();
    im.entries = 0;
    im.sighted.clear();
    im.hits.store(0, std::memory_order_relaxed);
    im.misses.store(0, std::memory_order_relaxed);
}

} // namespace awb
