#include "layers.h"

#include <chrono>
#include <deque>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace vkbench {

using namespace vksim;

namespace {

constexpr std::uint64_t kCacheStream = 4;
constexpr std::uint64_t kFabricStream = 5;
constexpr Cycle kFillLatency = 200;
constexpr Addr kColdBytes = Addr(256) << 20;

double
secondsSince(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t)
        .count();
}

} // namespace

CacheDriverResult
driveCache(const CacheConfig &config, std::uint64_t seed,
           std::uint64_t accesses)
{
    Cache cache(config);
    Pcg32 rng(seed, kCacheStream);
    const std::uint32_t hot_sectors =
        static_cast<std::uint32_t>(2 * config.sizeBytes / kSectorBytes);
    const std::uint32_t cold_sectors =
        static_cast<std::uint32_t>(kColdBytes / kSectorBytes);

    // Draw the stream up front so the timed loop measures the cache only.
    std::vector<std::pair<Addr, bool>> stream(accesses);
    for (auto &[addr, write] : stream) {
        const bool hot = rng.nextBelow(5) != 0;
        addr = Addr(hot ? rng.nextBelow(hot_sectors)
                        : hot_sectors + rng.nextBelow(cold_sectors))
               * kSectorBytes;
        write = rng.nextBelow(8) == 0;
    }

    CacheDriverResult out;
    std::deque<std::pair<Cycle, Addr>> fills;
    Cycle now = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < accesses; ++i, ++now) {
        while (!fills.empty() && fills.front().first <= now) {
            cache.fill(fills.front().second, now);
            fills.pop_front();
            ++out.calls;
        }
        const auto [addr, write] = stream[i];
        const AccessOrigin origin =
            (i & 1) ? AccessOrigin::RtUnit : AccessOrigin::Shader;
        const CacheOutcome o = cache.access(addr, write, origin, i, now);
        ++out.calls;
        if (o == CacheOutcome::Hit)
            ++out.hits;
        else if (o == CacheOutcome::MissNew && !write)
            fills.emplace_back(now + kFillLatency, addr);
    }
    for (; !fills.empty(); fills.pop_front(), ++out.calls)
        cache.fill(fills.front().second, now);
    out.nsPerAccess = secondsSince(start) * 1e9 / out.calls;
    return out;
}

FabricDriverResult
driveFabric(const FabricConfig &config, unsigned num_sms,
            std::uint64_t seed, std::uint64_t cycles)
{
    MemFabric fabric(config, num_sms);
    Pcg32 rng(seed, kFabricStream);

    // Per-SM sequential streams (row-buffer locality) with a random
    // jump one time in four, drawn up front.
    struct Offer
    {
        unsigned sm;
        Addr addr;
        bool write;
    };
    std::vector<Addr> cursor(num_sms);
    for (unsigned sm = 0; sm < num_sms; ++sm)
        cursor[sm] = Addr(sm) << 24;
    std::vector<Offer> offers(cycles);
    for (Offer &o : offers) {
        o.sm = rng.nextBelow(num_sms);
        if (rng.nextBelow(4) == 0)
            cursor[o.sm] = Addr(rng.nextBelow(1u << 23)) * kSectorBytes;
        else
            cursor[o.sm] += kSectorBytes;
        o.addr = cursor[o.sm];
        o.write = rng.nextBelow(8) == 0;
    }

    FabricDriverResult out;
    const auto start = std::chrono::steady_clock::now();
    for (Cycle now = 0; now < cycles; ++now) {
        const Offer &o = offers[now];
        if (fabric.canAccept(o.sm)) {
            MemRequest req;
            req.addr = o.addr;
            req.write = o.write;
            req.smId = o.sm;
            req.tag = now;
            fabric.inject(req, now);
            ++out.injected;
        }
        fabric.cycle(now);
        for (unsigned sm = 0; sm < num_sms; ++sm)
            out.responses += fabric.drainResponses(sm, now).size();
    }
    out.nsPerCycle = secondsSince(start) * 1e9 / static_cast<double>(cycles);
    return out;
}

} // namespace vkbench
