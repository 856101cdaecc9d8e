/**
 * @file
 * Layer drivers: the two layers a profile of serial RTV6 names as the
 * hottest — Cache::access (39% self time) and MemFabric::cycle (38%
 * inclusive) — driven directly through their public APIs with seeded
 * streams, so their host cost is visible apart from the engine around
 * them.
 */

#ifndef VKBENCH_LAYERS_H
#define VKBENCH_LAYERS_H

#include <cstdint>

#include "cache/cache.h"
#include "dram/fabric.h"

namespace vkbench {

struct CacheDriverResult
{
    double nsPerAccess = 0.0; ///< host ns per access() or fill() call
    std::uint64_t calls = 0;  ///< access() + fill() calls made
    std::uint64_t hits = 0;   ///< exact for a fixed seed
};

/**
 * Stream `accesses` sector addresses through one cache: 80% from a hot
 * set twice the cache size, the rest uniformly over 256 MiB, one in
 * eight a write; read misses are filled a fixed latency later.
 */
CacheDriverResult driveCache(const vksim::CacheConfig &config,
                             std::uint64_t seed, std::uint64_t accesses);

struct FabricDriverResult
{
    double nsPerCycle = 0.0;       ///< host ns per MemFabric::cycle()
    std::uint64_t injected = 0;    ///< requests accepted (exact)
    std::uint64_t responses = 0;   ///< responses drained (exact)
};

/**
 * Clock a fabric for `cycles` core cycles, offering one request per
 * cycle from a random SM (mostly sequential per-SM streams) and
 * draining every SM's responses each cycle.
 */
FabricDriverResult driveFabric(const vksim::FabricConfig &config,
                               unsigned num_sms, std::uint64_t seed,
                               std::uint64_t cycles);

} // namespace vkbench

#endif // VKBENCH_LAYERS_H
