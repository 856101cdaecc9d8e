/**
 * @file
 * The benchmark workloads and one pass over a workload: set up every
 * job's wl::Workload from a cold artifact cache, run the jobs through
 * one SimService, then verify the outputs. Every simulator call goes
 * through the public API; the spans around those calls are the
 * benchmark's own.
 */

#ifndef VKBENCH_PASSES_H
#define VKBENCH_PASSES_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/vulkansim.h"
#include "service/artifacts.h"
#include "spans.h"

namespace vkbench {

enum class WorkloadKind
{
    FrameBusy,   ///< one paper-scale RTV5 frame, intra-job threads
    SweepLanes,  ///< the 20-job memfidelity set across service lanes
    SweepChecked ///< nine jobs with checks, digests and snapshots
};

struct JobDef
{
    std::string name;
    vksim::wl::WorkloadId id = vksim::wl::WorkloadId::TRI;
    vksim::wl::WorkloadParams params;
    vksim::GpuConfig config;
    /** SweepChecked: cycle of the one-shot mid-run snapshot. */
    vksim::Cycle snapshotAt = ~vksim::Cycle(0);
};

/** A workload: its jobs in submission order plus how to run them. */
struct Bench
{
    WorkloadKind kind = WorkloadKind::FrameBusy;
    std::string name;
    std::vector<JobDef> jobs;
    unsigned cap = 1;     ///< min(nproc, 4): lanes and threads
    unsigned lanes = 1;   ///< service lanes of the end-to-end run
    std::string workdir;  ///< scratch space for on-disk stores
};

/**
 * Build workload `name` ("frame-busy", "sweep-lanes", "sweep-checked")
 * from `seed`, which sets the frame seed, which memory variant of each
 * sweep-lanes workload is submitted first, and the snapshot cycles. `tiny` shrinks every launch for the smoke test.
 * Returns false for an unknown name.
 */
bool makeBench(const std::string &name, std::uint64_t seed, bool tiny,
               unsigned cap, const std::string &workdir, Bench *out);

/** How one pass deviates from the workload's end-to-end settings. */
struct PassOptions
{
    unsigned lanes = 0;       ///< service lanes (0: the workload's)
    unsigned threads = 0;     ///< engine threads (0: each job's own)
    bool idleSkip = true;
    unsigned epochCycles = 0; ///< 0: the engine default
    bool checks = true;       ///< SweepChecked: Basic checks + digests
    bool snapshots = true;    ///< SweepChecked: snapshot, write, read, resume
    bool verify = true;       ///< CPU-reference image comparison
    bool functional = false;  ///< time Workload::runFunctional afterwards
    bool setupOnly = false;   ///< stop after set-up
    SpanRecorder *spans = nullptr;
};

/** What one job produced in a pass. */
struct JobOutcome
{
    bool failed = false;
    std::string error;
    vksim::RunResult run;    ///< primary run
    std::string metricsJson; ///< run.metrics.toJson()
    vksim::Image image;
    double resumeHostSeconds = 0.0;
    vksim::Cycle resumedCycles = 0; ///< cycles simulated after restore
};

struct PassResult
{
    double setupS = 0.0; ///< building every wl::Workload
    double wallS = 0.0;  ///< first submit to last result
    unsigned lanesUsed = 1;
    std::vector<JobOutcome> jobs; ///< in Bench::jobs order
    vksim::service::ArtifactCounters artifacts;
    std::uint64_t storeOps = 0;
    std::uint64_t checkpointBytes = 0;
    double functionalS = 0.0;
    std::uint64_t functionalInsts = 0;

    std::size_t failedJobs() const;
    /** Simulated cycles and the host seconds that simulated them. */
    double simCycles() const;
    double simHostSeconds() const;
    /** Sum of the primary runs' hostSeconds. */
    double jobHostSeconds() const;
};

PassResult runPass(const Bench &bench, const PassOptions &options);

} // namespace vkbench

#endif // VKBENCH_PASSES_H
