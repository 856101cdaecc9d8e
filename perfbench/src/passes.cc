#include "passes.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <iterator>
#include <memory>
#include <system_error>
#include <unordered_map>

#include "gpu/checkpoint.h"
#include "service/diskstore.h"
#include "service/service.h"
#include "util/rng.h"

namespace vkbench {

using namespace vksim;

namespace {

constexpr std::uint64_t kFrameSeedStream = 1;
constexpr std::uint64_t kOrderStream = 2;
constexpr std::uint64_t kSnapshotStream = 3;

/** The memfidelity manifest's per-job defaults (scale, detail, prims). */
wl::WorkloadParams
sweepParams(unsigned size)
{
    wl::WorkloadParams p;
    p.width = size;
    p.height = size;
    p.extScale = 0.25f;
    p.rtv5Detail = 5;
    p.rtv6Prims = 400;
    return p;
}

std::string
lowerName(wl::WorkloadId id)
{
    std::string s = wl::workloadName(id);
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

double
secondsSince(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t)
        .count();
}

/** FNV-1a of a job name: the store key its snapshot file lives under. */
std::uint64_t
jobKey(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : name)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

/** Removes a scratch directory when the pass ends, on every path. */
struct ScratchDir
{
    std::string path;
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

void
fail(JobOutcome &job, const std::string &why)
{
    if (!job.failed)
        job.error = why;
    job.failed = true;
}

} // namespace

bool
makeBench(const std::string &name, std::uint64_t seed, bool tiny,
          unsigned cap, const std::string &workdir, Bench *out)
{
    Bench b;
    b.name = name;
    b.cap = cap;
    b.workdir = workdir;
    const std::uint32_t frame_seed = Pcg32(seed, kFrameSeedStream).nextU32();
    auto add = [&](const std::string &job, wl::WorkloadId id,
                   wl::WorkloadParams params, GpuConfig config) {
        params.shading.frameSeed = frame_seed;
        config.checkLevel = check::CheckLevel::Off;
        config.threads = 1; // serial engine per job; lanes give parallelism
        b.jobs.push_back({job, id, params, config});
    };

    const unsigned size = tiny ? 8 : 32;
    const GpuConfig baseline = baselineGpuConfig();
    const GpuConfig modern =
        applyMemoryVariant(baseline, MemoryVariant::Modern);
    if (name == "frame-busy") {
        b.kind = WorkloadKind::FrameBusy;
        wl::WorkloadParams p;
        p.width = p.height = tiny ? 16 : 48;
        p.rtv5Detail = tiny ? 4 : 7;
        add("rtv5_mobile", wl::WorkloadId::RTV5, p, mobileGpuConfig());
        b.jobs.back().config.threads = cap;
    } else if (name == "sweep-lanes") {
        b.kind = WorkloadKind::SweepLanes;
        for (wl::WorkloadId id : wl::kAllWorkloads) {
            wl::WorkloadParams p = sweepParams(size);
            if (id == wl::WorkloadId::ACC)
                p.frames = 2;
            add(lowerName(id) + "_default", id, p, baseline);
            add(lowerName(id) + "_modern", id, p, modern);
        }
        const GpuConfig mobile_modern =
            applyMemoryVariant(mobileGpuConfig(), MemoryVariant::Modern);
        add("tri_modern_mobile", wl::WorkloadId::TRI,
            sweepParams(size), mobile_modern);
        add("rtv5_modern_mobile", wl::WorkloadId::RTV5,
            sweepParams(size), mobile_modern);
    } else if (name == "sweep-checked") {
        b.kind = WorkloadKind::SweepChecked;
        // Snapshots land early enough to precede the end of the shortest
        // job (RQC and TRI finish after about 7k cycles at 32x32), so
        // every job has a mid-run barrier to capture.
        const Cycle lo = tiny ? 256 : 2048;
        Pcg32 snap(seed, kSnapshotStream);
        for (wl::WorkloadId id : wl::kAllWorkloads) {
            // One frame: a snapshot restores a single launch.
            add(lowerName(id) + "_checked", id, sweepParams(size),
                baseline);
            b.jobs.back().snapshotAt =
                lo + snap.nextBelow(static_cast<std::uint32_t>(lo));
        }
    } else {
        return false;
    }

    // Jobs go in the memfidelity manifest's order. The seed only decides
    // which memory variant of each workload is submitted first: a full
    // shuffle moves the longest jobs to the tail of the batch on some
    // seeds, and that alone swings wall_s by a third.
    if (b.kind == WorkloadKind::SweepLanes) {
        Pcg32 order(seed, kOrderStream);
        for (std::size_t i = 0; i + 1 < 2 * std::size(wl::kAllWorkloads);
             i += 2)
            if (order.nextBelow(2) != 0)
                std::swap(b.jobs[i], b.jobs[i + 1]);
    }
    b.lanes = b.kind == WorkloadKind::FrameBusy ? 1 : cap;
    *out = std::move(b);
    return true;
}

std::size_t
PassResult::failedJobs() const
{
    return static_cast<std::size_t>(
        std::count_if(jobs.begin(), jobs.end(),
                      [](const JobOutcome &j) { return j.failed; }));
}

double
PassResult::simCycles() const
{
    double c = 0.0;
    for (const JobOutcome &j : jobs)
        c += static_cast<double>(j.run.cycles + j.resumedCycles);
    return c;
}

double
PassResult::simHostSeconds() const
{
    double s = 0.0;
    for (const JobOutcome &j : jobs)
        s += j.run.hostSeconds + j.resumeHostSeconds;
    return s;
}

double
PassResult::jobHostSeconds() const
{
    double s = 0.0;
    for (const JobOutcome &j : jobs)
        s += j.run.hostSeconds;
    return s;
}

PassResult
runPass(const Bench &bench, const PassOptions &opt)
{
    SpanRecorder *rec = opt.spans;
    const std::size_t n = bench.jobs.size();
    const bool checked = bench.kind == WorkloadKind::SweepChecked;
    const bool snapshots = checked && opt.snapshots;

    PassResult out;
    out.jobs.resize(n);

    static unsigned pass_counter = 0;
    ScratchDir scratch{bench.workdir + "/store-"
                       + std::to_string(::getpid()) + "-"
                       + std::to_string(pass_counter++)};
    std::unique_ptr<service::DiskStore> store;
    if (checked) {
        std::error_code ec;
        std::filesystem::remove_all(scratch.path, ec);
        store = std::make_unique<service::DiskStore>(scratch.path);
    }

    std::unordered_map<std::string, int> job_index;
    for (std::size_t i = 0; i < n; ++i) {
        job_index[bench.jobs[i].name] = static_cast<int>(i);
        job_index[bench.jobs[i].name + ".resume"] = static_cast<int>(i);
    }
    // Job spans are placed from the completion hook: they end when the
    // job finishes and reach back by the engine's own hostSeconds.
    int batch_span = -1;
    service::SimService::Config svc_config;
    svc_config.threads = opt.lanes ? opt.lanes : bench.lanes;
    if (rec)
        svc_config.onJobComplete = [rec, &job_index,
                                    &batch_span](const service::JobResult &r) {
            const double end = rec->now();
            rec->add("job", job_index.at(r.name), batch_span,
                     end - r.run.hostSeconds, end);
        };
    service::SimService svc(svc_config);
    if (store)
        svc.artifacts().setDiskStore(store.get());
    out.lanesUsed = n == 1 ? 1 : svc.threadCount();

    std::vector<GpuConfig> configs(n);
    for (std::size_t i = 0; i < n; ++i) {
        GpuConfig &c = configs[i];
        c = bench.jobs[i].config;
        if (opt.threads)
            c.threads = opt.threads;
        c.idleSkip = opt.idleSkip;
        if (opt.epochCycles)
            c.epochCycles = opt.epochCycles;
        if (checked && opt.checks) {
            c.checkLevel = check::CheckLevel::Basic;
            c.digestTrace = true;
            // One digest sample per default epoch barrier.
            c.digestPeriod = bench.jobs[i].config.epochCycles;
        }
        if (snapshots)
            c.checkpoint.snapshotAt = bench.jobs[i].snapshotAt;
    }

    // --- Set-up: every job's workload from a cold cache ------------------
    std::vector<std::unique_ptr<wl::Workload>> workloads(n);
    std::vector<std::unique_ptr<wl::Workload>> resume_workloads(n);
    auto setup_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        const JobDef &job = bench.jobs[i];
        ScopedSpan span(rec, "workload.build", static_cast<int>(i));
        workloads[i] = std::make_unique<wl::Workload>(job.id, job.params,
                                                      &svc.artifacts());
    }
    if (snapshots)
        for (std::size_t i = 0; i < n; ++i) {
            const JobDef &job = bench.jobs[i];
            ScopedSpan span(rec, "workload.build", static_cast<int>(i));
            resume_workloads[i] = std::make_unique<wl::Workload>(
                job.id, job.params, &svc.artifacts());
        }
    out.setupS = secondsSince(setup_start);
    if (opt.setupOnly)
        return out;

    // --- Run: first submit to last result --------------------------------
    auto wall_start = std::chrono::steady_clock::now();
    std::vector<service::JobTicket> tickets(n);
    for (std::size_t i = 0; i < n; ++i) {
        ScopedSpan span(rec, "service.submit", static_cast<int>(i));
        tickets[i] = svc.submit(*workloads[i], configs[i], bench.jobs[i].name);
    }
    {
        ScopedSpan span(rec, "service.flush", -1);
        batch_span = span.id();
        svc.flush();
    }
    for (std::size_t i = 0; i < n; ++i) {
        JobOutcome &job = out.jobs[i];
        try {
            service::JobResult r = tickets[i].take();
            job.run = std::move(r.run);
            job.image = std::move(r.image);
        } catch (const std::exception &e) {
            fail(job, e.what());
        }
    }

    std::vector<service::JobTicket> resumes(n);
    if (snapshots) {
        for (std::size_t i = 0; i < n; ++i) {
            JobOutcome &job = out.jobs[i];
            if (job.failed)
                continue;
            if (job.run.snapshot == nullptr) {
                fail(job, "no snapshot captured");
                continue;
            }
            const std::string path =
                store->snapshotPath(jobKey(bench.jobs[i].name));
            const int ji = static_cast<int>(i);
            try {
                {
                    ScopedSpan span(rec, "checkpoint.write", ji);
                    writeSnapshotFile(path, *job.run.snapshot);
                }
                out.checkpointBytes += std::filesystem::file_size(path);
                auto snap = std::make_shared<EngineSnapshot>();
                {
                    ScopedSpan span(rec, "checkpoint.read", ji);
                    *snap = readSnapshotFile(path);
                }
                GpuConfig c = configs[i];
                c.checkpoint.snapshotAt = ~Cycle(0);
                c.checkpoint.resume = std::move(snap);
                resumes[i] = svc.submit(*resume_workloads[i], c,
                                        bench.jobs[i].name + ".resume");
            } catch (const std::exception &e) {
                fail(job, e.what());
            }
        }
        {
            ScopedSpan span(rec, "checkpoint.resume", -1);
            batch_span = span.id();
            svc.flush();
        }
    }
    std::vector<RunResult> resumed(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!resumes[i].valid())
            continue;
        JobOutcome &job = out.jobs[i];
        try {
            resumed[i] = resumes[i].take().run;
            job.resumeHostSeconds = resumed[i].hostSeconds;
            job.resumedCycles = resumed[i].cycles - job.run.snapshot->cycle;
        } catch (const std::exception &e) {
            fail(job, e.what());
        }
    }
    out.wallS = secondsSince(wall_start);

    out.artifacts = svc.artifacts().counters();
    if (store) {
        const service::DiskStore::Counters c = store->counters();
        out.storeOps = c.loads + c.misses + c.stores;
    }

    // --- Verify (outside the timed run) -----------------------------------
    for (std::size_t i = 0; i < n; ++i) {
        JobOutcome &job = out.jobs[i];
        if (job.failed)
            continue;
        job.metricsJson = job.run.metrics.toJson();
        const int ji = static_cast<int>(i);
        if (opt.verify) {
            ScopedSpan span(rec, "verify.reference", ji);
            const ImageDiff diff = compareImages(
                job.image,
                workloads[i]->renderReferenceImage(nullptr, bench.cap));
            if (diff.differingPixels != 0)
                fail(job, std::to_string(diff.differingPixels)
                              + " pixels differ from the CPU reference");
        }
        if (snapshots) {
            const RunResult &r = resumed[i];
            const check::DigestTrace::Divergence d =
                job.run.digests.firstDivergence(r.digests);
            if (r.metrics.toJson() != job.metricsJson)
                fail(job, "restored run's metrics differ");
            else if (d.diverged || r.digests.values.empty()
                     || r.digests.values.back()
                            != job.run.digests.values.back())
                fail(job, "restored run's digest trace diverges");
            else if (resume_workloads[i]->readFramebuffer().data()
                     != job.image.data())
                fail(job, "restored run's image differs");
        }
    }
    if (opt.functional)
        for (std::size_t i = 0; i < n; ++i) {
            if (out.jobs[i].failed)
                continue;
            StatGroup stats;
            auto start = std::chrono::steady_clock::now();
            {
                ScopedSpan span(rec, "vptx.functional", static_cast<int>(i));
                workloads[i]->runFunctional(vptx::WarpCflow::Mode::Stack,
                                            &stats);
            }
            out.functionalS += secondsSince(start);
            out.functionalInsts += stats.get("instructions");
        }
    return out;
}

} // namespace vkbench
