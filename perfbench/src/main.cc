/**
 * @file
 * vkbench: the repository benchmark. One command runs one workload
 * through the public SimService API, checks every output, and prints
 * every metric by name and unit; the last stdout line is a JSON object
 * {"correct", "attempted", "failed", "metrics"}.
 *
 *   vkbench --workload frame-busy|sweep-lanes|sweep-checked --seed N
 *           --seconds S --trace 0|1 [--size full|tiny] [--workdir DIR]
 *
 * --trace 0 reports the end-to-end metrics, measured untraced over
 * repeated passes for S seconds. --trace 1 alternates untraced and
 * traced passes for S/2 seconds, then runs the stepping arms and the
 * layer drivers, and reports the per-layer metrics derived from the
 * spans the benchmark records around its calls into each layer.
 *
 * Exit status is 0 only when every job of every pass verified.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "passes.h"
#include "spans.h"

namespace {

using namespace vkbench;
using namespace vksim;

#ifndef VKBENCH_BUILD_TYPE
#define VKBENCH_BUILD_TYPE "unknown"
#endif

/**
 * One reported metric. `target` is the end-to-end metric and workload
 * the metric is expected to move (for end-to-end metrics: what it is).
 */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    const char *target;
};

const MetricDef kEndToEnd[] = {
    {"wall_s", "s", "lower", "host s, first submit to last result"},
    {"sim_cycles_per_s", "1/s", "higher",
     "sum of simulated cycles / sum of RunResult::hostSeconds"},
    {"setup_s", "s", "lower", "building every wl::Workload, cold cache"},
    {"peak_rss_mb", "MiB", "lower", "peak resident memory of the process"},
    {"job_ok_ratio", "ratio", "higher",
     "1 - job_fail_ratio: jobs that ran and verified / jobs attempted"},
};

const MetricDef kPerLayer[] = {
    {"workloads.build_s", "s", "lower", "setup_s @ frame-busy"},
    {"service.artifact_hits", "count", "higher", "setup_s @ sweep-lanes"},
    {"service.artifact_builds", "count", "lower", "setup_s @ sweep-lanes"},
    {"service.flush_s", "s", "lower", "wall_s @ sweep-lanes"},
    {"service.lane_busy_ratio", "ratio", "higher", "wall_s @ sweep-lanes"},
    {"service.queue_wait_s.p50", "s", "lower", "wall_s @ sweep-lanes"},
    {"service.store_ops", "count", "lower", "wall_s @ sweep-checked"},
    {"gpu.run_s", "s", "lower", "sim_cycles_per_s @ all"},
    {"gpu.sim_cycles", "count", "lower", "sim_cycles_per_s @ all (exact)"},
    {"gpu.warp_insts", "count", "lower", "sim_cycles_per_s @ all (exact)"},
    {"gpu.ns_per_warp_inst", "ns", "lower", "sim_cycles_per_s @ all"},
    {"gpu.sm_sleep_ratio", "ratio", "higher",
     "sim_cycles_per_s @ sweep-lanes (high) vs frame-busy (low)"},
    {"gpu.thread_speedup", "x", "higher", "sim_cycles_per_s @ frame-busy"},
    {"gpu.idle_skip_speedup", "x", "higher",
     "sim_cycles_per_s @ sweep-lanes"},
    {"gpu.epoch_speedup", "x", "higher", "sim_cycles_per_s @ frame-busy"},
    {"vptx.functional_s", "s", "lower", "sim_cycles_per_s @ frame-busy"},
    {"vptx.ns_per_warp_inst", "ns", "lower",
     "sim_cycles_per_s @ frame-busy"},
    {"rtunit.node_ops", "count", "lower",
     "sim_cycles_per_s @ frame-busy (exact)"},
    {"rtunit.active_ratio", "ratio", "higher",
     "sim_cycles_per_s @ frame-busy"},
    {"cache.l1_accesses", "count", "lower",
     "sim_cycles_per_s @ sweep-lanes (exact)"},
    {"cache.l1_hit_ratio", "ratio", "higher",
     "sim_cycles_per_s @ sweep-lanes"},
    {"cache.l2_accesses", "count", "lower",
     "sim_cycles_per_s @ sweep-lanes (exact)"},
    {"cache.l2_hit_ratio", "ratio", "higher",
     "sim_cycles_per_s @ sweep-lanes"},
    {"cache.access_ns", "ns", "lower",
     "sim_cycles_per_s @ sweep-lanes (driver, default L1)"},
    {"cache.access_ns.modern", "ns", "lower",
     "sim_cycles_per_s @ sweep-lanes (driver, Modern L1)"},
    {"dram.requests", "count", "lower", "wall_s @ frame-busy (exact)"},
    {"dram.row_hit_ratio", "ratio", "higher", "wall_s @ frame-busy"},
    {"dram.utilization", "ratio", "higher", "wall_s @ frame-busy"},
    {"dram.fabric_cycle_ns", "ns", "lower",
     "wall_s @ frame-busy (driver, default fabric)"},
    {"dram.fabric_cycle_ns.modern", "ns", "lower",
     "wall_s @ frame-busy (driver, Modern fabric)"},
    {"check.sweep_units", "count", "lower",
     "wall_s @ sweep-checked (exact)"},
    {"check.digest_samples", "count", "lower",
     "wall_s @ sweep-checked (exact)"},
    {"check.overhead_ratio", "ratio", "lower", "wall_s @ sweep-checked"},
    {"checkpoint.bytes", "B", "lower", "wall_s @ sweep-checked (exact)"},
    {"checkpoint.write_s", "s", "lower", "wall_s @ sweep-checked"},
    {"checkpoint.read_s", "s", "lower", "wall_s @ sweep-checked"},
    {"checkpoint.resume_s", "s", "lower", "wall_s @ sweep-checked"},
    {"trace.overhead_ratio", "ratio", "lower",
     "traced vs untraced wall_s, this workload"},
    {"span.workload.build.self_s", "s", "lower", "setup_s @ all"},
    {"span.service.submit.self_s", "s", "lower", "wall_s @ all"},
    {"span.service.flush.self_s", "s", "lower", "wall_s @ sweep-lanes"},
    {"span.job.self_s", "s", "lower", "sim_cycles_per_s @ all"},
    {"span.checkpoint.write.self_s", "s", "lower", "wall_s @ sweep-checked"},
    {"span.checkpoint.read.self_s", "s", "lower", "wall_s @ sweep-checked"},
    {"span.checkpoint.resume.self_s", "s", "lower",
     "wall_s @ sweep-checked"},
    {"span.verify.reference.self_s", "s", "lower",
     "none: verification is outside wall_s"},
    {"span.vptx.functional.self_s", "s", "lower",
     "sim_cycles_per_s @ frame-busy"},
};

/** Span names whose self time is reported as span.<name>.self_s. */
const char *const kSpanNames[] = {
    "workload.build",   "service.submit",  "service.flush",
    "job",              "checkpoint.write", "checkpoint.read",
    "checkpoint.resume", "verify.reference", "vptx.functional",
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string workdir = ".bench_build/work";
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a->workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            a->seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            a->seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return false;
            a->trace = value == "1";
        } else if (key == "--size") {
            if (value != "full" && value != "tiny")
                return false;
            a->tiny = value == "tiny";
        } else if (key == "--workdir") {
            a->workdir = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return have_workload && argc % 2 == 1 && a->seconds > 0.0;
}

/** Host CPUs this process may run on (what nproc prints). */
unsigned
affinityCores()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The correctness gate. Every job of every pass must have run and
 * verified; and every job's metrics dump and image must be byte-
 * identical to the first pass's, whatever the pass's lanes, threads,
 * stepping or tracing.
 */
struct Gate
{
    std::vector<std::string> metrics;
    std::vector<std::vector<float>> images;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    check(const Bench &bench, const PassResult &pass, const char *what)
    {
        const bool first = metrics.empty();
        if (first) {
            metrics.resize(pass.jobs.size());
            images.resize(pass.jobs.size());
        }
        for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
            const JobOutcome &job = pass.jobs[i];
            ++attempted;
            std::string error = job.error;
            if (!job.failed && first) {
                metrics[i] = job.metricsJson;
                images[i] = job.image.data();
            } else if (!job.failed && metrics[i] != job.metricsJson) {
                error = "metrics differ from the first pass";
            } else if (!job.failed && images[i] != job.image.data()) {
                error = "image differs from the first pass";
            }
            if (job.failed || !error.empty()) {
                ++failed;
                errors.push_back(std::string(what) + ": "
                                 + bench.jobs[i].name + ": " + error);
            }
        }
    }
};

using Values = std::map<std::string, double>;

/** Set-up-only repetitions before the timed passes: at least kSetupReps
 *  and kSetupSeconds of set-up, at most kMaxSetupReps. */
constexpr std::size_t kSetupReps = 2;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMaxSetupReps = 8;

double
elapsedSince(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t)
        .count();
}

/**
 * Whether another step taking about `step_s` still fits in a budget of
 * `budget_s` seconds counted from `start`.
 */
bool
fits(std::chrono::steady_clock::time_point start, double step_s,
     double budget_s)
{
    return elapsedSince(start) + step_s <= budget_s;
}

void
runEndToEnd(const Bench &bench, const Args &args, Gate &gate, Values &v)
{
    // Set-up alone, several times: a steadier setup_s median, and the
    // allocator and page cache are warm before the first timed pass.
    std::vector<double> setups;
    PassOptions setup_only;
    setup_only.setupOnly = true;
    double setup_total = 0.0;
    while (setups.size() < kSetupReps || setup_total < kSetupSeconds) {
        setups.push_back(runPass(bench, setup_only).setupS);
        setup_total += setups.back();
        if (setups.size() >= kMaxSetupReps)
            break;
    }

    std::vector<double> walls;
    std::vector<double> rates;
    const auto passes_start = std::chrono::steady_clock::now();
    double pass_s = 0.0;
    do {
        const auto pass_start = std::chrono::steady_clock::now();
        PassResult p = runPass(bench, PassOptions());
        gate.check(bench, p, "end-to-end pass");
        walls.push_back(p.wallS);
        setups.push_back(p.setupS);
        rates.push_back(ratio(p.simCycles(), p.simHostSeconds()));
        pass_s = elapsedSince(pass_start);
        std::printf("# pass %zu: setup_s %.4f wall_s %.4f "
                    "sim_cycles_per_s %.1f job_host_s %.4f\n",
                    walls.size(), p.setupS, p.wallS, rates.back(),
                    p.simHostSeconds());
    } while (fits(passes_start, pass_s, args.seconds));

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    v["wall_s"] = median(walls);
    v["sim_cycles_per_s"] = median(rates);
    v["setup_s"] = median(setups);
    v["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    v["job_ok_ratio"] =
        1.0 - ratio(static_cast<double>(gate.failed), gate.attempted);
    std::printf("# end-to-end: medians over %zu passes (setup_s over %zu "
                "set-ups)\n",
                walls.size(), setups.size());
}

/** Sum a per-run quantity over a pass's primary runs. */
template <typename F>
double
sumRuns(const PassResult &p, F f)
{
    double s = 0.0;
    for (const JobOutcome &j : p.jobs)
        s += static_cast<double>(f(j.run));
    return s;
}

/** Counter summed over the given metric paths. */
double
counters(const PassResult &p, std::initializer_list<const char *> paths)
{
    return sumRuns(p, [&](const RunResult &r) {
        std::uint64_t s = 0;
        for (const char *path : paths)
            s += r.metrics.get(path);
        return s;
    });
}

void
printArm(const char *name, double base_s, const char *base_what,
         double arm_s, const char *arm_what)
{
    std::printf("# arm %-22s %s %.3f s / %s %.3f s = %.3fx\n", name,
                arm_what, arm_s, base_what, base_s, ratio(arm_s, base_s));
}

void
runTraced(const Bench &bench, const Args &args, Gate &gate, Values &v)
{
    const bool checked = bench.kind == WorkloadKind::SweepChecked;

    // Untraced and traced passes alternate; the per-layer numbers come
    // from the first traced pass, the overhead from all of them.
    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    double untraced_host_s = 0.0; ///< first untraced pass's job seconds
    std::unique_ptr<PassResult> traced;
    std::unique_ptr<SpanRecorder> spans;
    const auto start = std::chrono::steady_clock::now();
    double pair_s = 0.0;
    do {
        const auto pair_start = std::chrono::steady_clock::now();
        const PassResult u = runPass(bench, PassOptions());
        gate.check(bench, u, "untraced pass");
        untraced_walls.push_back(u.wallS);

        auto rec = std::make_unique<SpanRecorder>();
        PassOptions opt;
        opt.spans = rec.get();
        opt.functional = true;
        auto t = std::make_unique<PassResult>(runPass(bench, opt));
        gate.check(bench, *t, "traced pass");
        traced_walls.push_back(t->wallS);
        if (!traced) {
            untraced_host_s = u.jobHostSeconds();
            traced = std::move(t);
            spans = std::move(rec);
        }
        pair_s = elapsedSince(pair_start);
    } while (fits(start, pair_s, args.seconds / 2)); // the arms take the rest

    // Stepping arms: each changes one knob against a base that differs
    // in nothing else, and each must leave every output byte-identical.
    PassOptions arm;
    arm.verify = false;
    arm.snapshots = false;
    auto run_arm = [&](const PassOptions &o, const char *what) {
        PassResult p = runPass(bench, o);
        gate.check(bench, p, what);
        return p.jobHostSeconds();
    };
    // The end-to-end pass is the base, except where it snapshots.
    const double base_s =
        checked ? run_arm(arm, "base arm") : untraced_host_s;

    PassOptions serial = arm;
    serial.lanes = 1;
    serial.threads = 1;
    const double serial_s = run_arm(serial, "serial arm (1 lane, 1 thread)");
    PassOptions no_skip = arm;
    no_skip.idleSkip = false;
    const double no_skip_s = run_arm(no_skip, "idle-skip-off arm");
    PassOptions lockstep = arm;
    lockstep.epochCycles = 1;
    const double lockstep_s = run_arm(lockstep, "epoch-1 arm");

    // Intra-job threading is frame-busy's mechanism; the sweeps run a
    // serial engine per job by design, so their arm would be a second
    // serial run and reads 0.
    v["gpu.thread_speedup"] = 0.0;
    if (bench.kind == WorkloadKind::FrameBusy) {
        v["gpu.thread_speedup"] = ratio(serial_s, base_s);
        printArm("gpu.thread_speedup", base_s, "cap threads", serial_s,
                 "1 thread");
    }
    v["gpu.idle_skip_speedup"] = ratio(no_skip_s, base_s);
    v["gpu.epoch_speedup"] = ratio(lockstep_s, base_s);
    printArm("gpu.idle_skip_speedup", base_s, "idle-skip on", no_skip_s,
             "idle-skip off");
    printArm("gpu.epoch_speedup", base_s, "default epoch", lockstep_s,
             "epochCycles=1");
    v["check.overhead_ratio"] = 0.0;
    if (checked) {
        PassOptions unchecked = arm;
        unchecked.checks = false;
        const double unchecked_s = run_arm(unchecked, "check-off arm");
        v["check.overhead_ratio"] = ratio(base_s, unchecked_s) - 1.0;
        printArm("check.overhead_ratio+1", unchecked_s, "checks off", base_s,
                 "Basic+digests");
    }

    // Layer drivers, default and Modern geometry.
    const GpuConfig base_cfg = baselineGpuConfig();
    const GpuConfig modern_cfg =
        applyMemoryVariant(base_cfg, MemoryVariant::Modern);
    const std::uint64_t accesses = args.tiny ? 20'000 : 200'000;
    const std::uint64_t fabric_cycles = args.tiny ? 5'000 : 100'000;
    const CacheDriverResult l1_driver =
        driveCache(base_cfg.l1, args.seed, accesses);
    const CacheDriverResult l1_modern =
        driveCache(modern_cfg.l1, args.seed, accesses);
    const FabricDriverResult fabric = driveFabric(
        base_cfg.fabric, base_cfg.numSms, args.seed, fabric_cycles);
    const FabricDriverResult fabric_modern = driveFabric(
        modern_cfg.fabric, modern_cfg.numSms, args.seed, fabric_cycles);
    v["cache.access_ns"] = l1_driver.nsPerAccess;
    v["cache.access_ns.modern"] = l1_modern.nsPerAccess;
    v["dram.fabric_cycle_ns"] = fabric.nsPerCycle;
    v["dram.fabric_cycle_ns.modern"] = fabric_modern.nsPerCycle;
    // The drivers' work, exact for a seed: equal counts on two commits
    // make their ns figures comparable.
    std::printf("# driver cache: %llu calls, %llu hits (Modern: %llu, %llu)"
                "; fabric: %llu injected, %llu responses (Modern: %llu, "
                "%llu) over %llu cycles\n",
                static_cast<unsigned long long>(l1_driver.calls),
                static_cast<unsigned long long>(l1_driver.hits),
                static_cast<unsigned long long>(l1_modern.calls),
                static_cast<unsigned long long>(l1_modern.hits),
                static_cast<unsigned long long>(fabric.injected),
                static_cast<unsigned long long>(fabric.responses),
                static_cast<unsigned long long>(fabric_modern.injected),
                static_cast<unsigned long long>(fabric_modern.responses),
                static_cast<unsigned long long>(fabric_cycles));

    // Counters the runs export (exact for a seed).
    const PassResult &t = *traced;
    const double cycles = sumRuns(t, [](const RunResult &r) {
        return r.cycles;
    });
    double sm_cycle_total = 0.0;
    for (std::size_t i = 0; i < t.jobs.size(); ++i)
        sm_cycle_total += static_cast<double>(t.jobs[i].run.cycles)
                          * bench.jobs[i].config.numSms;
    const double run_s = t.jobHostSeconds();
    const double warp_insts = counters(t, {"gpu.core.issued"});
    v["gpu.run_s"] = run_s;
    v["gpu.sim_cycles"] = cycles;
    v["gpu.warp_insts"] = warp_insts;
    v["gpu.ns_per_warp_inst"] = ratio(run_s * 1e9, warp_insts);
    v["gpu.sm_sleep_ratio"] = ratio(
        sumRuns(t, [](const RunResult &r) { return r.smCyclesSkipped; }),
        sm_cycle_total);
    v["vptx.functional_s"] = t.functionalS;
    v["vptx.ns_per_warp_inst"] =
        ratio(t.functionalS * 1e9, static_cast<double>(t.functionalInsts));
    v["rtunit.node_ops"] = counters(
        t, {"gpu.rt.ops_box", "gpu.rt.ops_triangle", "gpu.rt.ops_transform"});
    v["rtunit.active_ratio"] = ratio(counters(t, {"gpu.rt.busy_cycles"}),
                                     counters(t, {"gpu.rt.unit_cycles"}));
    const double l1 =
        counters(t, {"gpu.l1.accesses.shader", "gpu.l1.accesses.rtunit"});
    const double l2 =
        counters(t, {"gpu.l2.accesses.shader", "gpu.l2.accesses.rtunit"});
    v["cache.l1_accesses"] = l1;
    v["cache.l1_hit_ratio"] = ratio(
        counters(t, {"gpu.l1.hits.shader", "gpu.l1.hits.rtunit"}), l1);
    v["cache.l2_accesses"] = l2;
    v["cache.l2_hit_ratio"] = ratio(
        counters(t, {"gpu.l2.hits.shader", "gpu.l2.hits.rtunit"}), l2);
    const double row_hits = counters(t, {"gpu.dram.row_hits"});
    v["dram.requests"] = counters(t, {"gpu.dram.requests"});
    v["dram.row_hit_ratio"] = ratio(
        row_hits, row_hits + counters(t, {"gpu.dram.row_misses"}));
    v["dram.utilization"] = ratio(counters(t, {"gpu.dram.data_bus_busy"}),
                                  counters(t, {"gpu.dram.cycles"}));
    v["check.sweep_units"] =
        sumRuns(t, [](const RunResult &r) { return r.sweepUnitChecks; });
    v["check.digest_samples"] =
        sumRuns(t, [](const RunResult &r) { return r.digests.samples(); });
    v["checkpoint.bytes"] = static_cast<double>(t.checkpointBytes);
    v["service.artifact_hits"] =
        static_cast<double>(t.artifacts.bvhHits + t.artifacts.pipelineHits);
    v["service.artifact_builds"] = static_cast<double>(
        t.artifacts.bvhBuilds + t.artifacts.pipelineBuilds);
    v["service.store_ops"] = static_cast<double>(t.storeOps);

    // Numbers derived from the spans.
    const std::vector<Span> all = spans->spans();
    const std::map<std::string, double> total = spans->totalSeconds();
    const std::map<std::string, double> self = spans->selfSeconds();
    auto total_of = [&](const char *name) {
        auto it = total.find(name);
        return it == total.end() ? 0.0 : it->second;
    };
    const Span *flush = nullptr;
    for (const Span &s : all)
        if (s.name == "service.flush")
            flush = &s;
    double job_s = 0.0;
    std::vector<double> waits;
    if (flush != nullptr)
        for (const Span &s : all)
            if (s.name == "job" && s.parent == flush->id) {
                job_s += s.end - s.start;
                waits.push_back(std::max(0.0, s.start - flush->start));
            }
    const double flush_s = flush ? flush->end - flush->start : 0.0;
    v["workloads.build_s"] = total_of("workload.build");
    v["service.flush_s"] = flush_s;
    v["service.lane_busy_ratio"] = ratio(job_s, t.lanesUsed * flush_s);
    v["service.queue_wait_s.p50"] = median(waits);
    v["checkpoint.write_s"] = total_of("checkpoint.write");
    v["checkpoint.read_s"] = total_of("checkpoint.read");
    v["checkpoint.resume_s"] = total_of("checkpoint.resume");
    v["trace.overhead_ratio"] =
        ratio(median(traced_walls), median(untraced_walls)) - 1.0;
    for (const char *name : kSpanNames) {
        auto it = self.find(name);
        v[std::string("span.") + name + ".self_s"] =
            it == self.end() ? 0.0 : it->second;
    }

    std::printf("# traced: %zu untraced + %zu traced passes; spans of the "
                "first traced pass\n",
                untraced_walls.size(), traced_walls.size());
    std::printf("# %-20s %6s %12s %12s\n", "span", "count", "total_s",
                "self_s");
    for (const char *name : kSpanNames) {
        const auto count = std::count_if(
            all.begin(), all.end(),
            [&](const Span &s) { return s.name == name; });
        auto it = self.find(name);
        std::printf("# %-20s %6zu %12.6f %12.6f\n", name,
                    static_cast<std::size_t>(count), total_of(name),
                    it == self.end() ? 0.0 : it->second);
    }
    std::filesystem::create_directories(args.workdir);
    const std::string path = args.workdir + "/trace-" + bench.name + "-seed"
                             + std::to_string(args.seed) + ".json";
    if (spans->writeChromeTrace(path))
        std::printf("# spans written to %s\n", path.c_str());
}

/** A value with all its digits; integral values print as integers. */
std::string
formatValue(double x)
{
    char buf[64];
    if (std::isfinite(x) && x == std::floor(x) && std::fabs(x) < 9e15)
        std::snprintf(buf, sizeof buf, "%.0f", x);
    else if (std::isfinite(x))
        std::snprintf(buf, sizeof buf, "%.17g", x);
    else
        std::snprintf(buf, sizeof buf, "0");
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: vkbench --workload frame-busy|sweep-lanes|"
                     "sweep-checked --seed N --seconds S --trace 0|1 "
                     "[--size full|tiny] [--workdir DIR]\n");
        return 2;
    }
    const unsigned host_cores = affinityCores();
    const unsigned cap = std::min(host_cores, 4u);
    Bench bench;
    if (!makeBench(args.workload, args.seed, args.tiny, cap, args.workdir,
                   &bench)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    std::filesystem::create_directories(args.workdir);

    std::printf("# vkbench workload=%s seed=%llu trace=%d size=%s jobs=%zu\n",
                bench.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, args.tiny ? "tiny" : "full",
                bench.jobs.size());
    std::printf("# host_cores=%u nproc=%u cap=%u lanes=%u build=%s\n",
                std::max(1u, std::thread::hardware_concurrency()),
                host_cores, cap, bench.lanes, VKBENCH_BUILD_TYPE);
    std::printf("# simulated results come from an unvalidated model; "
                "hwproxy is a second model, not a hardware measurement\n");
    std::fflush(stdout);

    Gate gate;
    Values values;
    if (args.trace)
        runTraced(bench, args, gate, values);
    else
        runEndToEnd(bench, args, gate, values);

    const bool correct = gate.failed == 0;
    for (const std::string &e : gate.errors)
        std::fprintf(stderr, "vkbench: FAILED %s\n", e.c_str());
    std::printf("# job_fail_ratio %s (%llu of %llu jobs)\n",
                formatValue(ratio(static_cast<double>(gate.failed),
                                  static_cast<double>(gate.attempted)))
                    .c_str(),
                static_cast<unsigned long long>(gate.failed),
                static_cast<unsigned long long>(gate.attempted));

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(gate.attempted);
    json += ", \"failed\": " + std::to_string(gate.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &m : args.trace ? std::vector<MetricDef>(
                                               std::begin(kPerLayer),
                                               std::end(kPerLayer))
                                         : std::vector<MetricDef>(
                                               std::begin(kEndToEnd),
                                               std::end(kEndToEnd))) {
        const std::string value = formatValue(values[m.name]);
        std::printf("metric %-30s %22s %-6s %-6s -> %s\n", m.name,
                    value.c_str(), m.unit, m.better, m.target);
        json += std::string(first ? "" : ", ") + "\"" + m.name
                + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit
                + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
