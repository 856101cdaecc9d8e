/**
 * @file
 * Benchmark-side tracing: spans recorded by the benchmark's own code
 * around each call into a simulator layer. Spans live in memory and are
 * written out once, when the benchmark ends; a null recorder is the
 * untraced run.
 */

#ifndef VKBENCH_SPANS_H
#define VKBENCH_SPANS_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vkbench {

/** One closed interval, in seconds since the recorder was created. */
struct Span
{
    std::string name;
    int id = -1;
    int parent = -1; ///< span that caused this one (-1: none)
    int job = -1;    ///< job index shared by a job's spans (-1: batch)
    double start = 0.0;
    double end = 0.0;
    unsigned tid = 0; ///< small per-recorder thread index
};

/** Thread-safe in-memory span store. */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /** Seconds since the recorder was created. */
    double now() const;

    /** Open a span starting now; close it with close(). */
    int open(const std::string &name, int job, int parent = -1);
    void close(int id);

    /** Record a span whose interval is already known. */
    int add(const std::string &name, int job, int parent, double start,
            double end);

    std::vector<Span> spans() const;

    /**
     * Self time per span name: each span's duration minus the part of
     * its interval covered by the union of its children, summed by name.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Summed duration per span name. */
    std::map<std::string, double> totalSeconds() const;

    /** Write all spans as a Chrome trace ("X" events). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    unsigned threadIndex(); ///< caller holds mutex_

    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_; ///< guards spans_ and tids_
    std::vector<Span> spans_;
    std::vector<std::thread::id> tids_;
};

/** Span over a scope; does nothing when the recorder is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name, int job,
               int parent = -1)
        : rec_(rec), id_(rec ? rec->open(name, job, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder *rec_;
    int id_;
};

} // namespace vkbench

#endif // VKBENCH_SPANS_H
