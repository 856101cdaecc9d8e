#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace vkbench {

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - epoch_)
        .count();
}

unsigned
SpanRecorder::threadIndex()
{
    const std::thread::id self = std::this_thread::get_id();
    auto it = std::find(tids_.begin(), tids_.end(), self);
    if (it != tids_.end())
        return static_cast<unsigned>(it - tids_.begin());
    tids_.push_back(self);
    return static_cast<unsigned>(tids_.size() - 1);
}

int
SpanRecorder::open(const std::string &name, int job, int parent)
{
    const double t = now();
    return add(name, job, parent, t, t);
}

void
SpanRecorder::close(int id)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
}

int
SpanRecorder::add(const std::string &name, int job, int parent,
                  double start, double end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.job = job;
    s.start = start;
    s.end = end;
    s.tid = threadIndex();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<double, double>>> children(all.size());
    for (const Span &s : all)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);

    std::map<std::string, double> self;
    for (const Span &s : all) {
        auto &kids = children[static_cast<std::size_t>(s.id)];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent:
        // children on parallel lanes overlap and must count once.
        double covered = 0.0;
        double cursor = s.start;
        for (auto [b, e] : kids) {
            b = std::max(b, cursor);
            e = std::min(e, s.end);
            if (e > b) {
                covered += e - b;
                cursor = e;
            }
        }
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

std::map<std::string, double>
SpanRecorder::totalSeconds() const
{
    std::map<std::string, double> total;
    for (const Span &s : spans())
        total[s.name] += s.end - s.start;
    return total;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[\n";
    bool first = true;
    char buf[512];
    for (const Span &s : spans()) {
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%d,\"parent\":%d,\"job\":%d}}",
                      first ? "" : ",\n", s.name.c_str(), s.tid,
                      s.start * 1e6, (s.end - s.start) * 1e6, s.id,
                      s.parent, s.job);
        os << buf;
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace vkbench
