/**
 * @file
 * Benchmark plumbing shared by every perfbench workload: host timing,
 * the span recorder of the traced run, the exactness fingerprint, the
 * seeded random stream and the run report that becomes the final JSON
 * line.
 *
 * Nothing here calls into the simulator; the workloads in perfbench.cc
 * drive the library's public API and wrap spans around those calls.
 */

#ifndef SBRP_PERFBENCH_HARNESS_HH
#define SBRP_PERFBENCH_HARNESS_HH

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Resident memory of this process now, in MB. */
inline double
residentMb()
{
    long pages = 0, resident = 0;
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Median of a non-empty sample (mean of the middle pair when even). */
inline double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Nearest-rank quantile (q in [0,1]) of a non-empty sample. */
inline double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto rank =
        static_cast<std::size_t>(q * static_cast<double>(xs.size()));
    return xs[std::min(rank, xs.size() - 1)];
}

/** SplitMix64: the seeded stream behind app seeds and point samples. */
inline std::uint64_t
splitmix64(std::uint64_t *state)
{
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * FNV-1a-64 over a stream of 64-bit words. Two passes (or two commits)
 * with equal fingerprints simulated byte-identical work.
 */
class Fingerprint
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

    /** The low 53 bits: exact as a JSON double. */
    std::uint64_t json53() const { return h_ & ((1ull << 53) - 1); }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Host-speed probe. Other tenants of a shared host slow the simulator
 * by up to ~50% for tens of seconds at a time, and no one resource
 * explains it: a pure-ALU loop moved by about half as much, and a
 * dependent random walk over 16 MiB by about two thirds as much. The
 * probe therefore runs a small fixed event loop shaped like the
 * simulator's own work: pop the earliest of 1,024 pending events, read
 * and write a random word of a 32 MiB array, look a key up in a
 * 200,000-entry hash map, allocate and free a small block, push the
 * event back later. It runs none of the program's code. Over 24 windows
 * of short launches, the fastest launch per window tracked this
 * probe's median time with slope 1.00 (the walk: 1.64).
 * Rates are scaled by factor(): the probe's median time over the run
 * divided by its median time on the reference host.
 */
class HostProbe
{
  public:
    /** Median probe time on the reference host (4-vCPU Xeon VM).
        Changing it rescales every rate, so it is fixed. */
    static constexpr double kReferenceS = 1.3e-2;

    HostProbe()
    {
        const double before = residentMb();
        words_.resize(kWords);
        std::uint64_t state = 0x9e3779b9ull;
        for (std::uint64_t &w : words_)
            w = splitmix64(&state);
        map_.reserve(kKeys);
        for (std::uint64_t i = 0; i < kKeys; ++i)
            map_[i * 2654435761ull] = i;
        footprintMb_ = residentMb() - before;
    }

    /** Resident memory the probe adds to the process, in MB. */
    double footprintMb() const { return footprintMb_; }

    /** Takes a sample unless one was taken in the last kIntervalS. Call
        it before timed operations, outside their timing. */
    void
    maybeSample()
    {
        if (!samples_.empty() && secondsSince(last_) < kIntervalS)
            return;
        samples_.push_back(time());
        last_ = Clock::now();
    }

    /** How much slower than the reference host this run's host was. */
    double
    factor() const
    {
        return median(samples_) / kReferenceS;
    }

  private:
    static constexpr std::size_t kWords = std::size_t{1} << 22;  // 32 MiB.
    static constexpr std::uint64_t kKeys = 200000;
    static constexpr int kEvents = 1024;
    static constexpr int kSteps = 25000;
    static constexpr double kIntervalS = 0.25;

    /** One probe run from the same start state; returns its seconds. */
    double
    time()
    {
        using Event = std::pair<std::uint64_t, std::uint32_t>;
        const auto t0 = Clock::now();
        std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
        std::uint64_t state = 7, acc = 0;
        for (std::uint32_t i = 0; i < kEvents; ++i)
            q.push({splitmix64(&state) & 0xffff, i});
        for (int step = 0; step < kSteps; ++step) {
            const Event e = q.top();
            q.pop();
            const std::uint64_t r = splitmix64(&state);
            acc += words_[r % kWords];
            words_[(r >> 24) % kWords] += e.second;
            const auto it = map_.find((r % kKeys) * 2654435761ull);
            if (it != map_.end())
                acc += it->second;
            auto block = std::make_unique<std::uint64_t[]>(1 + (r & 7));
            block[0] = acc;
            acc += block[0] & 1;
            q.push({e.first + (r & 63), e.second});
        }
        sink_ = acc;
        return secondsSince(t0);
    }

    std::vector<std::uint64_t> words_;
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
    std::vector<double> samples_;
    Clock::time_point last_;
    double footprintMb_ = 0.0;
    volatile std::uint64_t sink_ = 0;
};

/**
 * In-memory span recorder for the traced run: a span is a name and the
 * host time between its construction and destruction. When disabled,
 * opening a span costs one branch and records nothing.
 */
class Tracer
{
  public:
    class Span
    {
      public:
        Span(Tracer *t, const char *name)
            : t_(t->enabled_ ? t : nullptr), name_(name)
        {
            if (t_)
                t0_ = Clock::now();
        }
        ~Span()
        {
            if (t_)
                t_->records_.push_back({name_, secondsSince(t0_)});
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *t_;
        const char *name_;
        Clock::time_point t0_;
    };

    void setEnabled(bool on) { enabled_ = on; }

    Span span(const char *name) { return Span(this, name); }

    /** Durations (ms) of every span with this name. */
    std::vector<double>
    durationsMs(const std::string &name) const
    {
        std::vector<double> out;
        for (const Record &r : records_) {
            if (r.name == name)
                out.push_back(r.seconds * 1e3);
        }
        return out;
    }

    /** Summed seconds of every span with this name. */
    double
    totalSeconds(const std::string &name) const
    {
        double s = 0.0;
        for (const Record &r : records_) {
            if (r.name == name)
                s += r.seconds;
        }
        return s;
    }

  private:
    struct Record
    {
        std::string name;
        double seconds;
    };

    bool enabled_ = false;
    std::vector<Record> records_;
};

/** One printed metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * What a run reports: judged operations, whether the benchmark could
 * vouch for its own measurement, and the metrics by name.
 */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when the run does not measure what the workload claims:
        a workload-split sanity assertion broke. Operations that fail
        (including repeat passes that do not reproduce the first) count
        in `failed`. */
    bool correct = true;
    std::map<std::string, Metric> metrics;

    void
    judge(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }

    void
    broken(const std::string &why)
    {
        correct = false;
        std::fprintf(stderr, "perfbench: INCORRECT %s\n", why.c_str());
    }

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

} // namespace perfbench

#endif // SBRP_PERFBENCH_HARNESS_HH
