/**
 * @file
 * The repository benchmark: four workloads over the library's public
 * API, one workload per process, one thread.
 *
 *   perfbench --workload <figure_sbrp|figure_baselines|crash_campaign|
 *                         mc_corpus>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--tiny] [--unsafe-relaxed-order]
 *
 * A workload is a deterministic *pass* (a fixed list of operations
 * derived from the seed) repeated until the run length is used up.
 * "Every repeat pass reproduces the first one's exactness fingerprint
 * and counts" is one more judged operation per run.
 * With --trace 0 the last stdout line carries the end-to-end metrics;
 * with --trace 1 passes alternate untraced/traced, spans are recorded
 * around the calls into each layer, and the line carries the per-layer
 * metrics plus the traced/untraced wall ratio. perfbench/README.md
 * explains every workload and metric.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/app.hh"
#include "apps/registry.hh"
#include "common/config.hh"
#include "crashtest/scenario.hh"
#include "formal/checker.hh"
#include "formal/litmus_corpus.hh"
#include "formal/trace.hh"
#include "gpu/gpu_system.hh"
#include "harness.hh"
#include "mc/explorer.hh"
#include "mem/nvm_device.hh"
#include "obs/timeseries.hh"

namespace perfbench
{

using namespace sbrp;

/** Per-layer metrics every traced run prints (BENCHMARK.json order). */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"gpu.launch_s", "s"},
    {"gpu.host_ns_per_sim_cycle.sbrp", "ns/cycle"},
    {"gpu.host_ns_per_sim_cycle.epoch", "ns/cycle"},
    {"gpu.host_ns_per_sim_cycle.gpm", "ns/cycle"},
    {"gpu.host_ns_per_sim_cycle.barrier", "ns/cycle"},
    {"gpu.construct_ms", "ms"},
    {"gpu.issue_attempts", "count"},
    {"gpu.model_retries", "count"},
    {"gpu.retry_share", "ratio"},
    {"gpu.retry_share_max", "ratio"},
    {"gpu.sim_cycles", "cycles"},
    {"gpu.l1_accesses", "count"},
    {"mem.nvm_commits", "count"},
    {"persist.coalesce_stalls", "count"},
    {"persist.pb_full_stalls", "count"},
    {"persist.flushes", "count"},
    {"persist.writes", "count"},
    {"apps.kernel_build_ms", "ms"},
    {"apps.kernel_instructions", "count"},
    {"apps.verify_ms", "ms"},
    {"crashtest.probe_s", "s"},
    {"crashtest.point_ms.p50", "ms"},
    {"crashtest.point_ms.p90", "ms"},
    {"crashtest.points_enumerated", "count"},
    {"crashtest.points_run", "count"},
    {"crashtest.points_failed", "count"},
    {"crashtest.clean_pmo_violations", "count"},
    {"crashtest.ledger_cycles", "cycles"},
    {"formal.pmo_check_ms", "ms"},
    {"formal.persists_checked", "count"},
    {"formal.rel_acq_edges", "count"},
    {"mc.schedules_explored", "count"},
    {"mc.alternatives_pruned", "count"},
    {"mc.prune_ratio", "ratio"},
    {"mc.minimize_runs", "count"},
    {"mc.violations_found", "count"},
    {"trace.overhead", "ratio"},
    {"exact.sim_cycles", "cycles"},
    {"exact.fingerprint", "digest"},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Test-scale inputs and a single measured pass (self-test). */
    bool tiny = false;
    /** Seeded persist-order bug on every SBRP run (self-test). */
    bool unsafeRelaxed = false;
};

/** One pass of a workload. */
struct Pass
{
    /** Per timed operation (a cell launch + verify, a crash point, an
        explore call): host seconds, split into chunks that do the same
        work in every pass, and work done in the workload's rate unit
        (simulated Mcycles, crash points, schedules). A cell launch is
        split at fixed simulated-cycle boundaries (kChunkCycles), its
        verify() is one more chunk; other operations are one chunk. */
    std::vector<std::vector<double>> opS;
    std::vector<double> opWork;
    std::uint64_t simCycles = 0;
    Fingerprint fp;
    /** Deterministic counts of this pass, by metric name (names not in
        kLayerMetrics are internal). */
    std::map<std::string, double> counts;
};

/** Input seed for the apps: nonzero, a pure function of --seed and of
    which of a cell's inputs it is. */
std::uint64_t
appSeed(std::uint64_t seed, unsigned input = 0)
{
    std::uint64_t s = (seed ^ 0x5bd1e995ull) + input * 0x632be59bd9b4e019ull;
    return splitmix64(&s) | 1;
}

const char *
modelKey(ModelKind m)
{
    switch (m) {
      case ModelKind::Sbrp: return "sbrp";
      case ModelKind::Epoch: return "epoch";
      case ModelKind::Gpm: return "gpm";
      case ModelKind::ScopedBarrier: return "barrier";
    }
    return "?";
}

/** Digest of every named NVM region's durable bytes, in name order. */
std::uint64_t
durableDigest(const NvmDevice &nvm)
{
    Fingerprint fp;
    std::uint8_t buf[256];
    for (const auto &[name, region] : nvm.table()) {
        for (char c : name)
            fp.add(static_cast<std::uint8_t>(c));
        for (std::uint64_t off = 0; off < region.size; off += sizeof(buf)) {
            auto len = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(sizeof(buf), region.size - off));
            nvm.durable().readBlock(region.base + off, buf, len);
            for (std::uint32_t i = 0; i < len; ++i)
                fp.add(buf[i]);
        }
    }
    return fp.value();
}

class Workload
{
  public:
    Workload(const Options &o, Report &rep, Tracer &tr, HostProbe &probe,
             const char *rate_name, const char *rate_unit)
        : rateName(rate_name), rateUnit(rate_unit), opt_(o), rep_(rep),
          tr_(tr), probe_(probe)
    {
    }
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Untimed preparation before the first pass. */
    virtual void prepare() {}

    /** One deterministic pass; the tracer is on in traced passes. */
    virtual Pass pass() = 0;

    /** Per-layer metrics measured outside the passes. */
    virtual void layerMetrics(std::size_t /*traced_passes*/) {}

    /** Assertions over the whole run (workload-split sanity). */
    virtual void finish() {}

    /** How many untraced passes, the first ones, the rate is estimated
        from. A fixed number keeps the fastest-repeat estimate from
        depending on how many passes the host's speed let fit: with
        4,096-cycle chunks, the fastest of four passes read 15-20%
        faster than the fastest of three. */
    virtual std::size_t estimatePasses() const { return SIZE_MAX; }

    /** setup_s: the sum over set-up items (a cell, an app, an explore
        call) of each item's median set-up time across its samples. */
    double
    setupSeconds() const
    {
        double s = 0.0;
        for (const std::vector<double> &samples : setup_)
            s += median(samples);
        return s;
    }

    /** What work_per_s means on this workload, and its unit. */
    const char *rateName;
    const char *rateUnit;

  protected:
    /** One set-up time sample (seconds) of item `item`. */
    void
    addSetup(std::size_t item, double s)
    {
        if (setup_.size() <= item)
            setup_.resize(item + 1);
        setup_[item].push_back(s);
    }

    const Options &opt_;
    Report &rep_;
    Tracer &tr_;
    HostProbe &probe_;

  private:
    std::vector<std::vector<double>> setup_;
};

// ---------------------------------------------------------------------
// figure_sbrp / figure_baselines
// ---------------------------------------------------------------------

struct Cell
{
    std::string app;
    ModelKind model;
    SystemDesign design;
    unsigned input = 0;   ///< Which of the seed's app inputs (appSeed).

    std::string
    label() const
    {
        return app + "/" + toString(model) + "/" + toString(design) +
               (input ? "#" + std::to_string(input) : "");
    }
};

/** Everything one crash-free cell launch produced. */
struct CellResult
{
    Cycle cycles = 0;
    bool verified = false;
    std::uint64_t nvmDigest = 0;
    std::uint64_t nvmCommits = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t coalesceStalls = 0;
    std::uint64_t pbFullStalls = 0;
    std::uint64_t flushes = 0;
    std::uint64_t persistWrites = 0;
    std::uint64_t kernelInstructions = 0;
    std::uint64_t pmoViolations = 0;
    std::uint64_t persistsChecked = 0;
    std::uint64_t relAcqEdges = 0;
    double pmoCheckMs = 0.0;
};
static_assert(std::is_trivially_copyable_v<CellResult>,
              "oracle results cross a pipe as raw bytes");

/** Simulated cycles per timing chunk of a cell launch. */
constexpr Cycle kChunkCycles = 4096;

/** A cell set up for its launch. Members are destroyed in reverse
    order, so the GpuSystem goes before the NVM device, trace and
    window sampler it refers to. */
struct PreparedCell
{
    std::unique_ptr<PmApp> app;
    std::unique_ptr<NvmDevice> nvm;
    std::unique_ptr<ExecutionTrace> trace;
    /** Closes a window every kChunkCycles simulated cycles; its
        host-clock gauge splits the launch's host time into chunks. */
    std::unique_ptr<MetricsTimeseries> windows;
    std::optional<GpuSystem> gpu;
    std::optional<KernelProgram> kernel;
};

class FigureWorkload : public Workload
{
  public:
    /**
     * @param cells         the timed cells of every pass.
     * @param sbrp          figure_sbrp: judge each cell in an oracle
     *                      pass with the PMO checker, and assert a
     *                      poll-bound cell. Else figure_baselines: judge
     *                      by verify() in the first pass (the checker
     *                      costs ~10 s on these 24 cells), and assert
     *                      zero model retries.
     * @param judged_only   figure_sbrp: cells judged in the oracle pass
     *                      but not timed.
     */
    FigureWorkload(const Options &o, Report &rep, Tracer &tr,
                   HostProbe &probe, std::vector<Cell> cells, bool sbrp,
                   std::vector<Cell> judged_only = {})
        : Workload(o, rep, tr, probe, "sim_mcycles_per_s", "Mcycles/s"),
          cells_(std::move(cells)), judgedOnly_(std::move(judged_only)),
          sbrp_(sbrp)
    {
    }

    /** Set-up rounds, then (figure_sbrp) the oracle pass: every cell
        once with the formal trace attached, judged by verify() and the
        PMO checker. The oracle runs in a child process, so its traces
        stay out of this process's peak RSS. */
    void
    prepare() override
    {
        // Round 0 warms the heap up and is not recorded.
        const int rounds = opt_.tiny ? 1 : kSetupRounds;
        for (int round = 0; round <= rounds; ++round) {
            for (std::size_t i = 0; i < cells_.size(); ++i) {
                PreparedCell pc;
                const double secs = setUp(cells_[i], false, pc);
                if (round > 0)
                    addSetup(i, secs);
            }
        }
        if (!sbrp_)
            return;
        std::vector<Cell> judged = cells_;
        judged.insert(judged.end(), judgedOnly_.begin(), judgedOnly_.end());
        const std::vector<CellResult> oracle = oracleResults(judged);
        for (std::size_t i = 0; i < judged.size(); ++i) {
            const CellResult &r = oracle[i];
            judge(judged[i], r);
            if (i < cells_.size())
                ref_.push_back(r);
            pmoCheckMs_ += r.pmoCheckMs;
            persistsChecked_ += r.persistsChecked;
            relAcqEdges_ += r.relAcqEdges;
        }
    }

    Pass
    pass() override
    {
        Pass p;
        double share_max = 0.0;
        std::string diff;   // First cell that differs from the oracle.
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Cell &c = cells_[i];
            std::vector<double> chunks;
            CellResult r = runCell(c, &chunks);
            if (i == ref_.size()) {
                judge(c, r);
                ref_.push_back(r);
            } else if (!firstPassDone_ && diff.empty() &&
                       (r.cycles != ref_[i].cycles ||
                        r.nvmDigest != ref_[i].nvmDigest ||
                        r.verified != ref_[i].verified)) {
                diff = c.label() + " cycles " +
                       std::to_string(ref_[i].cycles) + " -> " +
                       std::to_string(r.cycles);
            }
            p.opS.push_back(std::move(chunks));
            p.opWork.push_back(static_cast<double>(r.cycles) / 1e6);
            p.simCycles += r.cycles;
            p.fp.add(r.cycles);
            p.fp.add(r.nvmDigest);
            p.fp.add(r.verified);
            auto &k = p.counts;
            k["gpu.issue_attempts"] += r.attempts;
            k["gpu.model_retries"] += r.retries;
            k["gpu.sim_cycles"] += r.cycles;
            k["gpu.l1_accesses"] += r.l1Accesses;
            k["mem.nvm_commits"] += r.nvmCommits;
            k["persist.coalesce_stalls"] += r.coalesceStalls;
            k["persist.pb_full_stalls"] += r.pbFullStalls;
            k["persist.flushes"] += r.flushes;
            k["persist.writes"] += r.persistWrites;
            k["apps.kernel_instructions"] += r.kernelInstructions;
            k[std::string("cycles.") + modelKey(c.model)] += r.cycles;
            if (r.attempts)
                share_max = std::max(share_max,
                                     static_cast<double>(r.retries) /
                                         static_cast<double>(r.attempts));
        }
        auto &k = p.counts;
        k["gpu.retry_share"] = k["gpu.issue_attempts"] > 0
            ? k["gpu.model_retries"] / k["gpu.issue_attempts"] : 0.0;
        k["gpu.retry_share_max"] = share_max;
        k["exact.sim_cycles"] = static_cast<double>(p.simCycles);
        // Untraced launches must reproduce the traced oracle runs; the
        // run loop compares every later pass with this one.
        if (sbrp_ && !firstPassDone_)
            rep_.judge(diff.empty(),
                       "first pass reproduces the oracle pass " + diff);
        firstPassDone_ = true;
        return p;
    }

    std::size_t estimatePasses() const override { return 3; }

    void
    layerMetrics(std::size_t traced) override
    {
        const double n = static_cast<double>(traced);
        double launch_s = 0.0;
        for (ModelKind m : {ModelKind::Sbrp, ModelKind::Epoch,
                            ModelKind::Gpm, ModelKind::ScopedBarrier}) {
            const std::string key = modelKey(m);
            const double s = tr_.totalSeconds("gpu.launch." + key) / n;
            launch_s += s;
            double cycles = 0.0;
            for (std::size_t i = 0; i < cells_.size(); ++i) {
                if (cells_[i].model == m)
                    cycles += static_cast<double>(ref_[i].cycles);
            }
            rep_.set("gpu.host_ns_per_sim_cycle." + key,
                     cycles > 0 ? s * 1e9 / cycles : 0.0, "ns/cycle");
        }
        rep_.set("gpu.launch_s", launch_s, "s");
        rep_.set("gpu.construct_ms",
                 median(tr_.durationsMs("gpu.construct")), "ms");
        rep_.set("apps.kernel_build_ms",
                 tr_.totalSeconds("apps.kernel_build") * 1e3 / n, "ms");
        rep_.set("apps.verify_ms",
                 tr_.totalSeconds("apps.verify") * 1e3 / n, "ms");
        rep_.set("formal.pmo_check_ms", pmoCheckMs_, "ms");
        rep_.set("formal.persists_checked",
                 static_cast<double>(persistsChecked_), "count");
        rep_.set("formal.rel_acq_edges",
                 static_cast<double>(relAcqEdges_), "count");
    }

    void
    finish() override
    {
        double share_max = 0.0;
        std::uint64_t retries = 0;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const CellResult &r = ref_[i];
            const double share = r.attempts
                ? static_cast<double>(r.retries) / r.attempts : 0.0;
            share_max = std::max(share_max, share);
            retries += r.retries;
            std::printf("cell %-28s cycles=%llu retry_share=%.4f "
                        "verify=%s pmo_violations=%s\n",
                        cells_[i].label().c_str(),
                        static_cast<unsigned long long>(r.cycles), share,
                        r.verified ? "ok" : "WRONG",
                        sbrp_ ? std::to_string(r.pmoViolations).c_str()
                              : "unchecked");
        }
        // Workload-split sanity: figure_sbrp must contain a poll-bound
        // cell, figure_baselines must never enter the model-retry path.
        if (sbrp_ && share_max < 0.9)
            rep_.broken("no figure_sbrp cell has retry_share >= 0.9");
        if (!sbrp_ && retries != 0)
            rep_.broken("figure_baselines made " + std::to_string(retries) +
                        " model retries (expected 0)");
    }

  private:
    /** Set-up samples per cell, taken before the first pass. */
    static constexpr int kSetupRounds = 11;
    /** Retained windows per launch: more than any bench-scale cell
        needs (HM/far: 75), so none is dropped. */
    static constexpr std::size_t kMaxChunks = 1u << 14;

    /** Runs the cells as oracles in a forked child and reads the
        results back through a pipe. */
    std::vector<CellResult>
    oracleResults(const std::vector<Cell> &cells)
    {
        std::vector<CellResult> out(cells.size());
        char *const bytes = reinterpret_cast<char *>(out.data());
        const std::size_t size = out.size() * sizeof(CellResult);
        int fds[2];
        if (pipe(fds) != 0)
            throw std::runtime_error("oracle pass: pipe failed");
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid < 0)
            throw std::runtime_error("oracle pass: fork failed");
        if (pid == 0) {
            close(fds[0]);
            int code = 0;
            try {
                for (std::size_t i = 0; i < cells.size(); ++i)
                    out[i] = runCell(cells[i], nullptr);
                for (std::size_t n = 0; n < size && code == 0;) {
                    const ssize_t w = write(fds[1], bytes + n, size - n);
                    code = w > 0 ? 0 : 1;
                    n += w > 0 ? static_cast<std::size_t>(w) : 0;
                }
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: oracle pass: %s\n",
                             e.what());
                code = 1;
            }
            std::fflush(stderr);
            _exit(code);
        }
        close(fds[1]);
        std::size_t n = 0;
        while (n < size) {
            const ssize_t r = read(fds[0], bytes + n, size - n);
            if (r <= 0)
                break;
            n += static_cast<std::size_t>(r);
        }
        close(fds[0]);
        int status = 0;
        pid_t done;
        do {
            done = waitpid(pid, &status, 0);
        } while (done < 0 && errno == EINTR);
        if (done != pid || n != size || !WIFEXITED(status) ||
                WEXITSTATUS(status) != 0)
            throw std::runtime_error("oracle pass: child process failed");
        return out;
    }

    void
    judge(const Cell &c, const CellResult &r)
    {
        rep_.judge(r.verified && r.pmoViolations == 0,
                   c.label() + ": verify=" + (r.verified ? "ok" : "WRONG") +
                       ", " + std::to_string(r.pmoViolations) +
                       " PMO violations");
    }

    /** Everything before the launch: app construction, setupNvm,
        GpuSystem construction, setupGpu and forward(). Returns its
        host seconds. */
    double
    setUp(const Cell &c, bool oracle, PreparedCell &pc)
    {
        SystemConfig cfg = opt_.tiny
            ? SystemConfig::testDefault(c.model, c.design)
            : SystemConfig::paperDefault(c.model, c.design);
        cfg.unsafeRelaxedPersistOrder =
            opt_.unsafeRelaxed && c.model == ModelKind::Sbrp;

        const auto t0 = Clock::now();
        {
            auto s = tr_.span("apps.construct");
            pc.app = makeRegisteredApp(c.app, c.model, !opt_.tiny,
                                       appSeed(opt_.seed, c.input));
            if (!pc.app)
                throw std::runtime_error("unknown app " + c.app);
            pc.nvm = std::make_unique<NvmDevice>();
            pc.app->setupNvm(*pc.nvm);
        }
        if (oracle)
            pc.trace = std::make_unique<ExecutionTrace>();
        else
            pc.windows = std::make_unique<MetricsTimeseries>(
                kChunkCycles, kMaxChunks);
        {
            auto s = tr_.span("gpu.construct");
            pc.gpu.emplace(cfg, *pc.nvm, pc.trace.get(), nullptr, nullptr,
                           pc.windows.get());
        }
        {
            auto s = tr_.span("apps.setup_gpu");
            pc.app->setupGpu(*pc.gpu);
        }
        // After setupGpu: kernels read the GDDR input addresses it
        // allocates.
        {
            auto s = tr_.span("apps.kernel_build");
            pc.kernel.emplace(pc.app->forward());
        }
        return secondsSince(t0);
    }

    /** Runs one cell. As the oracle when `chunks` is null: untimed,
        with the formal trace attached and checked. Else fills `chunks`
        with the host seconds of each launch chunk and of verify(). */
    CellResult
    runCell(const Cell &c, std::vector<double> *chunks)
    {
        const bool oracle = chunks == nullptr;
        CellResult r;
        PreparedCell pc;
        setUp(c, oracle, pc);

        if (chunks)
            probe_.maybeSample();
        const auto t1 = Clock::now();
        if (pc.windows) {
            pc.windows->addGauge("host_ns", [t1] {
                return static_cast<std::uint64_t>(secondsSince(t1) * 1e9);
            });
        }
        GpuSystem::LaunchResult res;
        {
            const std::string name =
                std::string("gpu.launch.") + modelKey(c.model);
            auto s = tr_.span(name.c_str());
            res = pc.gpu->launch(*pc.kernel);
        }
        const double launch_s = secondsSince(t1);
        if (chunks) {
            // Window gauges are host times at each chunk boundary; the
            // last chunk runs to the end of launch().
            double prev = 0.0;
            if (pc.windows->windowsDropped() == 0) {
                for (const MetricsWindow &w : pc.windows->windows()) {
                    const double at = w.gauges.at("host_ns") * 1e-9;
                    chunks->push_back(at - prev);
                    prev = at;
                }
            }
            chunks->push_back(launch_s - prev);
        }

        r.cycles = res.cycles;
        const StatRegistry &st = pc.gpu->stats();
        r.attempts = pc.gpu->sumSmStat("instructions");
        r.retries = pc.gpu->sumSmStat("model_retries");
        r.l1Accesses = st.sum("sm", "read_hits") +
                       st.sum("sm", "read_misses") +
                       st.sum("sm", "persist_stores") +
                       st.sum("sm", "volatile_stores");
        r.coalesceStalls = st.sum("sm", "coalesce_stalls");
        r.pbFullStalls = st.sum("sm", "pb_full_stalls");
        r.flushes = st.sum("sm", "flushes");
        r.persistWrites = st.sum("fabric", "persist_writes");
        r.kernelInstructions = pc.kernel->totalInstructions();
        pc.gpu.reset();   // Power-off before judging the durable image.

        const auto t2 = Clock::now();
        {
            auto s = tr_.span("apps.verify");
            r.verified = pc.app->verify(*pc.nvm);
        }
        if (chunks)
            chunks->push_back(secondsSince(t2));
        r.nvmCommits = pc.nvm->commitCount();
        r.nvmDigest = durableDigest(*pc.nvm);

        if (oracle) {
            const auto t3 = Clock::now();
            PmoChecker checker(*pc.trace);
            r.pmoViolations = checker.check().size();
            r.pmoCheckMs = secondsSince(t3) * 1e3;
            r.persistsChecked = checker.stats().persists;
            r.relAcqEdges = checker.stats().relAcqEdgesChecked;
        }
        return r;
    }

    std::vector<Cell> cells_;
    std::vector<Cell> judgedOnly_;
    bool sbrp_;
    /** Each cell's judged run: the oracle pass, else the first pass. */
    std::vector<CellResult> ref_;
    bool firstPassDone_ = false;
    double pmoCheckMs_ = 0.0;
    std::uint64_t persistsChecked_ = 0;
    std::uint64_t relAcqEdges_ = 0;
};

/** figure_sbrp: a fixed subset of the twelve Figure-6 SBRP cells. HM/far
    is poll-bound: ~0.998 of its issue attempts retry. */
std::vector<Cell>
sbrpCells()
{
    const auto far = SystemDesign::PmFar, near = SystemDesign::PmNear;
    const auto m = ModelKind::Sbrp;
    return {{"HM", m, far}, {"Red", m, far}, {"Red", m, near},
            {"MQ", m, far}, {"MQ", m, near}};
}

/** figure_sbrp's cells judged but not timed: HM/far's PMO violations
    depend on its input (about half of the inputs have some), so it is
    judged on a second input of the seed. */
std::vector<Cell>
sbrpJudgedOnlyCells()
{
    return {{"HM", ModelKind::Sbrp, SystemDesign::PmFar, 1}};
}

/** figure_baselines: every Figure-6 app under the comparison models. */
std::vector<Cell>
baselineCells()
{
    std::vector<Cell> cells;
    for (const char *app : {"gpKVS", "HM", "SRAD", "Red", "MQ", "Scan"}) {
        cells.push_back({app, ModelKind::Epoch, SystemDesign::PmFar});
        cells.push_back({app, ModelKind::Epoch, SystemDesign::PmNear});
        cells.push_back({app, ModelKind::Gpm, SystemDesign::PmFar});
        cells.push_back({app, ModelKind::ScopedBarrier,
                         SystemDesign::PmFar});
    }
    return cells;
}

// ---------------------------------------------------------------------
// crash_campaign
// ---------------------------------------------------------------------

class CrashWorkload : public Workload
{
  public:
    CrashWorkload(const Options &o, Report &rep, Tracer &tr,
                  HostProbe &probe)
        : Workload(o, rep, tr, probe, "crash_points_per_s", "1/s")
    {
    }

    void
    prepare() override
    {
        const std::vector<std::string> apps = {"Red", "MQ"};
        // Rep 0 warms the heap up and is not recorded.
        const int reps = opt_.tiny ? 1 : 5;
        std::vector<std::vector<double>> probe_s(apps.size());
        for (int rep = 0; rep <= reps; ++rep) {
            runners_.clear();
            probes_.clear();
            for (std::size_t a = 0; a < apps.size(); ++a) {
                const auto t0 = Clock::now();
                runners_.push_back(
                    std::make_unique<ScenarioRunner>(scenario(apps[a])));
                const auto t1 = Clock::now();
                probes_.push_back(runners_.back()->probe());
                if (rep > 0) {
                    probe_s[a].push_back(secondsSince(t1));
                    addSetup(a, secondsSince(t0));
                }
            }
        }
        for (const std::vector<double> &samples : probe_s)
            probeS_ += median(samples);

        std::uint64_t state = opt_.seed ^ 0xc4a5ull;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const CrashProbe &p = probes_[i];
            rep_.judge(p.cleanConsistent && p.cleanPmoViolations == 0 &&
                           p.cleanPersistFaults == 0,
                       apps[i] + " clean probe: consistent=" +
                           (p.cleanConsistent ? "yes" : "NO") + ", " +
                           std::to_string(p.cleanPmoViolations) +
                           " PMO violations");
            enumerated_ += p.points.points.size();
            cleanPmo_ += p.cleanPmoViolations;
            samples_.push_back(sample(p.points, &state));
        }
        if (opt_.trace)
            checkFormal(apps);
    }

    Pass
    pass() override
    {
        Pass p;
        std::uint64_t failed = 0, ledger = 0;
        for (std::size_t a = 0; a < runners_.size(); ++a) {
            for (const CrashPoint &pt : samples_[a]) {
                probe_.maybeSample();
                const auto t0 = Clock::now();
                CrashVerdict v;
                {
                    auto s = tr_.span("crashtest.point");
                    v = runners_[a]->runCrashAt(pt.cycle, pt.kind);
                }
                p.opS.push_back({secondsSince(t0)});
                p.opWork.push_back(1.0);
                std::uint64_t cyc = 0;
                for (std::uint64_t c : v.ledgerCycles)
                    cyc += c;
                ledger += cyc;
                failed += v.pass() ? 0 : 1;
                p.fp.add(v.crashAt);
                p.fp.add(static_cast<std::uint64_t>(v.kind));
                p.fp.add(v.executed);
                p.fp.add(v.crashed);
                p.fp.add(v.pmoViolations);
                p.fp.add(v.recoveredOk);
                p.fp.add(v.persistFaults);
                p.fp.add(cyc);
                p.fp.add(v.ledgerWarpActive);
                if (!judged_) {
                    rep_.judge(v.pass(),
                               runners_[a]->scenario().app + " crash@" +
                                   std::to_string(v.crashAt) +
                                   ": pmo_violations=" +
                                   std::to_string(v.pmoViolations) +
                                   " recovered=" +
                                   (v.recoveredOk ? "ok" : "WRONG"));
                }
            }
        }
        judged_ = true;
        p.simCycles = ledger;
        p.counts["crashtest.points_run"] =
            static_cast<double>(p.opS.size());
        p.counts["crashtest.points_failed"] = static_cast<double>(failed);
        p.counts["crashtest.ledger_cycles"] = static_cast<double>(ledger);
        p.counts["exact.sim_cycles"] = static_cast<double>(ledger);
        return p;
    }

    std::size_t estimatePasses() const override { return 3; }

    void
    layerMetrics(std::size_t) override
    {
        const std::vector<double> ms = tr_.durationsMs("crashtest.point");
        rep_.set("crashtest.probe_s", probeS_, "s");
        rep_.set("crashtest.point_ms.p50", quantile(ms, 0.5), "ms");
        rep_.set("crashtest.point_ms.p90", quantile(ms, 0.9), "ms");
        rep_.set("crashtest.points_enumerated",
                 static_cast<double>(enumerated_), "count");
        rep_.set("crashtest.clean_pmo_violations",
                 static_cast<double>(cleanPmo_), "count");
        rep_.set("formal.pmo_check_ms", pmoCheckMs_, "ms");
        rep_.set("formal.persists_checked",
                 static_cast<double>(persistsChecked_), "count");
        rep_.set("formal.rel_acq_edges",
                 static_cast<double>(relAcqEdges_), "count");
    }

  private:
    /** crashfuzz's default scenario: SBRP, PM-near, reduced config. */
    CrashScenario
    scenario(const std::string &app) const
    {
        CrashScenario s;
        s.app = app;
        s.cfg = SystemConfig::testDefault(ModelKind::Sbrp,
                                          SystemDesign::PmNear);
        s.cfg.unsafeRelaxedPersistOrder = opt_.unsafeRelaxed;
        s.benchScale = !opt_.tiny;
        s.seed = appSeed(opt_.seed);
        return s;
    }

    /** K evenly spaced points of the sorted point list at one seeded
        offset (systematic sampling): every sample spans the whole
        horizon, and its cost varies little from seed to seed. */
    std::vector<CrashPoint>
    sample(const CrashPointSet &set, std::uint64_t *state) const
    {
        const std::size_t n = set.points.size();
        const std::size_t k = std::min<std::size_t>(n, kPointsPerApp());
        const double offset =
            static_cast<double>(splitmix64(state) >> 11) / 9007199254740992.0;
        std::vector<CrashPoint> out;
        for (std::size_t i = 0; i < k; ++i) {
            const auto idx = static_cast<std::size_t>(
                (static_cast<double>(i) + offset) * n / k);
            out.push_back(set.points[std::min(idx, n - 1)]);
        }
        return out;
    }

    std::size_t kPointsPerApp() const { return opt_.tiny ? 3 : 10; }

    /** Traced run only: one crash-free launch per scenario with the
        formal trace attached, checked by PmoChecker (not a pass). */
    void
    checkFormal(const std::vector<std::string> &apps)
    {
        for (const std::string &name : apps) {
            const CrashScenario s = scenario(name);
            auto app = makeRegisteredApp(s.app, s.cfg.model, s.benchScale,
                                         s.seed);
            NvmDevice nvm;
            app->setupNvm(nvm);
            ExecutionTrace trace;
            {
                GpuSystem gpu(s.cfg, nvm, &trace);
                app->setupGpu(gpu);
                gpu.launch(app->forward());
            }
            const auto t0 = Clock::now();
            PmoChecker checker(trace);
            checker.check();
            pmoCheckMs_ += secondsSince(t0) * 1e3;
            persistsChecked_ += checker.stats().persists;
            relAcqEdges_ += checker.stats().relAcqEdgesChecked;
        }
    }

    std::vector<std::unique_ptr<ScenarioRunner>> runners_;
    std::vector<CrashProbe> probes_;
    std::vector<std::vector<CrashPoint>> samples_;
    bool judged_ = false;
    double probeS_ = 0.0;
    std::uint64_t enumerated_ = 0;
    std::uint64_t cleanPmo_ = 0;
    double pmoCheckMs_ = 0.0;
    std::uint64_t persistsChecked_ = 0;
    std::uint64_t relAcqEdges_ = 0;
};

// ---------------------------------------------------------------------
// mc_corpus
// ---------------------------------------------------------------------

class McWorkload : public Workload
{
  public:
    McWorkload(const Options &o, Report &rep, Tracer &tr, HostProbe &probe)
        : Workload(o, rep, tr, probe, "mc_schedules_per_s", "1/s")
    {
    }

    void
    prepare() override
    {
        for (const LitmusPattern &p : litmusCorpus()) {
            if (!opt_.tiny || p.small)
                patterns_.push_back(&p);
        }
    }

    Pass
    pass() override
    {
        Pass p;
        auto &k = p.counts;
        for (const LitmusPattern *pat : patterns_) {
            for (ModelKind m : kModels)
                explore(*pat, m, false, false, &p);
            // The seeded-bug sweep: must find (and minimize) a
            // violation on exactly the ordered patterns.
            explore(*pat, ModelKind::Sbrp, true, pat->ordered, &p);
        }
        const double pruned = k["mc.alternatives_pruned"];
        const double explored = k["mc.schedules_explored"];
        k["mc.prune_ratio"] = pruned + explored > 0
            ? pruned / (pruned + explored) : 0.0;
        k["exact.sim_cycles"] = static_cast<double>(p.simCycles);
        judged_ = true;
        return p;
    }

  private:
    static constexpr ModelKind kModels[] = {
        ModelKind::Gpm, ModelKind::Epoch, ModelKind::Sbrp,
        ModelKind::ScopedBarrier};

    /** One explore call. Its set-up is what mcheck also does before
        explore(): building the config and constructing the explorer. */
    void
    explore(const LitmusPattern &pat, ModelKind m, bool relaxed,
            bool expect_violation, Pass *p)
    {
        probe_.maybeSample();
        const auto t0 = Clock::now();
        SystemConfig cfg = SystemConfig::testDefault(
            m, m == ModelKind::Gpm ? SystemDesign::PmFar
                                   : SystemDesign::PmNear);
        cfg.unsafeRelaxedPersistOrder = relaxed;
        McExplorer explorer(pat, cfg, ExploreLimits{});
        addSetup(p->opS.size(), secondsSince(t0));

        const auto t1 = Clock::now();
        ExploreResult r;
        {
            auto s = tr_.span("mc.explore");
            r = explorer.explore();
        }
        p->opS.push_back({secondsSince(t1)});
        p->opWork.push_back(static_cast<double>(r.schedulesExplored +
                                                r.minimizeRuns));
        auto &k = p->counts;
        k["mc.schedules_explored"] += r.schedulesExplored;
        k["mc.alternatives_pruned"] += r.alternativesPruned;
        k["mc.minimize_runs"] += r.minimizeRuns;
        k["mc.violations_found"] += r.violationFound ? 1 : 0;
        if (r.violationFound)
            p->simCycles += r.violation.cycles;
        p->fp.add(r.schedulesExplored);
        p->fp.add(r.complete);
        p->fp.add(r.violationFound);
        p->fp.add(r.violation.cycles);
        p->fp.add(r.violation.nvmDigest);
        if (!judged_) {
            rep_.judge(r.violationFound == expect_violation,
                       pat.name + "/" + toString(cfg.model) +
                           (cfg.unsafeRelaxedPersistOrder ? "/relaxed"
                                                          : "") +
                           ": violation=" +
                           (r.violationFound ? "yes" : "no") +
                           ", expected " +
                           (expect_violation ? "yes" : "no"));
        }
    }

    std::vector<const LitmusPattern *> patterns_;
    bool judged_ = false;
};

// ---------------------------------------------------------------------
// Run loop and report
// ---------------------------------------------------------------------

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux.
}

/** Runs passes until the run length is used, then fills the report. */
void
drive(Workload &w, const Options &opt, Report &rep, Tracer &tr,
      const HostProbe &probe)
{
    w.prepare();

    // Each pass is folded in as it ends, so memory does not grow with
    // the number of passes that fit the run: pass 1 is kept as the
    // reference, later passes are compared with it and lower its chunk
    // times to the fastest seen.
    //
    // Rate: the pass's work over the sum of each chunk's fastest time
    // across the first estimatePasses() untraced passes. Every pass does
    // the same work, and other load on the host only ever adds time, so
    // the fastest repeat is the steadiest estimate of the program's own
    // cost. A chunk is a few milliseconds of a launch, so a burst of
    // load during a long launch costs only the chunks it overlaps.
    std::optional<Pass> ref;
    std::vector<std::vector<double>> fastest;
    std::vector<double> walls_u, walls_t;
    std::size_t repeats = 0, diverged = 0, estimated = 0;
    std::string first_diff;
    // Peak RSS through the first pass: later passes repeat the same
    // work, and the heap's growth over ~1,000 mc_corpus passes (7 MB
    // after one pass, 11-15 MB after 24 s) would track the pass count.
    double peak_mb = 0.0;
    double elapsed = 0.0;
    const std::size_t min_passes = opt.trace ? 2 : 1;
    for (std::size_t i = 0;; ++i) {
        const bool traced_pass = opt.trace && i % 2 == 1;
        tr.setEnabled(traced_pass);
        const auto t0 = Clock::now();
        Pass p = w.pass();
        const double wall = secondsSince(t0);
        tr.setEnabled(false);
        elapsed += wall;
        (traced_pass ? walls_t : walls_u).push_back(wall);

        if (!ref) {
            peak_mb = peakRssMb();
            fastest = p.opS;
            estimated = 1;
            ref = std::move(p);
        } else {
            // Every repeat pass must reproduce the first pass's
            // fingerprint (cycles, durable images, verdicts, work done)
            // and per-layer counts exactly.
            std::string diff;
            if (p.fp.value() != ref->fp.value() ||
                    p.opS.size() != ref->opS.size())
                diff = "fingerprint";
            for (const auto &[name, v] : ref->counts) {
                auto it = p.counts.find(name);
                if (diff.empty() && (it == p.counts.end() ||
                                     it->second != v)) {
                    diff = name + " " + std::to_string(v) + " -> " +
                           (it == p.counts.end()
                                ? std::string("missing")
                                : std::to_string(it->second));
                }
            }
            ++repeats;
            if (!diff.empty()) {
                ++diverged;
                if (first_diff.empty())
                    first_diff = diff;
            }
            if (!traced_pass && estimated < w.estimatePasses() &&
                    p.opS.size() == fastest.size()) {
                ++estimated;
                for (std::size_t j = 0; j < fastest.size(); ++j) {
                    if (p.opS[j].size() != fastest[j].size())
                        continue;
                    for (std::size_t k = 0; k < fastest[j].size(); ++k)
                        fastest[j][k] = std::min(fastest[j][k], p.opS[j][k]);
                }
            }
        }
        // Stop once the next pass would overshoot by more than half.
        if (i + 1 >= min_passes &&
                (opt.tiny || elapsed + 0.5 * wall >= opt.seconds)) {
            break;
        }
    }

    // One judged operation, however many passes fit the run.
    std::printf("repeat passes: %zu of %zu diverged from pass 1\n",
                diverged, repeats);
    rep.judge(diverged == 0,
              "repeat passes reproduce pass 1: " + std::to_string(diverged) +
                  " of " + std::to_string(repeats) + " diverged, first " +
                  first_diff);
    w.finish();

    double work = 0.0, secs = 0.0;
    for (std::size_t j = 0; j < fastest.size(); ++j) {
        work += ref->opWork[j];
        for (double chunk_s : fastest[j])
            secs += chunk_s;
    }
    // work_per_s reads as on the reference host (see HostProbe).
    const double rate = work / secs * probe.factor();
    std::printf("%s %.6g %s at reference host speed; %.6g %s measured, "
                "probe %.3fx its reference time (%zu passes of %zu "
                "operations, %.6g work each, %zu estimated from)\n",
                w.rateName, rate, w.rateUnit, work / secs, w.rateUnit,
                probe.factor(), walls_u.size(), fastest.size(), work,
                estimated);
    std::printf("exact.sim_cycles %llu cycles, exact.fingerprint %016llx "
                "(per pass)\n",
                static_cast<unsigned long long>(ref->simCycles),
                static_cast<unsigned long long>(ref->fp.value()));

    if (!opt.trace) {
        rep.set("setup_s", w.setupSeconds(), "s");
        rep.set("work_per_s", rate, "work/s");
        rep.set("peak_rss_mb", peak_mb - probe.footprintMb(), "MB");
        return;
    }

    for (const auto &[name, unit] : kLayerMetrics)
        rep.set(name, 0.0, unit);
    for (const auto &[name, v] : ref->counts) {
        auto it = rep.metrics.find(name);
        if (it != rep.metrics.end())
            it->second.value = v;
    }
    w.layerMetrics(walls_t.size());
    rep.set("trace.overhead", median(walls_t) / median(walls_u), "ratio");
    rep.set("exact.fingerprint", static_cast<double>(ref->fp.json53()),
            "digest");
}

void
printReport(const Report &rep)
{
    for (const auto &[name, m] : rep.metrics)
        std::printf("%s %.17g %s\n", name.c_str(), m.value, m.unit.c_str());
    std::printf("operations: %llu attempted, %llu failed%s\n",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                rep.correct ? "" : " (measurement INCORRECT)");

    std::string out = "{\"correct\": ";
    out += rep.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(rep.attempted);
    out += ", \"failed\": " + std::to_string(rep.failed);
    out += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto &[name, m] : rep.metrics) {
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <figure_sbrp|"
                 "figure_baselines|crash_campaign|mc_corpus>\n"
                 "                 --seed <n> --seconds <s> --trace <0|1>\n"
                 "                 [--tiny] [--unsafe-relaxed-order]\n");
    return 2;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && has_value) {
            opt.trace = std::string(argv[++i]) == "1";
        } else if (a == "--tiny") {
            opt.tiny = true;
        } else if (a == "--unsafe-relaxed-order") {
            opt.unsafeRelaxed = true;
        } else {
            std::fprintf(stderr, "perfbench: bad argument '%s'\n",
                         a.c_str());
            return usage();
        }
    }

    // Keep freed memory in the heap: set-ups and launches then reuse
    // pages the first set-up round faulted in, instead of each paying
    // for fresh mmap()ed pages, whose fault cost on a shared host
    // varies by 2x from run to run.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, -1);

    Report rep;
    Tracer tr;
    HostProbe probe;
    std::unique_ptr<Workload> w;
    if (opt.workload == "figure_sbrp") {
        w = std::make_unique<FigureWorkload>(opt, rep, tr, probe,
                                             sbrpCells(), true,
                                             sbrpJudgedOnlyCells());
    } else if (opt.workload == "figure_baselines") {
        w = std::make_unique<FigureWorkload>(opt, rep, tr, probe,
                                             baselineCells(), false);
    } else if (opt.workload == "crash_campaign") {
        w = std::make_unique<CrashWorkload>(opt, rep, tr, probe);
    } else if (opt.workload == "mc_corpus") {
        w = std::make_unique<McWorkload>(opt, rep, tr, probe);
    } else {
        return usage();
    }

    try {
        drive(*w, opt, rep, tr, probe);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    printReport(rep);
    return 0;
}
