#include "driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <malloc.h>

#include "common/log.h"
#include "obs/phase_profiler.h"
#include "sim/metrics_io.h"
#include "sim/system_builder.h"
#include "workloads/registry.h"

namespace perfbench
{

using namespace csalt;

namespace
{

/** driveSteps times the steps whose hash has this many low zero bits. */
constexpr unsigned kSampleShift = 4;

/** splitmix64 finalizer: the pure hash behind step sampling. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One FNV-1a step. */
std::uint64_t
foldByte(std::uint64_t digest, unsigned char byte)
{
    return (digest ^ byte) * 0x100000001b3ull;
}

/** Public counters that classify one step of one core. */
struct StepCounters
{
    std::uint64_t tlb_hits = 0; //!< L1 + L2 TLB hits
    std::uint64_t walks = 0;
    std::uint64_t l1_data_hits = 0;
    std::uint64_t l3_data_misses = 0;
};

StepCounters
readCounters(System &system, CoreModel &core)
{
    MemorySystem &mem = system.mem();
    const unsigned c = core.id();
    StepCounters k;
    k.tlb_hits = core.tlbs().l1Stats().hits + core.tlbs().l2().stats().hits;
    k.walks = core.stats().walks;
    k.l1_data_hits = mem.l1d(c).stats().hitsOf(LineType::data);
    k.l3_data_misses = mem.l3().stats().missesOf(LineType::data);
    return k;
}

void
timedStep(System &system, CoreModel &core, StepSamples &s)
{
    const StepCounters before = readCounters(system, core);
    const auto t0 = Clock::now();
    core.step();
    const auto t1 = Clock::now();
    const StepCounters after = readCounters(system, core);

    const auto ns = static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    ++s.sampled;
    s.sampled_ns += ns;
    s.all.push_back(ns);
    if (after.tlb_hits != before.tlb_hits)
        s.tlb_hit.push_back(ns);
    else if (after.walks != before.walks)
        s.walk.push_back(ns);
    else
        s.l3_hit.push_back(ns);
    if (after.l1_data_hits != before.l1_data_hits)
        s.l1_data.push_back(ns);
    else if (after.l3_data_misses != before.l3_data_misses)
        s.dram_data.push_back(ns);
}

std::uint64_t
sumEpochs(System &system)
{
    MemorySystem &mem = system.mem();
    std::uint64_t n = mem.l3Controller().epochsCompleted();
    for (unsigned c = 0; c < system.numCores(); ++c)
        n += mem.l2Controller(c).epochsCompleted();
    return n;
}

} // namespace

// ------------------------------------------------------------ workloads

const std::vector<Workload> &
workloads()
{
    using csalt::SchemeId;
    static const std::vector<Workload> all = [] {
        std::vector<Workload> w;
        // fig07 run lengths: 600K warm-up + 1M measured per core.
        w.push_back({"ccomp_cd",
                     {{"ccomp", SchemeId::csaltCD, 600'000, 1'000'000}}});
        w.push_back(
            {"strcls_cd",
             {{"streamcluster", SchemeId::csaltCD, 600'000, 1'000'000}}});
        Workload gups{"gups_schemes", {}};
        for (const SchemeInfo &info : allSchemes())
            gups.cells.push_back(
                {"graph500_gups", info.id, 80'000, 120'000});
        w.push_back(std::move(gups));
        return w;
    }();
    return all;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

SystemParams
cellParams(const CellSpec &cell, std::uint64_t seed)
{
    SystemParams params = defaultParams();
    applyScheme(params, cell.scheme);
    params.virtualized = true;
    params.seed = seed;
    return params;
}

std::unique_ptr<System>
buildCell(const CellSpec &cell, std::uint64_t seed)
{
    BuildSpec spec;
    spec.params = cellParams(cell, seed);
    const PairSpec pair = resolvePair(cell.pair);
    spec.vm_workloads = {pair.vm1, pair.vm2};
    std::unique_ptr<System> system = buildSystem(spec);
    system->setShards(1);
    system->setParanoid(false);
    return system;
}

// ------------------------------------------------------------ stepping

void
StepSamples::merge(const StepSamples &o)
{
    steps += o.steps;
    sampled += o.sampled;
    sampled_ns += o.sampled_ns;
    const auto append = [](std::vector<std::uint32_t> &to,
                           const std::vector<std::uint32_t> &from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    append(all, o.all);
    append(tlb_hit, o.tlb_hit);
    append(l3_hit, o.l3_hit);
    append(walk, o.walk);
    append(l1_data, o.l1_data);
    append(dram_data, o.dram_data);
}

void
driveSteps(System &system, std::uint64_t instructions_per_core,
           StepSamples *samples)
{
    // run() registers the stat registry first; collectMetrics digests
    // the registered histograms, so the driver must do the same.
    system.finalizeStats();

    constexpr std::uint64_t kDone = ~std::uint64_t{0};
    const unsigned n = system.numCores();
    std::vector<std::uint64_t> clocks(n);
    for (unsigned i = 0; i < n; ++i) {
        const CoreModel &core = system.core(i);
        clocks[i] = core.instructions() >= instructions_per_core
                        ? kDone
                        : core.clock();
    }
    constexpr std::uint64_t kMask = (std::uint64_t{1} << kSampleShift) - 1;

    std::uint64_t step = 0;
    std::uint64_t next_occ = kOccupancyInterval;
    while (true) {
        std::size_t best = 0;
        std::uint64_t best_clock = clocks[0];
        for (std::size_t i = 1; i < n; ++i) {
            if (clocks[i] < best_clock) {
                best_clock = clocks[i];
                best = i;
            }
        }
        if (best_clock == kDone)
            break;
        CoreModel &core = system.core(static_cast<unsigned>(best));
        if (samples && (mix64(step) & kMask) == 0)
            timedStep(system, core, *samples);
        else
            core.step();
        clocks[best] = core.instructions() >= instructions_per_core
                           ? kDone
                           : core.clock();
        if (++step >= next_occ) {
            next_occ += kOccupancyInterval;
            system.mem().sampleOccupancy(
                static_cast<double>(core.clock()));
        }
    }
    if (samples)
        samples->steps += step;
}

// ------------------------------------------------------------ cell runs

CellRun
runCell(const CellSpec &cell, std::uint64_t seed, Slice slice,
        StepSamples *samples)
{
    CellRun out;
    {
        auto t0 = Clock::now();
        std::unique_ptr<System> system = buildCell(cell, seed);
        out.setup_s = secondsSince(t0);

        t0 = Clock::now();
        system->run(cell.warmup);
        system->clearAllStats();
        out.warmup_s = secondsSince(t0);

        const std::uint64_t epochs_before = sumEpochs(*system);
        if (slice == Slice::spans)
            system->enableSpanTrace(obs::SpanTraceConfig{});
        if (slice == Slice::profiled) {
            obs::PhaseProfiler::reset();
            obs::PhaseProfiler::setEnabled(true);
        }
        t0 = Clock::now();
        if (slice == Slice::stepped)
            driveSteps(*system, cell.quota, samples);
        else
            system->run(cell.quota);
        out.measured_s = secondsSince(t0);
        obs::PhaseProfiler::setEnabled(false);

        out.metrics = collectMetrics(*system);
        out.memrefs = out.metrics.total_memrefs;
        out.digest = simDigest(out.metrics);
        const double cycles = out.metrics.total_cycles;
        out.cpi_ok = cycles > 0 &&
                     std::fabs(out.metrics.cpi_total.total() - cycles) <=
                         1e-9 * cycles;
        out.epochs = sumEpochs(*system) - epochs_before;
        MemorySystem &mem = system->mem();
        out.dram_accesses = mem.ddr().stats().accesses +
                            mem.stacked().stats().accesses;

        double huge_bytes = 0.0;
        double all_bytes = 0.0;
        for (unsigned i = 0; i < system->numVms(); ++i) {
            VmContext &vm = system->vm(i);
            out.pt_nodes += vm.guestPt().nodeCount();
            if (vm.virtualized())
                out.pt_nodes += vm.hostPt().nodeCount();
            out.footprint_pages += vm.mapped4K() + 512 * vm.mapped2M();
            huge_bytes += static_cast<double>(vm.mapped2M()) *
                          static_cast<double>(kHugePageSize);
            all_bytes += static_cast<double>(vm.mapped4K()) *
                             static_cast<double>(kPageSize) +
                         static_cast<double>(vm.mapped2M()) *
                             static_cast<double>(kHugePageSize);
        }
        out.huge_frac = all_bytes > 0 ? huge_bytes / all_bytes : 0.0;
    }
    // Hand the freed page-table heap back to the OS so the next run
    // faults its memory in again, like the one-cell process it models.
    malloc_trim(0);
    return out;
}

std::uint64_t
foldDigest(std::uint64_t digest, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        digest = foldByte(digest,
                          static_cast<unsigned char>(value >> (8 * i)));
    return digest;
}

std::uint64_t
simDigest(const RunMetrics &metrics)
{
    RunMetrics sim = metrics;
    sim.self_profile.clear();
    sim.span_summary.reset();
    std::uint64_t h = kDigestSeed;
    for (const unsigned char ch : metricsJournalJson(sim))
        h = foldByte(h, ch);
    return h;
}

// ------------------------------------------------------------ /proc

ProcMem
parseProcStatus(std::string_view status)
{
    ProcMem m;
    const auto field = [&](std::string_view key) -> std::uint64_t {
        const std::size_t at = status.find(key);
        if (at == std::string_view::npos)
            return 0;
        std::size_t i = at + key.size();
        while (i < status.size() &&
               (status[i] == ' ' || status[i] == '\t'))
            ++i;
        std::uint64_t v = 0;
        while (i < status.size() && status[i] >= '0' && status[i] <= '9')
            v = v * 10 + static_cast<std::uint64_t>(status[i++] - '0');
        return v;
    };
    m.hwm_kb = field("VmHWM:");
    m.rss_kb = field("VmRSS:");
    return m;
}

ProcMem
readProcMem()
{
    std::ifstream in("/proc/self/status");
    std::stringstream ss;
    ss << in.rdbuf();
    return parseProcStatus(ss.str());
}

// ------------------------------------------------------------ report

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    if (!validMetricName(name))
        fatal("invalid metric name '" + name + "'");
    for (const Entry &e : entries_)
        if (e.name == name)
            fatal("duplicate metric name '" + name + "'");
    if (!std::isfinite(value))
        fatal("metric '" + name + "' is not finite");
    entries_.push_back({name, value, unit});
}

void
Report::printTable() const
{
    for (const Entry &e : entries_)
        std::printf("  %-28s %16.6f %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
}

std::string
Report::json(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char num[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        std::snprintf(num, sizeof num, "%.17g", entries_[i].value);
        out += i ? ", " : "";
        out += "\"" + entries_[i].name + "\": {\"value\": " + num +
               ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
