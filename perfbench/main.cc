/**
 * @file
 * Simulator benchmark.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *
 * Untraced (--trace 0): runs the workload's cells round after round
 * (build, warm-up, measured slice through System::run) until the
 * time box is spent, at least kMinRounds times, and reports the
 * end-to-end metrics: maps, warmup_s, setup_s, peak_rss_mb.
 *
 * Traced (--trace 1): first replays each layer's public functions on
 * the workload's reference stream, then runs every cell four ways —
 * plain, step-driven with sampled step timing, self-profiled and
 * span-traced — in at least kMinRounds rounds, and reports the
 * per-layer metrics.
 *
 * A cell run fails (and counts in "failed") when its repeats or its
 * traced variants disagree on any simulated counter, when its CPI
 * stack does not sum to its cycles, or when its simulated regime
 * leaves the band the workload was chosen for. The last stdout line
 * is the JSON result.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <malloc.h>

#include "driver.h"
#include "layers.h"

using namespace perfbench;
using csalt::SchemeId;

namespace
{

constexpr unsigned kMinRounds = 3;
constexpr unsigned kMaxRounds = 200;
/** Records per (core, VM) generator in the layer replays. */
constexpr std::uint64_t kStreamPerContext = 32768;
/** Per-core run lengths of the short per-scheme cells (sim.maps.*). */
constexpr std::uint64_t kSchemeWarmup = 100'000;
constexpr std::uint64_t kSchemeQuota = 200'000;

/**
 * Median of the faster half of @p secs. Interference from other
 * tenants of the host only ever slows a round down, in bursts of a
 * few seconds, so the slower half of the rounds measures the
 * neighbours; the median of the faster half measures the program.
 */
double
fasterHalfMedian(std::vector<double> secs)
{
    std::sort(secs.begin(), secs.end());
    secs.resize((secs.size() + 1) / 2);
    return percentile(secs, 0.5);
}

/** True when @p w runs a cell under every registered scheme. */
bool
coversAllSchemes(const Workload &w)
{
    for (const csalt::SchemeInfo &info : csalt::allSchemes())
        if (std::none_of(w.cells.begin(), w.cells.end(),
                         [&](const CellSpec &c) { return c.scheme == info.id; }))
            return false;
    return true;
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (const double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

/** The simulated regime band a workload was chosen for. */
struct Band
{
    double mpki_lo;
    double mpki_hi;
};

Band
bandOf(const std::string &workload)
{
    if (workload == "ccomp_cd")
        return {40.0, 200.0};
    if (workload == "strcls_cd")
        return {0.5, 10.0};
    return {10.0, 400.0}; // gups_schemes
}

/** Print one cell's regime; @return false when it left its band. */
bool
checkRegime(const std::string &workload, const CellSpec &cell,
            const CellRun &run, double write_share)
{
    const csalt::RunMetrics &m = run.metrics;
    std::printf("regime %s/%s l2_tlb_mpki=%.3f ipc=%.4f "
                "write_share=%.4f huge_page_frac=%.4f "
                "footprint_pages=%llu pt_nodes=%llu\n",
                cell.pair.c_str(), csalt::schemeInfo(cell.scheme).cli,
                m.l2_tlb_mpki, m.ipc_geomean, write_share,
                run.huge_frac,
                static_cast<unsigned long long>(run.footprint_pages),
                static_cast<unsigned long long>(run.pt_nodes));
    const Band band = bandOf(workload);
    const bool ok = m.l2_tlb_mpki >= band.mpki_lo &&
                    m.l2_tlb_mpki <= band.mpki_hi && m.ipc_geomean > 0 &&
                    m.ipc_geomean <= 4.0;
    if (!ok) {
        std::fprintf(stderr,
                     "cell %s/%s left its regime: l2 TLB MPKI %.3f "
                     "outside [%g, %g] or IPC %.4f out of range\n",
                     cell.pair.c_str(), csalt::schemeInfo(cell.scheme).cli,
                     m.l2_tlb_mpki, band.mpki_lo, band.mpki_hi,
                     m.ipc_geomean);
    }
    return ok;
}

/** Tally of attempted and failed cell runs. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(bool ok, const char *what, const CellSpec &cell)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "cell %s/%s failed: %s\n",
                         cell.pair.c_str(),
                         csalt::schemeInfo(cell.scheme).cli, what);
        }
    }
};

/** Print fail_ratio, the metric table and the result line. */
int
finish(const Report &report, const Tally &tally)
{
    std::printf("fail_ratio %.6f (%llu of %llu cell runs)\n",
                static_cast<double>(tally.failed) /
                    static_cast<double>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    report.printTable();
    std::printf("%s\n",
                report.json(tally.failed == 0, tally.attempted,
                            tally.failed)
                    .c_str());
    return 0;
}

/**
 * Whether to start another round: always below @p min_rounds, else
 * only when one more round of average length fits the time box.
 */
bool
anotherRound(unsigned rounds, unsigned min_rounds,
             Clock::time_point start, double seconds)
{
    const double elapsed = secondsSince(start);
    return rounds < kMaxRounds &&
           (rounds < min_rounds || elapsed + elapsed / rounds <= seconds);
}

/** Digest of every cell's measured slice, in cell order. */
void
printDigest(const Workload &w, const std::vector<std::uint64_t> &digests)
{
    std::uint64_t d = kDigestSeed;
    for (const std::uint64_t x : digests)
        d = foldDigest(d, x);
    std::printf("sim_digest %s 0x%016llx\n", w.name.c_str(),
                static_cast<unsigned long long>(d));
}

double
writeShareOf(const CellSpec &cell, std::uint64_t seed)
{
    return writeShare(sampleStream(cell, seed, 4096));
}

int
runUntraced(const Workload &w, std::uint64_t seed, double seconds)
{
    const auto t_start = Clock::now();
    std::vector<std::vector<CellRun>> runs(w.cells.size());
    unsigned rounds = 0;
    while (anotherRound(rounds, kMinRounds, t_start, seconds)) {
        for (std::size_t c = 0; c < w.cells.size(); ++c)
            runs[c].push_back(runCell(w.cells[c], seed, Slice::plain));
        ++rounds;
    }
    // Peak RSS before anything else allocates.
    const double peak_rss_mb =
        static_cast<double>(readProcMem().hwm_kb) / 1024.0;

    std::printf("workload %s seed %llu: %u rounds of %zu cells\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                rounds, w.cells.size());
    Tally tally;
    std::vector<std::uint64_t> digests;
    std::vector<double> cell_maps;
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
        const CellSpec &cell = w.cells[c];
        const CellRun &first = runs[c].front();
        const bool regime_ok =
            checkRegime(w.name, cell, first, writeShareOf(cell, seed));
        std::vector<double> secs;
        for (const CellRun &r : runs[c]) {
            const char *why =
                r.digest != first.digest
                    ? "repeats disagree on simulated counters"
                : !r.cpi_ok ? "CPI stack does not sum to cycles"
                : !regime_ok ? "simulated regime left its band"
                             : "";
            tally.add(why[0] == '\0', why, cell);
            secs.push_back(r.measured_s);
        }
        digests.push_back(first.digest);
        cell_maps.push_back(static_cast<double>(first.memrefs) /
                            fasterHalfMedian(secs) / 1e6);
    }
    printDigest(w, digests);

    // Per cell, so a burst of interference only costs the samples of
    // the cells it overlapped.
    double warmup_s = 0.0;
    double setup_s = 0.0;
    for (const auto &cell_runs : runs) {
        std::vector<double> warmup;
        std::vector<double> setup;
        for (const CellRun &r : cell_runs) {
            warmup.push_back(r.warmup_s);
            setup.push_back(r.setup_s);
        }
        warmup_s += fasterHalfMedian(warmup);
        setup_s += fasterHalfMedian(setup);
    }

    Report report;
    report.add("maps", geomean(cell_maps), "Maccess/s");
    report.add("warmup_s", warmup_s, "s");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb, "MB");
    return finish(report, tally);
}

int
runTraced(const Workload &w, std::uint64_t seed, double seconds)
{
    const CellSpec &lead = w.cells.front();
    Report report;

    // Layer replays first, while the heap is fresh, so the VmRSS rise
    // while mapping is not hidden by memory freed by earlier cells.
    double next_ns = 0.0;
    std::vector<std::pair<std::string, double>> layers;
    double write_share = 0.0;
    {
        const std::vector<StreamRecord> stream =
            sampleStream(lead, seed, kStreamPerContext, &next_ns);
        write_share = writeShare(stream);
        layers = replayLayers(lead, seed, stream);
    }
    malloc_trim(0);

    // Every cell four ways per round, interleaved so the host's slow
    // spells fall on all four alike, and in an order rotated each
    // round so no slice always runs first. The overhead ratios compare
    // faster-half medians, so take at least kMinRounds rounds, even
    // past the time box; more while it lasts.
    constexpr Slice kSlices[] = {Slice::plain, Slice::stepped,
                                 Slice::profiled, Slice::spans};
    constexpr const char *kDiffers[] = {
        "repeats disagree on simulated counters",
        "step-driven run differs from System::run",
        "profiled run differs from the plain run",
        "span-traced run differs from the plain run"};
    Tally tally;
    StepSamples samples;
    std::vector<CellRun> firsts; // round 0 plain run of each cell
    std::vector<std::array<std::vector<double>, 4>> secs(w.cells.size());
    double stepped_total = 0.0;
    unsigned rounds = 0;
    const auto t_start = Clock::now();
    while (anotherRound(rounds, kMinRounds, t_start, seconds)) {
        for (std::size_t c = 0; c < w.cells.size(); ++c) {
            const CellSpec &cell = w.cells[c];
            for (std::size_t k = 0; k < 4; ++k) {
                const std::size_t v = (k + rounds) % 4;
                CellRun run = runCell(cell, seed, kSlices[v], &samples);
                if (!rounds && v == 0) {
                    const bool regime_ok = checkRegime(
                        w.name, cell, run,
                        c == 0 ? write_share : writeShareOf(cell, seed));
                    tally.add(run.cpi_ok && regime_ok,
                              "CPI stack or simulated regime", cell);
                    firsts.push_back(std::move(run));
                } else {
                    tally.add(run.digest == firsts[c].digest && run.cpi_ok,
                              kDiffers[v], cell);
                }
                secs[c][v].push_back(run.measured_s);
                if (kSlices[v] == Slice::stepped)
                    stepped_total += run.measured_s;
            }
        }
        ++rounds;
    }
    std::printf("workload %s seed %llu: %u traced rounds of %zu cells\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                rounds, w.cells.size());
    std::vector<std::uint64_t> digests;
    double t[4] = {0, 0, 0, 0};
    std::uint64_t instr = 0;
    std::uint64_t l2_tlb_misses = 0;
    std::uint64_t walks = 0;
    double l2_misses = 0.0;
    double l3_misses = 0.0;
    double l2_occ = 0.0;
    std::uint64_t pt_nodes = 0;
    std::uint64_t epochs = 0;
    std::uint64_t dram = 0;
    std::vector<std::pair<SchemeId, double>> scheme_maps;
    const bool all_schemes = coversAllSchemes(w);
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
        const CellRun &plain = firsts[c];
        digests.push_back(plain.digest);
        for (std::size_t v = 0; v < 4; ++v)
            t[v] += fasterHalfMedian(secs[c][v]);
        const csalt::RunMetrics &m = plain.metrics;
        const double ki = static_cast<double>(m.total_instructions) / 1e3;
        instr += m.total_instructions;
        l2_tlb_misses += m.l2_tlb_misses;
        walks += m.walks;
        l2_misses += m.l2_mpki_total * ki;
        l3_misses += m.l3_mpki_total * ki;
        l2_occ += m.l2_translation_occupancy;
        pt_nodes += plain.pt_nodes;
        epochs += plain.epochs;
        dram += plain.dram_accesses;
        if (all_schemes)
            scheme_maps.emplace_back(
                w.cells[c].scheme,
                static_cast<double>(plain.memrefs) /
                    fasterHalfMedian(secs[c][0]) / 1e6);
    }
    printDigest(w, digests);

    // Without a cell per scheme, short equal-quota cells of every
    // scheme on this workload's pair.
    if (!all_schemes) {
        for (const csalt::SchemeInfo &info : csalt::allSchemes()) {
            const CellSpec cell{lead.pair, info.id, kSchemeWarmup,
                                kSchemeQuota};
            const CellRun run = runCell(cell, seed, Slice::plain);
            tally.add(run.cpi_ok, "CPI stack does not sum to cycles",
                      cell);
            scheme_maps.emplace_back(info.id, run.maps());
        }
    }

    const double kinstr = static_cast<double>(instr) / 1e3;
    const double scale =
        samples.sampled ? static_cast<double>(samples.steps) /
                              static_cast<double>(samples.sampled)
                        : 0.0;
    report.add("sim.step_ns.p50", percentile(samples.all, 0.5), "ns");
    report.add("sim.step_ns.p99", percentile(samples.all, 0.99), "ns");
    report.add("sim.steps", static_cast<double>(samples.steps / rounds),
               "count");
    report.add("sim.step_cover",
               samples.sampled_ns * scale / (stepped_total * 1e9), "ratio");
    for (const auto &[id, maps] : scheme_maps)
        report.add(std::string("sim.maps.") + csalt::schemeInfo(id).cli,
                   maps, "Maccess/s");

    const auto layer = [&](const char *name) {
        for (const auto &[n, v] : layers)
            if (n == name)
                return v;
        csalt::fatal(std::string("missing layer replay ") + name);
    };
    report.add("tlb.hit_step_ns.p50", percentile(samples.tlb_hit, 0.5),
               "ns");
    report.add("tlb.l3_hit_step_ns.p50", percentile(samples.l3_hit, 0.5),
               "ns");
    report.add("tlb.lookup_ns.hit", layer("tlb.lookup_ns.hit"), "ns");
    report.add("tlb.lookup_ns.miss", layer("tlb.lookup_ns.miss"), "ns");
    report.add("tlb.pom_probe_ns", layer("tlb.pom_probe_ns"), "ns");
    report.add("tlb.l2_mpki", static_cast<double>(l2_tlb_misses) / kinstr,
               "1/kinstr");
    report.add("tlb.l3_hit_ratio",
               l2_tlb_misses ? 1.0 - static_cast<double>(walks) /
                                         static_cast<double>(l2_tlb_misses)
                             : 0.0,
               "ratio");

    report.add("vm.walk_step_ns.p50", percentile(samples.walk, 0.5), "ns");
    report.add("vm.walk_ns", layer("vm.walk_ns"), "ns");
    report.add("vm.map_ns", layer("vm.map_ns"), "ns");
    report.add("vm.pt_nodes", static_cast<double>(pt_nodes), "count");
    report.add("vm.rss_kb_per_kpage", layer("vm.rss_kb_per_kpage"),
               "KiB/kpage");
    report.add("vm.walks", static_cast<double>(walks), "count");

    report.add("cache.l1_hit_step_ns.p50", percentile(samples.l1_data, 0.5),
               "ns");
    report.add("cache.access_ns.hit", layer("cache.access_ns.hit"), "ns");
    report.add("cache.access_ns.miss", layer("cache.access_ns.miss"), "ns");
    report.add("cache.shadow_ns", layer("cache.shadow_ns"), "ns");
    report.add("cache.l2_mpki", l2_misses / kinstr, "1/kinstr");
    report.add("cache.l3_mpki", l3_misses / kinstr, "1/kinstr");
    report.add("cache.l2_trans_occ",
               l2_occ / static_cast<double>(w.cells.size()), "ratio");

    report.add("core.repartition_ns", layer("core.repartition_ns"), "ns");
    report.add("core.epochs", static_cast<double>(epochs), "count");

    report.add("mem.dram_step_ns.p50", percentile(samples.dram_data, 0.5),
               "ns");
    report.add("mem.dram_ns", layer("mem.dram_ns"), "ns");
    report.add("mem.dram_accesses", static_cast<double>(dram), "count");

    report.add("workloads.next_ns", next_ns, "ns");
    report.add("trace_overhead", t[1] / t[0] - 1.0, "ratio");
    report.add("obs.profile_overhead", t[2] / t[0] - 1.0, "ratio");
    report.add("obs.span_overhead", t[3] / t[0] - 1.0, "ratio");

    return finish(report, tally);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1\nworkloads:",
                 argv0);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *flag = argv[i];
        const char *value = argv[i + 1];
        if (std::strcmp(flag, "--workload") == 0)
            workload = value;
        else if (std::strcmp(flag, "--seed") == 0)
            seed = std::strtoull(value, nullptr, 10);
        else if (std::strcmp(flag, "--seconds") == 0)
            seconds = std::strtod(value, nullptr);
        else if (std::strcmp(flag, "--trace") == 0)
            trace = std::atoi(value);
        else
            usage(argv[0]);
    }
    const Workload *w = findWorkload(workload);
    if (!w || argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1))
        usage(argv[0]);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    return trace ? runTraced(*w, seed, seconds)
                 : runUntraced(*w, seed, seconds);
}
