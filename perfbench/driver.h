/**
 * @file
 * Shared machinery of the simulator benchmark: the workload cells,
 * one timed cell run (build, warm-up, measured slice), the
 * instrumented step driver that replaces System::run for the traced
 * slice, the simulated-counter digest, the /proc memory reader and
 * the metric report that prints the result line.
 */

#ifndef PERFBENCH_DRIVER_H
#define PERFBENCH_DRIVER_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.h"
#include "sim/scheme.h"
#include "sim/system.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Percentile @p q (0..1) of @p v, interpolated between neighbouring
 * ranks (so q = 0.5 is the median); 0 for an empty vector.
 */
template <class T>
double
percentile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return static_cast<double>(v[lo]) +
           frac * (static_cast<double>(v[hi]) - static_cast<double>(v[lo]));
}

// ------------------------------------------------------------ workloads

/** One simulated machine: a fig07 VM pair under one scheme. */
struct CellSpec
{
    std::string pair; //!< workload pair label (resolvePair)
    csalt::SchemeId scheme = csalt::SchemeId::csaltCD;
    std::uint64_t warmup = 0; //!< warm-up instructions per core
    std::uint64_t quota = 0;  //!< measured instructions per core
};

/** A benchmark workload: a closed batch of cells run back to back. */
struct Workload
{
    std::string name;
    std::vector<CellSpec> cells;
};

/** The benchmark's workloads (ccomp_cd, strcls_cd, gups_schemes). */
const std::vector<Workload> &workloads();

/** Workload by name, or nullptr. */
const Workload *findWorkload(std::string_view name);

/** The SystemParams of @p cell with the workload seed applied. */
csalt::SystemParams cellParams(const CellSpec &cell, std::uint64_t seed);

/**
 * buildSystem for @p cell: the 8-core, 2-VM virtualized machine, run
 * on one lane with invariant checks off whatever the environment
 * ($CSALT_SHARDS, $CSALT_PARANOID) says.
 */
std::unique_ptr<csalt::System> buildCell(const CellSpec &cell,
                                         std::uint64_t seed);

// ------------------------------------------------------------ stepping

/**
 * Host-time attribution of a 1-in-16 sample of scheduler steps.
 * Which steps are sampled is a pure hash of the step ordinal, so the
 * sample set never depends on timing. Each sampled step is tagged by
 * its translation outcome and by the deepest level its data
 * reference reached, read from public counters around the step.
 */
struct StepSamples
{
    std::uint64_t steps = 0;   //!< every step driven
    std::uint64_t sampled = 0; //!< steps timed
    double sampled_ns = 0.0;   //!< summed host ns of timed steps

    std::vector<std::uint32_t> all;     //!< every timed step
    std::vector<std::uint32_t> tlb_hit; //!< L1/L2 TLB hit
    std::vector<std::uint32_t> l3_hit;  //!< L2 TLB miss, no walk
    std::vector<std::uint32_t> walk;    //!< step performed a walk
    std::vector<std::uint32_t> l1_data; //!< data reference hit L1D
    std::vector<std::uint32_t> dram_data; //!< data reference hit DRAM

    /** Pool another cell's samples into this one. */
    void merge(const StepSamples &other);
};

/**
 * Retire @p instructions_per_core on every core exactly as
 * System::run does: the lowest-clock core steps next (lowest index on
 * ties), and the occupancy of every cache is sampled every
 * kOccupancyInterval steps of this call. When @p samples is non-null
 * the sampled steps are timed and tagged.
 */
void driveSteps(csalt::System &system,
                std::uint64_t instructions_per_core,
                StepSamples *samples);

/** System's default occupancy-sample interval, mirrored. */
inline constexpr std::uint64_t kOccupancyInterval = 8192;

// ------------------------------------------------------------ cell runs

/** How the measured slice of a cell is executed. */
enum class Slice
{
    plain,    //!< System::run, nothing armed
    stepped,  //!< driveSteps with sampled-step timing
    profiled, //!< System::run with the PhaseProfiler armed
    spans,    //!< System::run with span tracing at the default rate
};

/** What one cell run measured. */
struct CellRun
{
    double setup_s = 0.0;    //!< buildSystem
    double warmup_s = 0.0;   //!< warm-up run()
    double measured_s = 0.0; //!< measured slice
    std::uint64_t memrefs = 0;
    std::uint64_t digest = 0; //!< simDigest of the measured slice
    bool cpi_ok = false;      //!< CPI stack sums to the cycles

    csalt::RunMetrics metrics;
    std::uint64_t pt_nodes = 0;  //!< page-table nodes, every VM
    std::uint64_t epochs = 0;    //!< partition epochs in the slice
    std::uint64_t dram_accesses = 0;
    std::uint64_t footprint_pages = 0; //!< mapped, in 4K pages
    double huge_frac = 0.0;      //!< share of mapped bytes in 2M pages

    double maps() const
    {
        return measured_s > 0 ? static_cast<double>(memrefs) /
                                    measured_s / 1e6
                              : 0.0;
    }
};

/**
 * Build, warm up and measure one cell. The System is destroyed and
 * freed heap returned to the OS before returning, so every run pays
 * its own page faults, as a fresh process would.
 */
CellRun runCell(const CellSpec &cell, std::uint64_t seed, Slice slice,
                StepSamples *samples = nullptr);

/** FNV-1a offset basis: the digest of nothing. */
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

/** FNV-1a of the full-fidelity metrics encoding (host fields cut). */
std::uint64_t simDigest(const csalt::RunMetrics &metrics);

/** Fold @p value into a running FNV-1a digest. */
std::uint64_t foldDigest(std::uint64_t digest, std::uint64_t value);

// ------------------------------------------------------------ /proc

/** VmHWM and VmRSS of this process, in KiB (0 when unreadable). */
struct ProcMem
{
    std::uint64_t hwm_kb = 0;
    std::uint64_t rss_kb = 0;
};
ProcMem readProcMem();

/** Parse the VmHWM/VmRSS lines of a /proc/<pid>/status text. */
ProcMem parseProcStatus(std::string_view status);

// ------------------------------------------------------------ report

/** True when @p name matches [A-Za-z0-9_.-]+ and starts alnum. */
bool validMetricName(std::string_view name);

/** Named metrics with units; prints the human table and JSON line. */
class Report
{
  public:
    /** Add a metric; an invalid or duplicate name is fatal. */
    void add(const std::string &name, double value,
             const std::string &unit);

    /** `name value unit` lines. */
    void printTable() const;

    /** The result object (one line). */
    std::string json(bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

} // namespace perfbench

#endif // PERFBENCH_DRIVER_H
