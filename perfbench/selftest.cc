/**
 * @file
 * Self-tests of the benchmark's own machinery:
 *  - the step driver retires the same simulated run as System::run
 *    (equal sim digests) for every registered scheme;
 *  - metric-name validation accepts [A-Za-z0-9_.-]+ and nothing else,
 *    and every scheme's sim.maps.<scheme> name passes it;
 *  - the VmHWM/VmRSS reader returns sane, monotone values.
 *
 * Exits 0 when every check passes; prints each failure otherwise.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "driver.h"

using namespace perfbench;

namespace
{

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    g_failures += !ok;
}

/** Digest of a short run, driven by System::run or the step driver. */
std::uint64_t
shortRun(const CellSpec &cell, bool stepped)
{
    auto system = buildCell(cell, 7);
    StepSamples samples;
    if (stepped)
        driveSteps(*system, cell.warmup, nullptr);
    else
        system->run(cell.warmup);
    system->clearAllStats();
    if (stepped)
        driveSteps(*system, cell.quota, &samples);
    else
        system->run(cell.quota);
    return simDigest(csalt::collectMetrics(*system));
}

void
testStepDriver()
{
    for (const csalt::SchemeInfo &info : csalt::allSchemes()) {
        // Long enough to cross several occupancy-sample boundaries.
        const CellSpec cell{"graph500_gups", info.id, 6'000, 12'000};
        check(shortRun(cell, true) == shortRun(cell, false),
              std::string("step driver: ") + info.cli);
    }
    const CellSpec ccomp{"ccomp", csalt::SchemeId::csaltCD, 4'000, 8'000};
    check(shortRun(ccomp, true) == shortRun(ccomp, false),
          "step driver: ccomp csalt-cd");
    const CellSpec other{"ccomp", csalt::SchemeId::pom, 4'000, 8'000};
    check(shortRun(ccomp, false) != shortRun(other, false),
          "digest separates different simulations");
}

void
testNames()
{
    check(validMetricName("sim.step_ns.p50"), "name: sim.step_ns.p50");
    check(validMetricName("tlb.lookup_ns.hit"), "name: tlb.lookup_ns.hit");
    check(validMetricName("peak_rss_mb"), "name: peak_rss_mb");
    for (const csalt::SchemeInfo &info : csalt::allSchemes())
        check(validMetricName(std::string("sim.maps.") + info.cli),
              std::string("name: sim.maps.") + info.cli);
    for (const char *bad : {"", ".leading_dot", "-x", "has space",
                            "slash/name", "quote\"", "colon:x"})
        check(!validMetricName(bad),
              std::string("rejects name '") + bad + "'");
    check(!validMetricName(std::string(65, 'a')), "rejects 65 letters");

    Report report;
    report.add("a.b", 1.5, "ns");
    report.add("c", 2, "count");
    check(report.json(true, 3, 0) ==
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"a.b\": {\"value\": 1.5, \"unit\": "
              "\"ns\"}, \"c\": {\"value\": 2, \"unit\": \"count\"}}}",
          "report JSON line");
}

void
testProcMem()
{
    const ProcMem parsed = parseProcStatus(
        "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t    5120 kB\n"
        "VmRSS:\t    4096 kB\nThreads:\t1\n");
    check(parsed.hwm_kb == 5120 && parsed.rss_kb == 4096,
          "parse VmHWM/VmRSS lines");
    check(parseProcStatus("Name:\tx\n").hwm_kb == 0,
          "missing fields read as 0");

    const ProcMem before = readProcMem();
    check(before.rss_kb > 0 && before.hwm_kb >= before.rss_kb,
          "VmHWM >= VmRSS > 0");
    constexpr std::size_t kBytes = 64u << 20;
    std::vector<char> block(kBytes);
    std::memset(block.data(), 1, block.size());
    const ProcMem after = readProcMem();
    const std::uint64_t rise = after.rss_kb - before.rss_kb;
    check(rise >= (kBytes >> 10) * 9 / 10 && rise <= (kBytes >> 10) * 2,
          "VmRSS rises by the 64 MiB touched");
    check(after.hwm_kb >= after.rss_kb && after.hwm_kb >= before.hwm_kb,
          "VmHWM tracks the peak");
    check(block[kBytes - 1] == 1, "touched block is resident");
}

} // namespace

int
main()
{
    testNames();
    testProcMem();
    testStepDriver();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
                g_failures);
    return g_failures ? 1 : 0;
}
