#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_set>

#include "cache/cache.h"
#include "core/criticality.h"
#include "core/csalt_controller.h"
#include "mem/dram.h"
#include "mem/memory_map.h"
#include "sim/memory_system.h"
#include "tlb/pom_tlb.h"
#include "tlb/tlb_hierarchy.h"
#include "vm/address_space.h"
#include "vm/mmu_cache.h"
#include "vm/page_walker.h"
#include "workloads/registry.h"

namespace perfbench
{

using namespace csalt;

namespace
{

/** Keeps replay results observable so no pass is optimized away. */
volatile std::uint64_t g_sink = 0;

/** Median host ns per operation of @p reps timed runs of @p pass. */
template <class Pass>
double
nsPerOp(std::size_t ops, int reps, Pass &&pass)
{
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        pass();
        secs.push_back(secondsSince(t0));
    }
    return ops ? percentile(secs, 0.5) * 1e9 / static_cast<double>(ops)
               : 0.0;
}

/** Walk memory with a fixed latency: the walker's own host cost. */
class FixedLatencyMem : public TranslationMemIf
{
  public:
    Cycles
    translationAccess(unsigned, Addr, Cycles) override
    {
        return 40;
    }
};

} // namespace

std::vector<StreamRecord>
sampleStream(const CellSpec &cell, std::uint64_t seed,
             std::uint64_t per_context, double *next_ns)
{
    const SystemParams params = cellParams(cell, seed);
    const PairSpec pair = resolvePair(cell.pair);
    const std::string vms[2] = {pair.vm1, pair.vm2};

    // Same seeds and thread numbering as buildSystem.
    std::vector<std::unique_ptr<TraceSource>> gens;
    std::vector<unsigned> vm_of;
    for (unsigned c = 0; c < params.num_cores; ++c) {
        for (unsigned i = 0; i < 2; ++i) {
            gens.push_back(workloadDesc(vms[i]).make(
                params.seed + i * 7777, c, params.num_cores, 1.0));
            vm_of.push_back(i);
        }
    }

    std::vector<StreamRecord> out;
    out.reserve(gens.size() * per_context);
    const auto t0 = Clock::now();
    for (std::uint64_t r = 0; r < per_context; ++r)
        for (std::size_t g = 0; g < gens.size(); ++g)
            out.push_back({vm_of[g], gens[g]->next()});
    if (next_ns)
        *next_ns = secondsSince(t0) * 1e9 /
                   static_cast<double>(std::max<std::size_t>(out.size(), 1));
    return out;
}

double
writeShare(const std::vector<StreamRecord> &stream)
{
    std::uint64_t writes = 0;
    for (const StreamRecord &s : stream)
        writes += s.rec.type == AccessType::write;
    return stream.empty() ? 0.0
                          : static_cast<double>(writes) /
                                static_cast<double>(stream.size());
}

std::vector<std::pair<std::string, double>>
replayLayers(const CellSpec &cell, std::uint64_t seed,
             const std::vector<StreamRecord> &stream)
{
    std::vector<std::pair<std::string, double>> out;
    const SystemParams params = cellParams(cell, seed);
    const std::size_t n = stream.size();
    std::uint64_t sink = 0;
    Cycles now = 0;

    // The cell's own machine, never run: its VMs are still unmapped, so
    // the replays demand-map, walk and probe the workload's layout.
    const std::unique_ptr<System> system = buildCell(cell, seed);
    MemorySystem &mem = system->mem();
    const MemoryMap &map = mem.map();
    const auto vm = [&](unsigned i) -> VmContext & { return system->vm(i); };
    const auto asid = [&](unsigned i) { return system->vm(i).asid(); };

    // ---- vm: demand-map every first-touched page, then walk the
    // stream against a fixed-latency memory.
    std::vector<StreamRecord> first_touch;
    {
        std::unordered_set<std::uint64_t> seen;
        for (const StreamRecord &s : stream)
            if (seen.insert((std::uint64_t{s.vm} << 56) |
                            (s.rec.vaddr >> kPageShift))
                    .second)
                first_touch.push_back(s);
    }
    const std::uint64_t rss0 = readProcMem().rss_kb;
    const double map_ns = nsPerOp(first_touch.size(), 1, [&] {
        for (const StreamRecord &s : first_touch)
            sink += vm(s.vm).mappingOf(s.rec.vaddr).frame;
    });
    const std::uint64_t rss1 = readProcMem().rss_kb;
    std::uint64_t pages = 0;
    for (unsigned i = 0; i < system->numVms(); ++i)
        pages += vm(i).mapped4K() + vm(i).mapped2M();
    out.emplace_back("vm.map_ns", map_ns);
    out.emplace_back("vm.rss_kb_per_kpage",
                     pages ? static_cast<double>(rss1 - std::min(rss0, rss1)) /
                                 (static_cast<double>(pages) / 1000.0)
                           : 0.0);

    std::vector<Mapping> maps(n);
    std::vector<Addr> hpa(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Addr va = stream[i].rec.vaddr;
        maps[i] = vm(stream[i].vm).mappingOf(va);
        hpa[i] = maps[i].frame + (va & (pageBytes(maps[i].ps) - 1));
    }

    {
        FixedLatencyMem fixed;
        MmuCaches mmu(params.psc);
        PageWalker walker(0, mmu, fixed);
        out.emplace_back("vm.walk_ns", nsPerOp(n, 3, [&] {
                             for (const StreamRecord &s : stream) {
                                 sink += walker
                                             .walk(vm(s.vm),
                                                   s.rec.vaddr, now)
                                             .latency;
                                 now += 100;
                             }
                         }));
    }

    // ---- tlb: L1 hits over a small resident set; full misses under
    // an ASID that is never filled.
    {
        TlbHierarchy tlbs(params);
        const std::size_t hot =
            std::min<std::size_t>(first_touch.size(), 16);
        std::vector<std::size_t> hot_idx;
        for (std::size_t i = 0; i < n && hot_idx.size() < hot; ++i) {
            bool dup = false;
            for (std::size_t j : hot_idx)
                dup |= stream[j].vm == stream[i].vm &&
                       (stream[j].rec.vaddr >> kPageShift) ==
                           (stream[i].rec.vaddr >> kPageShift);
            if (!dup) {
                hot_idx.push_back(i);
                tlbs.fill(asid(stream[i].vm), stream[i].rec.vaddr,
                          maps[i]);
            }
        }
        out.emplace_back("tlb.lookup_ns.hit", nsPerOp(n, 3, [&] {
                             for (std::size_t k = 0; k < n; ++k) {
                                 const std::size_t i =
                                     hot_idx[k % hot_idx.size()];
                                 sink += tlbs.lookup(asid(stream[i].vm),
                                                     stream[i].rec.vaddr)
                                             .l1_hit;
                             }
                         }));
        constexpr Asid kNeverFilled = 200;
        out.emplace_back("tlb.lookup_ns.miss", nsPerOp(n, 3, [&] {
                             for (const StreamRecord &s : stream)
                                 sink += tlbs.lookup(kNeverFilled,
                                                     s.rec.vaddr)
                                             .l2_hit;
                         }));
    }

    // ---- tlb: POM-TLB probes (through the cache model) of installed
    // translations.
    {
        PageSizePredictor predictor;
        for (std::size_t i = 0; i < n; ++i)
            mem.pomInsert(asid(stream[i].vm), stream[i].rec.vaddr,
                          maps[i]);
        out.emplace_back("tlb.pom_probe_ns", nsPerOp(n, 3, [&] {
                             for (const StreamRecord &s : stream) {
                                 sink += mem.pomLookup(0, asid(s.vm),
                                                       s.rec.vaddr,
                                                       predictor, now)
                                             .latency;
                                 now += 100;
                             }
                         }));
    }

    // ---- cache: L2-geometry hits on a set-balanced resident subset
    // of the stream's lines; misses on always-new tags with the
    // stream's set distribution; shadow-tag profiling of the stream.
    {
        Cache hits(params.l2);
        const std::uint64_t sets = hits.numSets();
        std::vector<unsigned> per_set(sets, 0);
        std::vector<Addr> resident;
        std::vector<Addr> lines;
        {
            std::unordered_set<Addr> seen;
            for (const Addr a : hpa) {
                const Addr line = a >> kLineShift;
                if (!seen.insert(line).second)
                    continue;
                lines.push_back(line);
                if (per_set[line & (sets - 1)] < hits.ways()) {
                    ++per_set[line & (sets - 1)];
                    resident.push_back(line << kLineShift);
                }
            }
        }
        for (const Addr a : resident)
            hits.access(a, AccessType::read, LineType::data);
        out.emplace_back("cache.access_ns.hit", nsPerOp(n, 3, [&] {
                             for (std::size_t k = 0; k < n; ++k)
                                 sink += hits.access(
                                                 resident[k %
                                                          resident.size()],
                                                 AccessType::read,
                                                 LineType::data)
                                             .hit;
                         }));

        Cache misses(params.l2);
        const std::size_t passes = (n + lines.size() - 1) / lines.size();
        std::uint64_t pass_tag = 1;
        out.emplace_back(
            "cache.access_ns.miss",
            nsPerOp(passes * lines.size(), 3, [&] {
                for (std::size_t p = 0; p < passes; ++p, ++pass_tag)
                    for (const Addr line : lines)
                        sink += misses
                                    .access((line | (pass_tag << 34))
                                                << kLineShift,
                                            AccessType::read,
                                            LineType::data)
                                    .hit;
            }));

        ShadowTagArray shadow(sets, hits.ways(), params.l2.repl, 0);
        out.emplace_back("cache.shadow_ns", nsPerOp(n, 3, [&] {
                             for (const Addr a : hpa) {
                                 const Addr line = a >> kLineShift;
                                 shadow.access(line & (sets - 1), line);
                             }
                         }));
        sink += shadow.profiler().total();
    }

    // ---- core: CSALT-CD repartition of an L3-geometry cache whose
    // profilers were fed the stream's data lines and translation
    // lines of the page-table range.
    {
        Cache l3(params.l3);
        CriticalityEstimator crit(params.l3.latency, params.core.mlp);
        PartitionParams pp = params.l3_partition;
        pp.policy = PartitionPolicy::csaltCD;
        PartitionController ctl(l3, pp, &crit, "perfbench.l3");
        constexpr std::size_t kFeed = 512;
        std::vector<std::uint32_t> ns;
        const Addr pt_lines = (map.ptLimit() - map.ptBase()) >> kLineShift;
        for (std::size_t i = 0; i < n; ++i) {
            l3.access(hpa[i], AccessType::read, LineType::data);
            const Addr pt = map.ptBase() +
                            (((hpa[i] >> kLineShift) * 7) % pt_lines
                             << kLineShift);
            l3.access(pt, AccessType::read, LineType::translation);
            crit.recordWalkLatency(1500);
            crit.recordDramLatency(200);
            if (i % kFeed == kFeed - 1) {
                const auto t0 = Clock::now();
                ctl.repartition(now);
                ns.push_back(static_cast<std::uint32_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count()));
            }
        }
        out.emplace_back("core.repartition_ns", percentile(ns, 0.5));
    }

    // ---- mem: DDR channel accesses at the stream's host addresses.
    {
        DramChannel ddr(params.ddr);
        out.emplace_back("mem.dram_ns", nsPerOp(n, 3, [&] {
                             for (const Addr a : hpa) {
                                 sink += ddr.access(a, now);
                                 now += 20;
                             }
                         }));
    }

    g_sink = g_sink + sink;
    return out;
}

} // namespace perfbench
