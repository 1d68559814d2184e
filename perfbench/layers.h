/**
 * @file
 * Per-layer replays: each simulator layer's public functions driven
 * in isolation over the workload's own reference stream, timed in
 * host nanoseconds per operation.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver.h"
#include "workloads/trace_source.h"

namespace perfbench
{

/** One reference of the stream, tagged with its VM slot. */
struct StreamRecord
{
    unsigned vm = 0;
    csalt::TraceRecord rec;
};

/**
 * The first @p per_context records of every (core, VM) generator of
 * @p cell, built with the same seeds buildSystem uses, interleaved
 * round-robin. @p next_ns receives the mean host ns of one
 * TraceSource::next call.
 */
std::vector<StreamRecord> sampleStream(const CellSpec &cell,
                                       std::uint64_t seed,
                                       std::uint64_t per_context,
                                       double *next_ns = nullptr);

/** Share of @p stream that are writes. */
double writeShare(const std::vector<StreamRecord> &stream);

/**
 * Run every layer replay over @p stream and return the per-layer
 * metrics (name, value): workloads.next_ns is not among them.
 */
std::vector<std::pair<std::string, double>>
replayLayers(const CellSpec &cell, std::uint64_t seed,
             const std::vector<StreamRecord> &stream);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
