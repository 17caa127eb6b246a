#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The four benchmark workloads (see perfbench/README.md for why each
 * exists and which layer it stresses).  Every timing is taken here, around
 * public calls — core::plan, core::run, core::execute_tree,
 * JobService::submit / wait — or inside the TimedBackend decorator.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Workload seed used when none is given. */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct BenchOptions
{
    std::string workload;
    /** Drives RunOptions::seed, the QAOA sweep-angle order and the service
     *  job interleaving. */
    std::uint64_t seed = kDefaultSeed;
    /** Measurement window of one run. */
    double seconds = 10.0;
    /** false: untraced end-to-end run; true: traced per-layer run. */
    bool trace = false;
    /** Directory of the exact reference distributions. */
    std::string refs_dir;
    /** Where a traced run writes its spans (empty = keep them in memory
     *  only). */
    std::string trace_path;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct BenchResult
{
    /** Operations attempted (core::run calls, traced runs, jobs). */
    std::uint64_t attempted = 0;
    /** Operations whose output check failed. */
    std::uint64_t failed = 0;
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
};

/** Runs one workload, printing a human-readable report to stdout.  Throws
 *  on an unknown workload, a missing reference or a setup failure. */
BenchResult run_workload(const BenchOptions& options);

/** Recomputes every reference under @p dir (three at a time); returns the
 *  number that could not be written. */
int regenerate_references(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
