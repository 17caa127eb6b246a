#include "workloads.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "anchor.h"
#include "circuits/graph.h"
#include "circuits/qaoa.h"
#include "circuits/suite.h"
#include "core/copy_cost.h"
#include "core/tqsim.h"
#include "refs.h"
#include "service/job_service.h"
#include "sim/parallel.h"
#include "stats.h"
#include "timed_backend.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace circuits = tqsim::circuits;
namespace core = tqsim::core;
namespace noise = tqsim::noise;
namespace service = tqsim::service;
namespace sim = tqsim::sim;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class Kind { kExecutor, kService };

struct WorkloadSpec
{
    std::string name;
    Kind kind;
    /** "depol" or "thermal" (also the reference subdirectory). */
    std::string noise;
    /** Reduced-suite circuit names (the service workload adds its QAOA
     *  sweep on top of these). */
    std::vector<std::string> circuits;
    std::uint64_t shots;
    int threads;
};

const std::vector<std::string> kTable2Suite = {
    "adder_n10_2", "bv_n10",    "mul_n11_2", "qaoa_n10",
    "qft_n10",     "qpe_n10_4", "qsc_n10",   "qv_n8"};

const std::vector<WorkloadSpec>&
specs()
{
    static const std::vector<WorkloadSpec> kSpecs = {
        {"suite-depol", Kind::kExecutor, "depol", kTable2Suite, 4096, 1},
        {"suite-thermal", Kind::kExecutor, "thermal", kTable2Suite, 256, 1},
        {"shots-parallel",
         Kind::kExecutor,
         "depol",
         {"adder_n4_0", "qft_n6", "qv_n6", "qaoa_n7", "qsc_n7"},
         65536,
         3},
        {"service-sweep", Kind::kService, "depol", {}, 1024, 1},
    };
    return kSpecs;
}

noise::NoiseModel
make_noise(const std::string& name)
{
    if (name == "thermal") {
        // The Fig. 16 constants: T1, T2, 1q and 2q gate times (ns).
        return noise::NoiseModel::thermal(25000, 30000, 35, 350);
    }
    return noise::NoiseModel::sycamore_depolarizing();
}

// Host calibrations are pinned so every plan depends only on the workload
// and the seed.
constexpr double kCopyCostGates = 10.0;  // the fig11 harness's value
constexpr int kMaxFusedQubits = 4;
constexpr sim::Index kFusedDiagThreshold = sim::Index{1} << 22;
constexpr double kDelta = 1e-9;
// setup_s is the median of kSetupReps set-ups.  It leaves out the
// fused-diagonal calibration (core::tuned_fused_diag_threshold): that one
// stops at the first probe width where the fused pass wins a timing race,
// so on one host it takes anywhere from about 10 ms to 600 ms.  It is timed
// on its own and reported as core.calibration.fused_diag_s.
constexpr int kSetupReps = 7;
constexpr int kMinRounds = 3;
// Service: closed loop with this many jobs outstanding, in batches of
// kBatchJobs that are drained before the next starts, so the speed anchor
// runs while the service is idle; at least kMinJobs jobs per run (200 per
// tenant, so each tenant's p95 has >= 10 samples beyond it; peak RSS is
// read once that many are done, because the service keeps every result);
// and this many jobs re-checked against an isolated core::run.
constexpr std::size_t kOutstanding = 4;
constexpr std::size_t kBatchJobs = 40;
constexpr std::size_t kMinJobs = 400;
static_assert(kMinJobs % kBatchJobs == 0);
constexpr std::size_t kCheckedJobs = 6;
constexpr int kReplays = 3;

core::RunOptions
pinned_options(std::uint64_t shots, std::uint64_t seed)
{
    core::RunOptions opt;
    opt.shots = shots;
    opt.seed = seed;
    opt.copy_cost_gates = kCopyCostGates;
    opt.backend.max_fused_qubits = kMaxFusedQubits;
    opt.backend.fused_diag_threshold = kFusedDiagThreshold;
    return opt;
}

const WorkloadSpec&
find_spec(const std::string& name)
{
    for (const WorkloadSpec& s : specs()) {
        if (s.name == name) {
            return s;
        }
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

sim::Circuit
find_circuit(const std::vector<circuits::BenchmarkCase>& suite,
             const std::string& name)
{
    for (const circuits::BenchmarkCase& c : suite) {
        if (c.name == name) {
            return c.circuit;
        }
    }
    throw std::invalid_argument("no reduced-suite circuit '" + name + "'");
}

/** The 7-9 qubit reduced-suite circuits the service's suite tenant
 *  cycles. */
std::vector<sim::Circuit>
service_suite(const std::vector<circuits::BenchmarkCase>& suite)
{
    std::vector<sim::Circuit> out;
    for (const circuits::BenchmarkCase& c : suite) {
        if (c.circuit.num_qubits() >= 7 && c.circuit.num_qubits() <= 9) {
            out.push_back(c.circuit);
        }
    }
    return out;
}

double
seconds_between(std::int64_t t0, std::int64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e9;
}

double
seconds_since(std::int64_t t0)
{
    return seconds_between(t0, now_ns());
}

struct Calibration
{
    int max_fused_qubits = 0;
    sim::Index fused_diag_threshold = 0;
    double copy_cost_gates = 0.0;
    /** Wall seconds of the fused-diagonal calibration alone. */
    double fused_diag_s = 0.0;
};

/** Runs the one-time host calibrations a default user pays for (forcing
 *  them afresh), then pins every calibrated value. */
Calibration
calibrate_then_pin()
{
    core::set_tuned_max_fused_qubits(0);
    core::set_tuned_fused_diag_threshold(0);
    Calibration c;
    c.max_fused_qubits = core::tuned_max_fused_qubits();
    const std::int64_t d0 = now_ns();
    c.fused_diag_threshold = core::tuned_fused_diag_threshold();
    c.fused_diag_s = seconds_since(d0);
    // A copy of what core::host_copy_cost_in_gates computes on first use:
    // the library keeps that value for the life of the process and offers
    // no way to recompute it, so a change to that function does not show
    // in setup_s.
    c.copy_cost_gates =
        std::max(1.0, core::averaged_copy_cost_in_gates({8, 10, 12}));
    core::set_tuned_max_fused_qubits(kMaxFusedQubits);
    core::set_tuned_fused_diag_threshold(kFusedDiagThreshold);
    core::set_host_copy_cost_in_gates(kCopyCostGates);
    return c;
}

/** Returns freed heap to the OS and restarts the kernel's peak-RSS mark
 *  (Linux clear_refs "5"), so the up to 16 MiB probe states some
 *  calibration paths allocate during set-up do not count.  Without
 *  clear_refs, peak_rss_mb covers the whole process. */
void
reset_peak_rss()
{
    malloc_trim(0);
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** Peak resident set since reset_peak_rss (VmHWM), in MiB. */
double
peak_rss_mb()
{
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        double kib = -1.0;
        while (std::fgets(line, sizeof line, f) != nullptr) {
            if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
                break;
            }
        }
        std::fclose(f);
        if (kib > 0.0) {
            return kib / 1024.0;
        }
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** Restricts the process to its first @p n allowed CPUs (no-op when it
 *  has no more). */
void
limit_cpus(int n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
        CPU_COUNT(&allowed) <= n) {
        return;
    }
    cpu_set_t keep;
    CPU_ZERO(&keep);
    for (int c = 0, kept = 0; c < CPU_SETSIZE && kept < n; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            CPU_SET(c, &keep);
            ++kept;
        }
    }
    sched_setaffinity(0, sizeof keep, &keep);
}

/** Prints the machine speeds (reference = 1) measured around each of
 *  @p what. */
void
print_speeds(const std::vector<double>& speeds, const char* what)
{
    std::printf("# machine speed around %zu %s (reference = 1): min %.3f, "
                "median %.3f, max %.3f\n",
                speeds.size(), what,
                *std::min_element(speeds.begin(), speeds.end()),
                median(speeds),
                *std::max_element(speeds.begin(), speeds.end()));
}

/** Calls @p fn for every item, round after round, until @p seconds have
 *  passed and at least kMinRounds rounds ran.  Returns elapsed seconds. */
template <typename T, typename F>
double
timed_rounds(std::vector<T>& items, double seconds, F&& fn)
{
    const std::int64_t start = now_ns();
    int rounds = 0;
    while (rounds < kMinRounds || seconds_since(start) < seconds) {
        for (T& item : items) {
            fn(item);
        }
        ++rounds;
    }
    return seconds_since(start);
}

// ---------------------------------------------------------------------------
// Per-layer accounting
// ---------------------------------------------------------------------------

/** Everything the per-layer metrics are computed from. */
struct LayerData
{
    /** Child spans summed over every traced run. */
    OpTotals ops;
    /** Child spans of one traced run of each circuit (exact counts). */
    OpTotals one_round;
    /** Summed wall x threads and wall of the traced runs. */
    double capacity_ns = 0.0;
    double wall_ns = 0.0;
    /** Summed entry-to-first-make_root time. */
    double build_ns = 0.0;
    int threads = 1;
    /** ExecStats of one run of each circuit. */
    std::uint64_t error_events = 0;
    std::uint64_t channel_applications = 0;
    double shots_x_gates = 0.0;
    std::uint64_t gate_applications = 0;
    std::uint64_t nodes = 0;
    std::uint64_t state_copies = 0;
    double plan_s = 0.0;
    double fused_diag_s = 0.0;
    double parallel_efficiency = 1.0;
    double trace_overhead = 0.0;
    // Service layer (zero on executor workloads).
    double submit_us = 0.0;
    double exec_ms = 0.0;
    double overhead_ms = 0.0;
    double prefix_hit_ratio = 0.0;
    double plan_hit_ratio = 0.0;
    double prefix_leases = 0.0;
    double retries = 0.0;

    /** Folds one traced run into the sums. */
    void
    add_traced(const OpTotals& totals, std::int64_t entry, std::int64_t exit,
               std::int64_t first_root)
    {
        const auto wall = static_cast<double>(exit - entry);
        ops += totals;
        wall_ns += wall;
        capacity_ns += wall * threads;
        if (first_root > entry) {
            build_ns += static_cast<double>(first_root - entry);
        }
    }

    void
    add_stats(const core::ExecStats& s, std::uint64_t gates)
    {
        error_events += s.error_events;
        channel_applications += s.channel_applications;
        shots_x_gates += static_cast<double>(s.outcomes) *
                         static_cast<double>(gates);
        gate_applications += s.gate_applications;
        nodes += s.nodes_simulated;
        state_copies += s.state_copies;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
ns_per_amp(const OpTotals& t, int op)
{
    const OpCounter& c = t.ops[static_cast<std::size_t>(op)];
    return ratio(static_cast<double>(c.ns), static_cast<double>(c.amps));
}

std::vector<Metric>
layer_metrics(const LayerData& d)
{
    using K = sim::SegOpKind;
    const OpTotals& t = d.ops;
    const auto frac = [&](Layer l) {
        return ratio(static_cast<double>(t.layer_ns(l)), d.capacity_ns);
    };
    const auto op_of = [](Op o) { return static_cast<int>(o); };
    const OpCounter& snap =
        t.ops[static_cast<std::size_t>(op_of(Op::kSnapshot))];
    const OpCounter& sample =
        t.ops[static_cast<std::size_t>(op_of(Op::kSampleOnce))];
    std::vector<Metric> m = {
        {"sim.kernels.busy_frac", frac(Layer::kKernels), "fraction"},
        {"sim.kernels.calls",
         static_cast<double>(d.one_round.kernel_calls()), "count"},
        {"sim.kernels.ns_per_amp.diag_batch",
         ns_per_amp(t, kernel_slot(K::kDiagBatch)), "ns/amp"},
        {"sim.kernels.ns_per_amp.dense1q",
         ns_per_amp(t, kernel_slot(K::kDense1q)), "ns/amp"},
        {"sim.kernels.ns_per_amp.dense2q",
         ns_per_amp(t, kernel_slot(K::kDense2q)), "ns/amp"},
        {"sim.kernels.ns_per_amp.cx", ns_per_amp(t, kernel_slot(K::kCX)),
         "ns/amp"},
        {"sim.kernels.ns_per_amp.ccx", ns_per_amp(t, kernel_slot(K::kCCX)),
         "ns/amp"},
        {"sim.arena.copy_frac", frac(Layer::kArena), "fraction"},
        {"sim.arena.copies",
         static_cast<double>(
             d.one_round.ops[static_cast<std::size_t>(op_of(Op::kSnapshot))]
                 .calls),
         "count"},
        {"sim.arena.pool_hit_ratio",
         ratio(static_cast<double>(t.pool_hits),
               static_cast<double>(snap.calls)),
         "fraction"},
        {"sim.sampler.busy_frac", frac(Layer::kSampler), "fraction"},
        {"sim.sampler.ns_per_call",
         ratio(static_cast<double>(sample.ns),
               static_cast<double>(sample.calls)),
         "ns"},
        {"noise.channels.busy_frac", frac(Layer::kChannels), "fraction"},
        {"noise.kraus_probability.ns_per_amp",
         ns_per_amp(t, op_of(Op::kKrausProbability)), "ns/amp"},
        {"noise.apply_matrix.ns_per_amp",
         ns_per_amp(t, op_of(Op::kApplyMatrix)), "ns/amp"},
        {"noise.scale.ns_per_amp", ns_per_amp(t, op_of(Op::kScale)),
         "ns/amp"},
        {"noise.error_event_ratio",
         ratio(static_cast<double>(d.error_events),
               static_cast<double>(d.channel_applications)),
         "fraction"},
        {"core.partitioner.plan_s", d.plan_s, "s"},
        {"core.calibration.fused_diag_s", d.fused_diag_s, "s"},
        {"core.reuse.work_ratio",
         ratio(d.shots_x_gates, static_cast<double>(d.gate_applications)),
         "ratio"},
        {"core.executor.build_frac", ratio(d.build_ns, d.wall_ns),
         "fraction"},
        {"core.executor.self_frac",
         d.capacity_ns > 0.0
             ? self_fraction(static_cast<double>(t.child_ns()), d.wall_ns,
                             d.threads)
             : 0.0,
         "fraction"},
        {"core.executor.nodes", static_cast<double>(d.nodes), "count"},
        {"core.executor.state_copies", static_cast<double>(d.state_copies),
         "count"},
        {"core.executor.parallel_efficiency", d.parallel_efficiency,
         "fraction"},
        {"service.submit_us", d.submit_us, "us"},
        {"service.exec_ms", d.exec_ms, "ms"},
        {"service.overhead_ms", d.overhead_ms, "ms"},
        {"service.cache.prefix_hit_ratio", d.prefix_hit_ratio, "fraction"},
        {"service.cache.plan_hit_ratio", d.plan_hit_ratio, "fraction"},
        {"service.prefix_leases", d.prefix_leases, "count"},
        {"service.retries", d.retries, "count"},
        {"trace.overhead_frac", d.trace_overhead, "fraction"},
    };
    return m;
}

/** Prints the traced time split; at one thread the shares sum to 1. */
void
print_layer_split(const LayerData& d)
{
    if (d.capacity_ns <= 0.0) {
        return;
    }
    std::printf("# traced time split (share of wall x %d thread(s), %.3f s "
                "traced):\n",
                d.threads, d.wall_ns / 1e9);
    double sum = 0.0;
    for (int l = 0; l < kNumLayers; ++l) {
        const auto layer = static_cast<Layer>(l);
        const double share =
            static_cast<double>(d.ops.layer_ns(layer)) / d.capacity_ns;
        sum += share;
        std::printf("#   %-22s %7.4f\n", layer_name(layer), share);
    }
    const double self = self_fraction(static_cast<double>(d.ops.child_ns()),
                                      d.wall_ns, d.threads);
    std::printf("#   %-22s %7.4f\n#   %-22s %7.4f\n", "core.executor.self",
                self, "sum", sum + self);
    for (int op = 0; op < kNumOps; ++op) {
        const OpCounter& c = d.ops.ops[static_cast<std::size_t>(op)];
        if (c.calls == 0) {
            continue;
        }
        std::printf("#   op %-18s calls %10llu  %9.3f ms  %8.3f ns/amp\n",
                    op_name(op), static_cast<unsigned long long>(c.calls),
                    static_cast<double>(c.ns) / 1e6,
                    ratio(static_cast<double>(c.ns),
                          static_cast<double>(c.amps)));
    }
}

/** Prints the calibrated values and times set-up; returns the median
 *  fused-diagonal calibration time. */
double
print_setup(const Calibration& c, const std::vector<double>& setup_s,
            const std::vector<double>& fused_diag_s)
{
    std::printf("# host calibration chose: max_fused_qubits=%d "
                "fused_diag_threshold=%llu copy_cost_gates=%.3f "
                "(pinned: %d, %llu, %.1f)\n",
                c.max_fused_qubits,
                static_cast<unsigned long long>(c.fused_diag_threshold),
                c.copy_cost_gates, kMaxFusedQubits,
                static_cast<unsigned long long>(kFusedDiagThreshold),
                kCopyCostGates);
    std::printf("# %zu set-ups: median %.3f s (min %.3f, max %.3f) without "
                "the fused-diagonal calibration, which took median %.3f s "
                "(min %.3f, max %.3f)\n",
                setup_s.size(), median(setup_s),
                *std::min_element(setup_s.begin(), setup_s.end()),
                *std::max_element(setup_s.begin(), setup_s.end()),
                median(fused_diag_s),
                *std::min_element(fused_diag_s.begin(), fused_diag_s.end()),
                *std::max_element(fused_diag_s.begin(), fused_diag_s.end()));
    return median(fused_diag_s);
}

/** Traced execute_tree of one circuit; returns its result and folds the
 *  run into @p data and @p spans. */
core::RunResult
traced_run(const sim::Circuit& circuit, const noise::NoiseModel& model,
           const core::RunOptions& opt, Tracer& tracer, LayerData& data,
           SpanLog& spans, std::uint64_t trace_id, double* plan_s,
           double* run_s, OpTotals* totals_out)
{
    const std::int64_t p0 = now_ns();
    const core::PartitionPlan plan = core::plan(circuit, model, opt);
    const std::int64_t p1 = now_ns();
    tracer.reset();
    TimedBackend backend(
        core::make_state_backend(opt.backend, circuit.num_qubits()), tracer);
    const std::int64_t t0 = now_ns();
    core::RunResult r = core::execute_tree(circuit, model, plan,
                                           opt.executor_options(), backend);
    const std::int64_t t1 = now_ns();
    const OpTotals totals = tracer.totals();
    data.add_traced(totals, t0, t1, tracer.first_root_ns());
    *plan_s = seconds_between(p0, p1);
    *run_s = seconds_between(t0, t1);
    *totals_out = totals;
    spans.add(Span{0, 0, trace_id, "core::plan " + circuit.name(), "core",
                   p0, p1, {}});
    Span run{0, 0, trace_id, "core::execute_tree " + circuit.name(), "core",
             t0, t1, {}};
    SpanLog::attach_totals(run, totals);
    spans.add(std::move(run));
    return r;
}

// ---------------------------------------------------------------------------
// Executor workloads
// ---------------------------------------------------------------------------

/** Reference outcomes that keep a bucket of their own in the L1 check; the
 *  rest share one.  Fewer buckets make the bound tighter. */
constexpr std::size_t kCheckBuckets = 15;

/**
 * L1 check of @p r against the exact @p reference, on the reference's
 * kCheckBuckets most likely outcomes plus the rest, within the BHC bound at
 * delta = 1e-9 for the run's independent level-0 subtrees.
 */
bool
matches_reference(const core::RunResult& r,
                  const std::vector<double>& reference,
                  const std::string& name)
{
    const std::vector<std::size_t> top =
        top_outcomes(reference, kCheckBuckets);
    const std::vector<double>& got = r.distribution.probabilities();
    const double l1 =
        l1_distance(coarsen(got, top), coarsen(reference, top));
    const std::uint64_t subtrees = r.plan.tree.arity(0);
    const double bound = bhc_l1_bound(subtrees, top.size() + 1, kDelta);
    const bool ok = l1 <= bound;
    std::printf("# check %-12s bucketed L1 %.4f <= %.4f (%zu buckets, %llu "
                "level-0 subtrees, %llu shots; full L1 %.4f): %s\n",
                name.c_str(), l1, bound, top.size() + 1,
                static_cast<unsigned long long>(subtrees),
                static_cast<unsigned long long>(r.stats.outcomes),
                l1_distance(got, reference), ok ? "ok" : "FAIL");
    return ok;
}

struct Case
{
    explicit Case(sim::Circuit c) : circuit(std::move(c)) {}

    sim::Circuit circuit;
    std::vector<double> reference;
    /** The checked distribution every later run must reproduce exactly. */
    std::vector<double> expected;
    core::ExecStats stats;
    /** core::run wall at reference speed (see anchor.h), and raw. */
    std::vector<double> run_s;
    std::vector<double> raw_s;
    std::vector<double> run_1t_s;
    std::vector<double> traced_s;
    std::vector<double> plan_s;
};

/**
 * timed_rounds over @p cases, appending each call's seconds at reference
 * speed (anchor.h) to (c.*dest).  @p call runs one timed call and returns
 * its raw seconds.  The anchor runs between calls, on this thread for
 * single-threaded work (@p one_thread) and on every allowed CPU otherwise.
 * Returns the window's raw length.
 */
template <typename F>
double
scaled_rounds(std::vector<Case>& cases, double seconds, bool one_thread,
              std::vector<double> Case::*dest, F&& call)
{
    SpeedNormalizer norm(one_thread ? AnchorScope::kThisThread
                                    : AnchorScope::kAllCpus);
    std::vector<double> speeds;
    norm.start();
    const double window_s = timed_rounds(cases, seconds, [&](Case& c) {
        const double raw_s = call(c);
        speeds.push_back(norm.factor());
        (c.*dest).push_back(raw_s * speeds.back());
    });
    print_speeds(speeds, "calls");
    return window_s;
}

BenchResult
run_executor(const WorkloadSpec& w, const BenchOptions& o)
{
    BenchResult res;
    const noise::NoiseModel model = make_noise(w.noise);
    const core::RunOptions opt = pinned_options(w.shots, o.seed);

    // References are benchmark-only input: loaded before set-up is timed.
    std::vector<std::vector<double>> refs;
    {
        const auto suite =
            circuits::benchmark_suite(circuits::SuiteScale::kReduced);
        for (const std::string& name : w.circuits) {
            std::vector<double> probs;
            std::string why;
            if (!load_reference(o.refs_dir, w.noise,
                                find_circuit(suite, name), &probs, &why)) {
                throw std::runtime_error(
                    why + " (regenerate with perfbench/run.py --regen-refs)");
            }
            refs.push_back(std::move(probs));
        }
    }

    // Set-up: calibrations, input generation, planning; repeated.
    std::vector<double> setup_s;
    std::vector<double> fused_diag_s;
    std::vector<Case> cases;
    Calibration cal;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::int64_t t0 = now_ns();
        sim::set_num_threads(1);
        cal = calibrate_then_pin();
        sim::set_num_threads(w.threads);
        const auto suite =
            circuits::benchmark_suite(circuits::SuiteScale::kReduced);
        std::vector<Case> built;
        for (const std::string& name : w.circuits) {
            Case c(find_circuit(suite, name));
            // Planning is set-up a user pays before the first run; the
            // timed calls plan again inside core::run.
            (void)core::plan(c.circuit, model, opt);
            built.push_back(std::move(c));
        }
        setup_s.push_back(seconds_since(t0) - cal.fused_diag_s);
        fused_diag_s.push_back(cal.fused_diag_s);
        cases = std::move(built);
    }
    const double fused_diag_med = print_setup(cal, setup_s, fused_diag_s);
    reset_peak_rss();
    for (std::size_t i = 0; i < cases.size(); ++i) {
        cases[i].reference = std::move(refs[i]);
    }

    // The first run of each circuit is checked against the exact
    // distribution; every later run (untraced, 1-thread or traced) must
    // reproduce it bit for bit.
    const auto check = [&](const core::RunResult& r, Case& c) {
        ++res.attempted;
        if (c.expected.empty()) {
            c.expected = r.distribution.probabilities();
            c.stats = r.stats;
            if (!matches_reference(r, c.reference, c.circuit.name())) {
                ++res.failed;
            }
        } else if (r.distribution.probabilities() != c.expected) {
            ++res.failed;
            std::printf("# FAIL %s: distribution differs from the checked "
                        "run\n",
                        c.circuit.name().c_str());
        }
    };

    // Untraced window: the end-to-end numbers.
    const bool one_thread = w.threads == 1;
    const double untraced_share = o.trace ? 0.4 : 1.0;
    const double window_s = scaled_rounds(
        cases, o.seconds * untraced_share, one_thread, &Case::run_s,
        [&](Case& c) {
            const std::int64_t t0 = now_ns();
            const core::RunResult r = core::run(c.circuit, model, opt);
            const double dt = seconds_since(t0);
            c.raw_s.push_back(dt);
            check(r, c);
            return dt;
        });
    std::vector<double> all_run_s;
    for (const Case& c : cases) {
        all_run_s.insert(all_run_s.end(), c.run_s.begin(), c.run_s.end());
    }

    std::vector<double> shots_rate;
    std::vector<double> medians;
    std::vector<double> p95s;
    double busy_s = 0.0;
    std::printf("# times at reference speed (anchor.h); p50_raw_ms is the "
                "unscaled wall\n");
    std::printf("# %-12s %6s %9s %9s %9s %11s %12s\n", "circuit", "qubits",
                "gates", "runs", "p50_ms", "p50_raw_ms", "shots/s");
    for (const Case& c : cases) {
        const double med = median(c.run_s);
        medians.push_back(med);
        p95s.push_back(percentile(c.run_s, 95.0));
        shots_rate.push_back(static_cast<double>(c.stats.outcomes) / med);
        for (const double t : c.run_s) {
            busy_s += t;
        }
        std::printf("# %-12s %6d %9zu %9zu %9.3f %11.3f %12.1f\n",
                    c.circuit.name().c_str(), c.circuit.num_qubits(),
                    c.circuit.size(), c.run_s.size(), med * 1e3,
                    median(c.raw_s) * 1e3, shots_rate.back());
    }
    const double tail = tail_percentile(all_run_s.size());
    std::printf("# core::run calls: %zu in a %.3f s window; highest "
                "percentile with >= 10 samples beyond: p%g = %.3f ms\n",
                all_run_s.size(), window_s, tail,
                percentile(all_run_s, tail) * 1e3);
    res.end_to_end = {
        {"shots_per_s", geomean(shots_rate), "1/s"},
        // Back-to-back call rate: checks and anchors are not counted.
        {"jobs_per_s", static_cast<double>(all_run_s.size()) / busy_s,
         "1/s"},
        // Latencies: geomean over circuits, the job classes here.
        {"job_p50_ms", geomean(medians) * 1e3, "ms"},
        {"job_p95_ms", geomean(p95s) * 1e3, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };

    if (!o.trace) {
        return res;
    }

    // Traced per-layer run.
    LayerData data;
    data.threads = w.threads;
    data.fused_diag_s = fused_diag_med;
    for (const Case& c : cases) {
        data.add_stats(c.stats, c.circuit.size());
    }
    if (!one_thread) {
        sim::set_num_threads(1);
        scaled_rounds(cases, o.seconds * 0.2, true, &Case::run_1t_s,
                      [&](Case& c) {
                          const std::int64_t t0 = now_ns();
                          const core::RunResult r =
                              core::run(c.circuit, model, opt);
                          const double dt = seconds_since(t0);
                          check(r, c);
                          return dt;
                      });
        sim::set_num_threads(w.threads);
    }
    Tracer tracer;
    SpanLog spans;
    std::uint64_t trace_id = 0;
    scaled_rounds(
        cases, o.seconds * (one_thread ? 0.6 : 0.4), one_thread,
        &Case::traced_s, [&](Case& c) {
            double plan_s = 0.0;
            double run_s = 0.0;
            OpTotals totals;
            const core::RunResult r =
                traced_run(c.circuit, model, opt, tracer, data, spans,
                           ++trace_id, &plan_s, &run_s, &totals);
            if (c.plan_s.empty()) {
                data.one_round += totals;
            }
            c.plan_s.push_back(plan_s);
            check(r, c);
            return run_s;
        });
    std::vector<double> plan_med;
    std::vector<double> overhead;
    std::vector<double> efficiency;
    for (const Case& c : cases) {
        plan_med.push_back(median(c.plan_s));
        overhead.push_back(median(c.traced_s) / median(c.run_s));
        if (!c.run_1t_s.empty()) {
            efficiency.push_back(median(c.run_1t_s) /
                                 (w.threads * median(c.run_s)));
        }
    }
    data.plan_s = geomean(plan_med);
    data.trace_overhead = geomean(overhead) - 1.0;
    if (!efficiency.empty()) {
        data.parallel_efficiency = geomean(efficiency);
    }
    print_layer_split(data);
    res.per_layer = layer_metrics(data);
    if (!o.trace_path.empty() && spans.write_chrome_json(o.trace_path)) {
        std::printf("# %zu spans written to %s\n", spans.size(),
                    o.trace_path.c_str());
    }
    return res;
}

// ---------------------------------------------------------------------------
// Service workload
// ---------------------------------------------------------------------------

/** Fisher-Yates over util::Rng, so the order is the same with every
 *  standard library. */
template <typename T>
void
seeded_shuffle(std::vector<T>& items, tqsim::util::Rng& rng)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.uniform_u64(i)]);
    }
}

struct ServiceInputs
{
    std::vector<service::JobSpec> sweep;
    std::vector<service::JobSpec> suite;
    /** Tenant that submits first (0 = sweep). */
    std::size_t first_tenant = 0;
    std::unique_ptr<service::JobService> svc;
};

ServiceInputs
build_service_inputs(const WorkloadSpec& w, std::uint64_t seed,
                     const noise::NoiseModel& model)
{
    ServiceInputs in;
    tqsim::util::Rng rng(seed);
    const core::RunOptions opt = pinned_options(w.shots, seed);
    // QAOA p=2 max-cut: the first layer is fixed, a 16 x 16 grid of
    // second-layer angles is swept in a seeded order.  Every sweep job
    // shares its plan's level 0 and its level-0 prefix snapshots.
    const circuits::Graph graph = circuits::Graph::regular3(8, seed);
    for (int i = 0; i < 16; ++i) {
        for (int j = 0; j < 16; ++j) {
            const double gamma2 = 0.1 + 0.2 * i;
            const double beta2 = 0.05 + 0.1 * j;
            sim::Circuit c =
                circuits::qaoa_maxcut(graph, {0.4, beta2}, {0.8, gamma2});
            c.set_name("qaoa_sweep_" + std::to_string(i) + "_" +
                       std::to_string(j));
            in.sweep.push_back(
                service::JobSpec{std::move(c), model, opt, "sweep", 0.0});
        }
    }
    seeded_shuffle(in.sweep, rng);
    for (sim::Circuit& c : service_suite(
             circuits::benchmark_suite(circuits::SuiteScale::kReduced))) {
        in.suite.push_back(
            service::JobSpec{std::move(c), model, opt, "suite", 0.0});
    }
    in.first_tenant = rng.uniform_u64(2);
    service::JobServiceConfig cfg;
    cfg.num_lanes = 2;
    in.svc = std::make_unique<service::JobService>(cfg);
    return in;
}

struct JobRecord
{
    service::JobId id = 0;
    const service::JobSpec* spec = nullptr;
    std::int64_t submit_ns = 0;
    std::int64_t submitted_ns = 0;
    std::int64_t done_ns = 0;
    bool done = false;
    double exec_s = 0.0;
    std::uint64_t prefix_leases = 0;
    std::uint32_t attempts = 0;
    /** Reference speed of the job's batch relative to the machine's. */
    double speed = 1.0;
};

BenchResult
run_service(const WorkloadSpec& w, const BenchOptions& o)
{
    BenchResult res;
    const noise::NoiseModel model = make_noise(w.noise);

    std::vector<double> setup_s;
    std::vector<double> fused_diag_s;
    ServiceInputs in;
    Calibration cal;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        in.svc.reset();  // joins the previous repetition's lanes first
        const std::int64_t t0 = now_ns();
        sim::set_num_threads(1);
        cal = calibrate_then_pin();
        sim::set_num_threads(w.threads);
        in = build_service_inputs(w, o.seed, model);
        setup_s.push_back(seconds_since(t0) - cal.fused_diag_s);
        fused_diag_s.push_back(cal.fused_diag_s);
    }
    const double fused_diag_med = print_setup(cal, setup_s, fused_diag_s);
    reset_peak_rss();
    std::printf("# service: 2 lanes, %d pool thread(s), closed loop with %zu "
                "jobs outstanding in drained batches of %zu; %zu sweep "
                "specs, %zu suite specs, first tenant %s\n",
                w.threads, kOutstanding, kBatchJobs, in.sweep.size(),
                in.suite.size(), in.first_tenant == 0 ? "sweep" : "suite");

    service::JobService& svc = *in.svc;
    std::vector<JobRecord> jobs;
    std::deque<std::size_t> outstanding;
    std::size_t submitted = 0;
    std::size_t next_sweep = 0;
    std::size_t next_suite = 0;
    // The suite tenant visits its circuits in a fresh seeded order every
    // cycle, so no circuit always queues behind the same neighbour.
    std::vector<std::size_t> suite_order(in.suite.size());
    std::iota(suite_order.begin(), suite_order.end(), std::size_t{0});
    tqsim::util::Rng order_rng(o.seed ^ 0x5017eULL);
    const auto submit_next = [&] {
        const bool sweep = (submitted + in.first_tenant) % 2 == 0;
        if (!sweep && next_suite % suite_order.size() == 0) {
            seeded_shuffle(suite_order, order_rng);
        }
        const service::JobSpec& spec =
            sweep ? in.sweep[next_sweep++ % in.sweep.size()]
                  : in.suite[suite_order[next_suite++ % suite_order.size()]];
        JobRecord rec;
        rec.spec = &spec;
        rec.submit_ns = now_ns();
        rec.id = svc.submit(spec);
        rec.submitted_ns = now_ns();
        jobs.push_back(rec);
        outstanding.push_back(jobs.size() - 1);
        ++submitted;
    };
    const auto complete_oldest = [&] {
        JobRecord& rec = jobs[outstanding.front()];
        outstanding.pop_front();
        const service::JobStatus st = svc.wait(rec.id);
        rec.done_ns = now_ns();
        rec.attempts = st.attempts;
        rec.done = st.state == service::JobState::kDone;
        ++res.attempted;
        if (!rec.done) {
            ++res.failed;
            std::printf("# FAIL job %llu ended %s\n",
                        static_cast<unsigned long long>(rec.id),
                        service::job_state_name(st.state));
            return;
        }
        const core::ExecStats& s = svc.result(rec.id).stats;
        rec.exec_s = s.wall_seconds;
        rec.prefix_leases = s.prefix_leases;
    };

    // Each drained batch is scaled to reference speed (anchor.h) by the
    // anchor timed on every CPU while the service is idle, before and after
    // it.  The window is the sum of the scaled batches.
    SpeedNormalizer norm(AnchorScope::kAllCpus);
    norm.start();
    const std::int64_t start = now_ns();
    double window_s = 0.0;
    double rss_mb = 0.0;
    std::vector<double> speeds;
    while (seconds_since(start) < o.seconds || jobs.size() < kMinJobs) {
        const std::size_t first = jobs.size();
        const std::int64_t b0 = now_ns();
        for (std::size_t i = 0; i < kOutstanding; ++i) {
            submit_next();
        }
        while (jobs.size() - first < kBatchJobs) {
            complete_oldest();
            submit_next();
        }
        while (!outstanding.empty()) {
            complete_oldest();
        }
        const double batch_s = seconds_since(b0);
        const double speed = norm.factor();
        speeds.push_back(speed);
        window_s += batch_s * speed;
        for (std::size_t k = first; k < jobs.size(); ++k) {
            jobs[k].speed = speed;
        }
        if (jobs.size() == kMinJobs) {
            rss_mb = peak_rss_mb();
        }
    }

    std::vector<double> latency;
    std::map<std::string, std::vector<double>> tenant_latency;
    std::map<std::string, std::vector<double>> circuit_latency;
    std::vector<double> submit_us;
    std::vector<double> exec_ms;
    std::vector<double> overhead_ms;
    double leases = 0.0;
    std::size_t done = 0;
    for (const JobRecord& r : jobs) {
        if (!r.done) {
            continue;
        }
        ++done;
        const double lat =
            seconds_between(r.submit_ns, r.done_ns) * r.speed;
        latency.push_back(lat);
        tenant_latency[r.spec->tenant].push_back(lat);
        // The sweep's circuits differ only in angles: one class.
        circuit_latency[r.spec->tenant == "sweep" ? "qaoa_sweep"
                                                  : r.spec->circuit.name()]
            .push_back(lat);
        submit_us.push_back(seconds_between(r.submit_ns, r.submitted_ns) *
                            1e6);
        exec_ms.push_back(r.exec_s * r.speed * 1e3);
        overhead_ms.push_back((lat - r.exec_s * r.speed) * 1e3);
        leases += static_cast<double>(r.prefix_leases);
    }
    if (latency.empty()) {
        throw std::runtime_error("service-sweep: no job completed");
    }
    const double tail = tail_percentile(latency.size());
    print_speeds(speeds, "batches");
    std::printf("# jobs: %zu submitted, %zu done in %.3f s; latency p50 "
                "%.3f ms, p95 %.3f ms; highest percentile with >= 10 "
                "samples beyond: p%g = %.3f ms\n",
                jobs.size(), done, window_s, median(latency) * 1e3,
                percentile(latency, 95.0) * 1e3, tail,
                percentile(latency, tail) * 1e3);
    // Latencies: the median is a geomean over circuits (the suite
    // tenant's 15 circuits differ in cost, so its pooled median would jump
    // between them); the p95 a geomean over tenants, which have enough jobs
    // for a p95 each.
    std::vector<double> medians;
    for (const auto& [name, lat] : circuit_latency) {
        medians.push_back(median(lat));
    }
    std::vector<double> p95s;
    for (const auto& [tenant, lat] : tenant_latency) {
        p95s.push_back(percentile(lat, 95.0));
        std::printf("# tenant %-6s %4zu jobs: p50 %.3f ms, p95 %.3f ms "
                    "(highest percentile with >= 10 beyond: p%g)\n",
                    tenant.c_str(), lat.size(), median(lat) * 1e3,
                    p95s.back() * 1e3, tail_percentile(lat.size()));
    }

    // Outside the timed window: a seeded sample of jobs must be
    // bit-identical to an isolated core::run of the same spec.
    LayerData data;
    data.threads = w.threads;
    data.fused_diag_s = fused_diag_med;
    Tracer tracer;
    SpanLog spans;
    tqsim::util::Rng pick(o.seed ^ 0x5eedULL);
    std::vector<double> overhead;
    std::vector<double> plan_med;
    for (std::size_t k = 0; k < kCheckedJobs; ++k) {
        const JobRecord& rec = jobs[pick.uniform_u64(jobs.size())];
        if (!rec.done) {
            continue;
        }
        const service::JobSpec& spec = *rec.spec;
        const std::vector<double>& got =
            svc.result(rec.id).distribution.probabilities();
        std::vector<double> run_s;
        const std::int64_t t0 = now_ns();
        const core::RunResult iso =
            core::run(spec.circuit, spec.model, spec.options);
        run_s.push_back(seconds_since(t0));
        const bool ok = iso.distribution.probabilities() == got;
        ++res.attempted;
        std::printf("# check job %llu (%s): %s isolated core::run\n",
                    static_cast<unsigned long long>(rec.id),
                    spec.circuit.name().c_str(),
                    ok ? "bit-identical to" : "DIFFERS from");
        if (!ok) {
            ++res.failed;
        }
        if (!o.trace) {
            continue;
        }
        // Traced replays give the sim/noise/core split of the jobs' work.
        data.add_stats(iso.stats, spec.circuit.size());
        std::vector<double> traced_s;
        std::vector<double> plan_s;
        for (int rep = 0; rep < kReplays; ++rep) {
            const std::int64_t u0 = now_ns();
            (void)core::run(spec.circuit, spec.model, spec.options);
            run_s.push_back(seconds_since(u0));
            double p = 0.0;
            double t = 0.0;
            OpTotals totals;
            const core::RunResult traced =
                traced_run(spec.circuit, spec.model, spec.options, tracer,
                           data, spans, rec.id, &p, &t, &totals);
            if (rep == 0) {
                data.one_round += totals;
            }
            traced_s.push_back(t);
            plan_s.push_back(p);
            ++res.attempted;
            if (traced.distribution.probabilities() != got) {
                ++res.failed;
                std::printf("# FAIL traced replay of job %llu differs\n",
                            static_cast<unsigned long long>(rec.id));
            }
        }
        overhead.push_back(median(traced_s) / median(run_s));
        plan_med.push_back(median(plan_s));
    }

    res.end_to_end = {
        {"shots_per_s",
         static_cast<double>(done * w.shots) / window_s, "1/s"},
        {"jobs_per_s", static_cast<double>(done) / window_s, "1/s"},
        {"job_p50_ms", geomean(medians) * 1e3, "ms"},
        {"job_p95_ms", geomean(p95s) * 1e3, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MiB"},
    };
    const service::ReuseCache::Stats cache = svc.cache_stats();
    const service::ServiceStats sstats = svc.service_stats();
    std::printf("# cache: plan hits %llu / misses %llu, prefix hits %llu / "
                "misses %llu; prefix leases %.0f; retries %llu\n",
                static_cast<unsigned long long>(cache.plan_hits),
                static_cast<unsigned long long>(cache.plan_misses),
                static_cast<unsigned long long>(cache.prefix_hits),
                static_cast<unsigned long long>(cache.prefix_misses), leases,
                static_cast<unsigned long long>(sstats.retries));
    if (!o.trace) {
        return res;
    }
    for (const JobRecord& r : jobs) {
        Span span{0, 0, r.id, "job " + r.spec->circuit.name(), "service",
                  r.submit_ns, r.done_ns, {}};
        span.args = {{"submit_us", seconds_between(r.submit_ns,
                                                   r.submitted_ns) * 1e6},
                     {"exec_ms", r.exec_s * 1e3},
                     {"prefix_leases", static_cast<double>(r.prefix_leases)},
                     {"attempts", static_cast<double>(r.attempts)}};
        spans.add(std::move(span));
    }
    data.submit_us = median(submit_us);
    data.exec_ms = median(exec_ms);
    data.overhead_ms = median(overhead_ms);
    data.prefix_hit_ratio =
        ratio(static_cast<double>(cache.prefix_hits),
              static_cast<double>(cache.prefix_hits + cache.prefix_misses));
    data.plan_hit_ratio =
        ratio(static_cast<double>(cache.plan_hits),
              static_cast<double>(cache.plan_hits + cache.plan_misses));
    data.prefix_leases = leases;
    data.retries = static_cast<double>(sstats.retries);
    if (!plan_med.empty()) {
        data.plan_s = geomean(plan_med);
        data.trace_overhead = geomean(overhead) - 1.0;
    }
    print_layer_split(data);
    res.per_layer = layer_metrics(data);
    if (!o.trace_path.empty() && spans.write_chrome_json(o.trace_path)) {
        std::printf("# %zu spans written to %s\n", spans.size(),
                    o.trace_path.c_str());
    }
    return res;
}

}  // namespace

BenchResult
run_workload(const BenchOptions& options)
{
    const WorkloadSpec& w = find_spec(options.workload);
    if (w.threads > 1 || w.kind == Kind::kService) {
        // Three busy threads (pool workers, or two lanes plus the job
        // generator) on three CPUs: the speed anchor then visits exactly
        // the CPUs the work runs on, and one CPU stays free for the OS.
        limit_cpus(3);
    }
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                w.name.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    return w.kind == Kind::kExecutor ? run_executor(w, options)
                                     : run_service(w, options);
}

int
regenerate_references(const std::string& dir)
{
    struct Task
    {
        std::string noise;
        sim::Circuit circuit;
    };
    std::vector<Task> tasks;
    const auto suite =
        circuits::benchmark_suite(circuits::SuiteScale::kReduced);
    for (const WorkloadSpec& w : specs()) {
        for (const std::string& name : w.circuits) {
            const bool seen = std::any_of(
                tasks.begin(), tasks.end(), [&](const Task& t) {
                    return t.noise == w.noise && t.circuit.name() == name;
                });
            if (!seen) {
                tasks.push_back(Task{w.noise, find_circuit(suite, name)});
            }
        }
    }
    // Largest first, so the longest density-matrix runs start early.
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const Task& a, const Task& b) {
                         return a.circuit.num_qubits() >
                                b.circuit.num_qubits();
                     });
    std::atomic<std::size_t> next{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int j = 0; j < 3; ++j) {
        workers.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < tasks.size();
                 i = next.fetch_add(1)) {
                const Task& t = tasks[i];
                const std::int64_t t0 = now_ns();
                const bool ok = write_reference(dir, t.noise, t.circuit,
                                                make_noise(t.noise));
                std::printf("# reference %s/%s: %s (%.1f s)\n",
                            t.noise.c_str(), t.circuit.name().c_str(),
                            ok ? "written" : "FAILED", seconds_since(t0));
                std::fflush(stdout);
                if (!ok) {
                    ++failures;
                }
            }
        });
    }
    for (std::thread& t : workers) {
        t.join();
    }
    return failures.load();
}

}  // namespace perfbench
