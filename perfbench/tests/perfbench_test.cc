// Tests of the benchmark's own arithmetic and of the timing decorator.
// No test framework: each CHECK prints its failure and the binary exits
// non-zero if any failed.
//
//   cmake --build <dir> --target perfbench_test && <dir>/perfbench_test

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "circuits/qft.h"
#include "core/tqsim.h"
#include "stats.h"
#include "timed_backend.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
            ++g_failures;                                                  \
        }                                                                  \
    } while (0)

bool
near(double a, double b, double tol = 1e-12)
{
    return std::abs(a - b) <= tol;
}

template <typename F>
bool
throws(F&& fn)
{
    try {
        fn();
    } catch (const std::exception&) {
        return true;
    }
    return false;
}

void
test_percentiles()
{
    using perfbench::percentile;
    CHECK(near(percentile({5, 1, 3, 2, 4}, 50), 3.0));
    CHECK(near(percentile({1, 2, 3, 4, 5}, 95), 4.8));
    CHECK(near(percentile({1, 2, 3, 4}, 50), 2.5));
    CHECK(near(percentile({7}, 95), 7.0));
    CHECK(throws([] { perfbench::percentile({}, 50); }));
}

void
test_tail_percentile()
{
    using perfbench::tail_percentile;
    // p95 needs n * 5% >= 10, i.e. n >= 200.
    CHECK(tail_percentile(200) == 95.0);
    CHECK(tail_percentile(199) == 90.0);
    CHECK(tail_percentile(100) == 90.0);
    CHECK(tail_percentile(1000) == 99.0);
    CHECK(tail_percentile(10000) == 99.9);
    CHECK(tail_percentile(9999) == 99.0);
    CHECK(tail_percentile(40) == 75.0);
    CHECK(tail_percentile(39) == 50.0);
    CHECK(tail_percentile(3) == 50.0);
    CHECK(tail_percentile(400, 20) == 95.0);
}

void
test_geomean()
{
    using perfbench::geomean;
    CHECK(near(geomean({1, 4, 16}), 4.0));
    CHECK(near(geomean({2}), 2.0));
    // Scale-free: doubling one circuit's rate moves the mean by 2^(1/n).
    CHECK(near(geomean({2, 4, 16}) / geomean({1, 4, 16}), std::cbrt(2.0)));
    CHECK(throws([] { perfbench::geomean({}); }));
    CHECK(throws([] { perfbench::geomean({1.0, 0.0}); }));
}

void
test_self_fraction()
{
    using perfbench::self_fraction;
    CHECK(near(self_fraction(600, 1000, 1), 0.4));
    // Three threads: capacity is 3 x wall.
    CHECK(near(self_fraction(1500, 1000, 3), 0.5));
    CHECK(near(self_fraction(0, 1000, 1), 1.0));
    CHECK(throws([] { perfbench::self_fraction(1, 0, 1); }));
}

void
test_bhc_bound()
{
    const double eps = perfbench::bhc_l1_bound(4096, 1024, 1e-9);
    const double want =
        std::sqrt(2.0 * (1024 * std::log(2.0) + std::log(1e9)) / 4096);
    CHECK(near(eps, want));
    // At eps the tail bound 2^k exp(-n eps^2 / 2) equals delta.
    CHECK(near(1024 * std::log(2.0) - 4096 * eps * eps / 2, std::log(1e-9),
               1e-9));
    CHECK(perfbench::bhc_l1_bound(16384, 1024, 1e-9) < eps);
    CHECK(near(perfbench::l1_distance({0.5, 0.5}, {1.0, 0.0}), 1.0));
    CHECK(throws([] { perfbench::bhc_l1_bound(0, 4, 0.1); }));
}

void
test_bucketing()
{
    const std::vector<double> ref = {0.1, 0.4, 0.1, 0.3, 0.1};
    const std::vector<std::size_t> top = perfbench::top_outcomes(ref, 2);
    CHECK((top == std::vector<std::size_t>{1, 3}));
    // Ties go to the lower index.
    CHECK((perfbench::top_outcomes(ref, 3) ==
           std::vector<std::size_t>{1, 3, 0}));
    const std::vector<double> got = {0.2, 0.3, 0.0, 0.3, 0.2};
    const std::vector<double> coarse = perfbench::coarsen(got, top);
    CHECK(coarse.size() == 3);
    CHECK(near(coarse[0], 0.3) && near(coarse[1], 0.3) &&
          near(coarse[2], 0.4));
    // Coarsening never increases the L1 distance.
    CHECK(perfbench::l1_distance(coarse, perfbench::coarsen(ref, top)) <=
          perfbench::l1_distance(got, ref) + 1e-12);
}

// ---------------------------------------------------------------------------
// Decorator coverage: a fake backend counts every call it receives.
// ---------------------------------------------------------------------------

namespace sim = tqsim::sim;

struct FakeState final : sim::BackendState
{
};

struct FakePrepared final : sim::PreparedSegment
{
    explicit FakePrepared(const sim::CompiledSegment& s)
        : sim::PreparedSegment(s)
    {
    }
};

using Calls = std::map<std::string, int>;

class FakeArena final : public sim::StateArena
{
  public:
    explicit FakeArena(Calls& calls) : calls_(&calls) {}
    std::unique_ptr<sim::BackendState>
    make_root() override
    {
        ++(*calls_)["make_root"];
        return std::make_unique<FakeState>();
    }
    std::unique_ptr<sim::BackendState>
    snapshot(const sim::BackendState&, bool* from_pool) override
    {
        ++(*calls_)["snapshot"];
        *from_pool = true;
        return std::make_unique<FakeState>();
    }
    void
    recycle(std::unique_ptr<sim::BackendState>) override
    {
        ++(*calls_)["recycle"];
    }

  private:
    Calls* calls_;
};

class FakeBackend final : public sim::StateBackend
{
  public:
    explicit FakeBackend(Calls& calls) : calls_(&calls) {}
    const char* name() const override { return note("name"), "fake"; }
    int num_qubits() const override { return note("num_qubits"), 2; }
    std::uint64_t state_bytes() const override
    {
        return note("state_bytes"), 64;
    }
    std::unique_ptr<sim::StateArena>
    make_arena(bool) override
    {
        note("make_arena");
        return std::make_unique<FakeArena>(*calls_);
    }
    std::unique_ptr<sim::PreparedSegment>
    prepare(const sim::CompiledSegment& s) override
    {
        note("prepare");
        return std::make_unique<FakePrepared>(s);
    }
    void
    apply_op(sim::BackendState&, const sim::PreparedSegment& seg,
             std::size_t) override
    {
        // The decorator must hand the inner backend its own prepared
        // segment, never the wrapper.
        if (dynamic_cast<const FakePrepared*>(&seg) != nullptr) {
            note("apply_op");
        }
    }
    void apply_gate(sim::BackendState&, const sim::Gate&) override
    {
        note("apply_gate");
    }
    double
    kraus_probability(const sim::BackendState&, const int*, int,
                      const sim::Matrix&) const override
    {
        return note("kraus_probability"), 0.25;
    }
    void apply_matrix(sim::BackendState&, const int*, int,
                      const sim::Matrix&) override
    {
        note("apply_matrix");
    }
    void scale(sim::BackendState&, sim::Complex) override { note("scale"); }
    sim::Index
    sample_once(const sim::BackendState&, tqsim::util::Rng&) const override
    {
        return note("sample_once"), 3;
    }
    void export_amplitudes(const sim::BackendState&,
                           std::vector<sim::Complex>*) const override
    {
        note("export_amplitudes");
    }
    void import_amplitudes(sim::BackendState&,
                           const std::vector<sim::Complex>&) override
    {
        note("import_amplitudes");
    }
    void reset_state(sim::BackendState&) override { note("reset_state"); }
    std::uint64_t
    state_digest(const sim::BackendState&) const override
    {
        return note("state_digest"), 7;
    }
    double
    norm_squared(const sim::BackendState&) const override
    {
        return note("norm_squared"), 1.0;
    }
    void set_integrity(const tqsim::util::IntegrityOptions&) override
    {
        note("set_integrity");
    }
    void reset_comm_stats() override { note("reset_comm_stats"); }
    sim::CommCounters
    comm_stats() const override
    {
        note("comm_stats");
        sim::CommCounters c;
        c.messages = 5;
        return c;
    }

  private:
    void note(const char* what) const { ++(*calls_)[what]; }
    Calls* calls_;
};

void
test_decorator_covers_every_virtual()
{
    Calls calls;
    perfbench::Tracer tracer;
    perfbench::TimedBackend timed(std::make_unique<FakeBackend>(calls),
                                  tracer);
    calls.clear();  // the constructor may query the width

    sim::Circuit circuit(2);
    circuit.h(0).cx(0, 1);
    const sim::CompiledSegment seg = sim::CompiledSegment::compile(
        circuit, 0, circuit.size(), std::vector<bool>(circuit.size(), false));
    const int qubits[1] = {0};
    const sim::Matrix m(4, sim::Complex{0.0, 0.0});
    tqsim::util::Rng rng(1);
    std::vector<sim::Complex> amps;

    CHECK(std::string(timed.name()) == "fake");
    CHECK(timed.num_qubits() == 2);
    CHECK(timed.state_bytes() == 64);
    std::unique_ptr<sim::StateArena> arena = timed.make_arena(true);
    std::unique_ptr<sim::BackendState> root = arena->make_root();
    bool from_pool = false;
    std::unique_ptr<sim::BackendState> copy = arena->snapshot(*root,
                                                              &from_pool);
    CHECK(from_pool);
    arena->recycle(std::move(copy));
    std::unique_ptr<sim::PreparedSegment> prepared = timed.prepare(seg);
    CHECK(&prepared->source() == &seg);
    timed.apply_op(*root, *prepared, 0);
    timed.apply_gate(*root, circuit.gate(0));
    CHECK(timed.kraus_probability(*root, qubits, 1, m) == 0.25);
    timed.apply_matrix(*root, qubits, 1, m);
    timed.scale(*root, sim::Complex{1.0, 0.0});
    CHECK(timed.sample_once(*root, rng) == 3);
    timed.export_amplitudes(*root, &amps);
    timed.import_amplitudes(*root, amps);
    timed.reset_state(*root);
    CHECK(timed.state_digest(*root) == 7);
    CHECK(timed.norm_squared(*root) == 1.0);
    timed.set_integrity(tqsim::util::IntegrityOptions{});
    timed.reset_comm_stats();
    CHECK(timed.comm_stats().messages == 5);

    // Every StateBackend and StateArena virtual reached the inner backend
    // exactly once.
    const char* const forwarded[] = {
        "name",         "num_qubits",       "state_bytes",
        "make_arena",   "make_root",        "snapshot",
        "recycle",      "prepare",          "apply_op",
        "apply_gate",   "kraus_probability", "apply_matrix",
        "scale",        "sample_once",      "export_amplitudes",
        "import_amplitudes", "reset_state", "state_digest",
        "norm_squared", "set_integrity",    "reset_comm_stats",
        "comm_stats"};
    for (const char* name : forwarded) {
        if (calls[name] != 1) {
            std::printf("FAIL: %s forwarded %d times\n", name, calls[name]);
            ++g_failures;
        }
    }
    CHECK(calls.size() == std::size(forwarded));

    // Every timed op was counted once, with the snapshot's pool hit.
    const perfbench::OpTotals t = tracer.totals();
    for (int op = static_cast<int>(perfbench::Op::kApplyGate);
         op < perfbench::kNumOps; ++op) {
        if (t.ops[static_cast<std::size_t>(op)].calls != 1) {
            std::printf("FAIL: op %s counted %llu times\n",
                        perfbench::op_name(op),
                        static_cast<unsigned long long>(
                            t.ops[static_cast<std::size_t>(op)].calls));
            ++g_failures;
        }
    }
    CHECK(t.kernel_calls() == 2);  // apply_op + apply_gate
    CHECK(t.pool_hits == 1);
    CHECK(tracer.first_root_ns() > 0);
}

void
test_traced_run_is_bit_identical()
{
    namespace core = tqsim::core;
    const sim::Circuit circuit = tqsim::circuits::qft(5);
    const tqsim::noise::NoiseModel model =
        tqsim::noise::NoiseModel::thermal(25000, 30000, 35, 350);
    core::RunOptions opt;
    opt.shots = 512;
    opt.copy_cost_gates = 10.0;
    opt.backend.max_fused_qubits = 4;
    opt.backend.fused_diag_threshold = sim::Index{1} << 22;
    const core::RunResult plain = core::run(circuit, model, opt);

    perfbench::Tracer tracer;
    perfbench::TimedBackend timed(
        core::make_state_backend(opt.backend, circuit.num_qubits()), tracer);
    const std::int64_t t0 = perfbench::now_ns();
    const core::RunResult traced =
        core::execute_tree(circuit, model, core::plan(circuit, model, opt),
                           opt.executor_options(), timed);
    const std::int64_t t1 = perfbench::now_ns();
    CHECK(traced.distribution.probabilities() ==
          plain.distribution.probabilities());
    const perfbench::OpTotals t = tracer.totals();
    CHECK(t.ops[static_cast<std::size_t>(perfbench::Op::kSampleOnce)].calls ==
          plain.stats.outcomes);
    CHECK(t.ops[static_cast<std::size_t>(perfbench::Op::kSnapshot)].calls ==
          plain.stats.state_copies);
    CHECK(t.layer_ns(perfbench::Layer::kChannels) > 0);
    // Child spans lie inside the call: the self share is in [0, 1].
    const double self = perfbench::self_fraction(
        static_cast<double>(t.child_ns()), static_cast<double>(t1 - t0), 1);
    CHECK(self >= 0.0 && self <= 1.0);
}

}  // namespace

int
main()
{
    test_percentiles();
    test_tail_percentile();
    test_geomean();
    test_self_fraction();
    test_bhc_bound();
    test_bucketing();
    test_decorator_covers_every_virtual();
    test_traced_run_is_bit_identical();
    if (g_failures != 0) {
        std::printf("%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("all perfbench tests passed\n");
    return 0;
}
