#include "anchor.h"

#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <complex>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

using Amp = std::complex<double>;

constexpr int kQubits = 10;
constexpr int kPasses = 50;

/** One dense 2x2 pass on qubit @p q (stride-split pairs). */
__attribute__((noinline)) void
dense_pass(Amp* amps, int q, Amp m00, Amp m01, Amp m10, Amp m11)
{
    const std::size_t stride = std::size_t{1} << q;
    const std::size_t size = std::size_t{1} << kQubits;
    for (std::size_t base = 0; base < size; base += 2 * stride) {
        Amp* __restrict a0 = amps + base;
        Amp* __restrict a1 = a0 + stride;
        for (std::size_t k = 0; k < stride; ++k) {
            const Amp x0 = a0[k];
            const Amp x1 = a1[k];
            a0[k] = m00 * x0 + m01 * x1;
            a1[k] = m10 * x0 + m11 * x1;
        }
    }
}

}  // namespace

double
anchor_seconds()
{
    // A unitary rotation keeps the amplitudes normalized forever, so the
    // kernel never drifts into denormals however often it runs.
    thread_local std::vector<Amp> state(std::size_t{1} << kQubits,
                                        Amp{1.0 / 32.0, 0.0});
    const double c = std::cos(0.3);
    const double s = std::sin(0.3);
    const std::int64_t t0 = now_ns();
    for (int pass = 0; pass < kPasses; ++pass) {
        for (int q = 0; q < kQubits; ++q) {
            dense_pass(state.data(), q, Amp{c, 0.0}, Amp{0.0, -s},
                       Amp{0.0, -s}, Amp{c, 0.0});
        }
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
}

double
all_cpus_anchor_seconds()
{
    cpu_set_t own;
    CPU_ZERO(&own);
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (pthread_getaffinity_np(pthread_self(), sizeof own, &own) != 0 ||
        sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
        return anchor_seconds();
    }
    double sum = 0.0;
    int cpus = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &allowed)) {
            continue;
        }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0) {
            sum += anchor_seconds();
            ++cpus;
        }
    }
    pthread_setaffinity_np(pthread_self(), sizeof own, &own);
    return cpus > 0 ? sum / cpus : anchor_seconds();
}

double
SpeedNormalizer::anchor() const
{
    return scope_ == AnchorScope::kAllCpus ? all_cpus_anchor_seconds()
                                           : anchor_seconds();
}

void
SpeedNormalizer::start()
{
    before_s_ = anchor();
}

double
SpeedNormalizer::factor()
{
    const double after_s = anchor();
    const double speed_s = 0.5 * (before_s_ + after_s);
    before_s_ = after_s;
    return kAnchorReferenceSeconds / speed_s;
}

}  // namespace perfbench
