#include "timed_backend.h"

#include <utility>

namespace perfbench {

namespace sim = tqsim::sim;

namespace {

constexpr int
op(Op o)
{
    return static_cast<int>(o);
}

/** The inner backend's prepared segment, carrying the same source. */
class TimedPrepared final : public sim::PreparedSegment
{
  public:
    explicit TimedPrepared(std::unique_ptr<sim::PreparedSegment> inner)
        : sim::PreparedSegment(inner->source()), inner_(std::move(inner))
    {
    }

    const sim::PreparedSegment& inner() const { return *inner_; }

  private:
    std::unique_ptr<sim::PreparedSegment> inner_;
};

class TimedArena final : public sim::StateArena
{
  public:
    TimedArena(std::unique_ptr<sim::StateArena> inner, Tracer& tracer,
               std::uint64_t amps)
        : inner_(std::move(inner)), tracer_(&tracer), amps_(amps)
    {
    }

    std::unique_ptr<sim::BackendState>
    make_root() override
    {
        tracer_->note_root(now_ns());
        OpTimer t(*tracer_, op(Op::kMakeRoot), amps_);
        return inner_->make_root();
    }

    std::unique_ptr<sim::BackendState>
    snapshot(const sim::BackendState& src, bool* from_pool) override
    {
        std::unique_ptr<sim::BackendState> copy;
        {
            OpTimer t(*tracer_, op(Op::kSnapshot), amps_);
            copy = inner_->snapshot(src, from_pool);
        }
        if (*from_pool) {
            tracer_->note_pool_hit();
        }
        return copy;
    }

    void
    recycle(std::unique_ptr<sim::BackendState> state) override
    {
        OpTimer t(*tracer_, op(Op::kRecycle), 0);
        inner_->recycle(std::move(state));
    }

  private:
    std::unique_ptr<sim::StateArena> inner_;
    Tracer* tracer_;
    std::uint64_t amps_;
};

}  // namespace

TimedBackend::TimedBackend(std::unique_ptr<sim::StateBackend> inner,
                           Tracer& tracer)
    : inner_(std::move(inner)),
      tracer_(&tracer),
      amps_(std::uint64_t{1} << inner_->num_qubits())
{
}

const char*
TimedBackend::name() const
{
    return inner_->name();
}

int
TimedBackend::num_qubits() const
{
    return inner_->num_qubits();
}

std::uint64_t
TimedBackend::state_bytes() const
{
    return inner_->state_bytes();
}

std::unique_ptr<sim::StateArena>
TimedBackend::make_arena(bool use_pool)
{
    OpTimer t(*tracer_, op(Op::kMakeArena), 0);
    return std::make_unique<TimedArena>(inner_->make_arena(use_pool),
                                        *tracer_, amps_);
}

std::unique_ptr<sim::PreparedSegment>
TimedBackend::prepare(const sim::CompiledSegment& segment)
{
    OpTimer t(*tracer_, op(Op::kPrepare), 0);
    return std::make_unique<TimedPrepared>(inner_->prepare(segment));
}

void
TimedBackend::apply_op(sim::BackendState& state,
                       const sim::PreparedSegment& segment,
                       std::size_t op_index)
{
    // Every PreparedSegment this backend sees came from prepare() above.
    const auto& timed = static_cast<const TimedPrepared&>(segment);
    OpTimer t(*tracer_, kernel_slot(segment.source().ops()[op_index].kind),
              amps_);
    inner_->apply_op(state, timed.inner(), op_index);
}

void
TimedBackend::apply_gate(sim::BackendState& state, const sim::Gate& gate)
{
    OpTimer t(*tracer_, op(Op::kApplyGate), amps_);
    inner_->apply_gate(state, gate);
}

double
TimedBackend::kraus_probability(const sim::BackendState& state,
                                const int* qubits, int arity,
                                const sim::Matrix& k) const
{
    OpTimer t(*tracer_, op(Op::kKrausProbability), amps_);
    return inner_->kraus_probability(state, qubits, arity, k);
}

void
TimedBackend::apply_matrix(sim::BackendState& state, const int* qubits,
                           int arity, const sim::Matrix& m)
{
    OpTimer t(*tracer_, op(Op::kApplyMatrix), amps_);
    inner_->apply_matrix(state, qubits, arity, m);
}

void
TimedBackend::scale(sim::BackendState& state, sim::Complex factor)
{
    OpTimer t(*tracer_, op(Op::kScale), amps_);
    inner_->scale(state, factor);
}

sim::Index
TimedBackend::sample_once(const sim::BackendState& state,
                          tqsim::util::Rng& rng) const
{
    OpTimer t(*tracer_, op(Op::kSampleOnce), amps_);
    return inner_->sample_once(state, rng);
}

void
TimedBackend::export_amplitudes(const sim::BackendState& state,
                                std::vector<sim::Complex>* out) const
{
    OpTimer t(*tracer_, op(Op::kExportAmplitudes), amps_);
    inner_->export_amplitudes(state, out);
}

void
TimedBackend::import_amplitudes(sim::BackendState& state,
                                const std::vector<sim::Complex>& amps)
{
    OpTimer t(*tracer_, op(Op::kImportAmplitudes), amps_);
    inner_->import_amplitudes(state, amps);
}

void
TimedBackend::reset_state(sim::BackendState& state)
{
    OpTimer t(*tracer_, op(Op::kResetState), amps_);
    inner_->reset_state(state);
}

std::uint64_t
TimedBackend::state_digest(const sim::BackendState& state) const
{
    OpTimer t(*tracer_, op(Op::kStateDigest), amps_);
    return inner_->state_digest(state);
}

double
TimedBackend::norm_squared(const sim::BackendState& state) const
{
    OpTimer t(*tracer_, op(Op::kNormSquared), amps_);
    return inner_->norm_squared(state);
}

void
TimedBackend::set_integrity(const tqsim::util::IntegrityOptions& options)
{
    inner_->set_integrity(options);
}

void
TimedBackend::reset_comm_stats()
{
    inner_->reset_comm_stats();
}

sim::CommCounters
TimedBackend::comm_stats() const
{
    return inner_->comm_stats();
}

}  // namespace perfbench
