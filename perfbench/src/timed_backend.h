#ifndef PERFBENCH_TIMED_BACKEND_H_
#define PERFBENCH_TIMED_BACKEND_H_

/**
 * @file
 * A timing decorator for sim::StateBackend.  It forwards every virtual to an
 * inner backend and times each call into a Tracer; make_arena and prepare
 * return wrappers so arena operations and apply_op (by SegOpKind) are timed
 * too.  Results are bit-identical to the undecorated backend: the decorator
 * only forwards, it never touches amplitudes or RNG streams.
 *
 * Pass it to the public core::execute_tree(..., sim::StateBackend&)
 * overload; no code under src/ knows it exists.
 */

#include <memory>

#include "sim/state_backend.h"
#include "trace.h"

namespace perfbench {

class TimedBackend final : public tqsim::sim::StateBackend
{
  public:
    /** Decorates @p inner; @p tracer must outlive every arena and prepared
     *  segment this backend vends. */
    TimedBackend(std::unique_ptr<tqsim::sim::StateBackend> inner,
                 Tracer& tracer);

    const char* name() const override;
    int num_qubits() const override;
    std::uint64_t state_bytes() const override;
    std::unique_ptr<tqsim::sim::StateArena> make_arena(bool use_pool) override;
    std::unique_ptr<tqsim::sim::PreparedSegment> prepare(
        const tqsim::sim::CompiledSegment& segment) override;
    void apply_op(tqsim::sim::BackendState& state,
                  const tqsim::sim::PreparedSegment& segment,
                  std::size_t op_index) override;
    void apply_gate(tqsim::sim::BackendState& state,
                    const tqsim::sim::Gate& gate) override;
    double kraus_probability(const tqsim::sim::BackendState& state,
                             const int* qubits, int arity,
                             const tqsim::sim::Matrix& k) const override;
    void apply_matrix(tqsim::sim::BackendState& state, const int* qubits,
                      int arity, const tqsim::sim::Matrix& m) override;
    void scale(tqsim::sim::BackendState& state,
               tqsim::sim::Complex factor) override;
    tqsim::sim::Index sample_once(const tqsim::sim::BackendState& state,
                                  tqsim::util::Rng& rng) const override;
    void export_amplitudes(
        const tqsim::sim::BackendState& state,
        std::vector<tqsim::sim::Complex>* out) const override;
    void import_amplitudes(
        tqsim::sim::BackendState& state,
        const std::vector<tqsim::sim::Complex>& amps) override;
    void reset_state(tqsim::sim::BackendState& state) override;
    std::uint64_t state_digest(
        const tqsim::sim::BackendState& state) const override;
    double norm_squared(const tqsim::sim::BackendState& state) const override;
    void set_integrity(const tqsim::util::IntegrityOptions& options) override;
    void reset_comm_stats() override;
    tqsim::sim::CommCounters comm_stats() const override;

  private:
    std::unique_ptr<tqsim::sim::StateBackend> inner_;
    Tracer* tracer_;
    /** Amplitudes of one state: the per-call work unit of whole-state ops. */
    std::uint64_t amps_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_BACKEND_H_
