#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/**
 * @file
 * Bench-side tracing.  Two records, both kept in memory:
 *
 *  - Tracer: aggregated child spans (call count, nanoseconds, amplitudes
 *    touched) per backend operation, accumulated in per-thread slots so the
 *    executor's worker threads never share a cache line or a lock.  Read
 *    after the traced call returns (the executor joins its workers first).
 *  - SpanLog: one span per run, plan and job (name, start, end, parent,
 *    trace id, plus the run's aggregated child spans as arguments), written
 *    out as Chrome trace-event JSON when the benchmark ends.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/segment_plan.h"

namespace perfbench {

/** Nanoseconds on the steady clock. */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Number of sim::SegOpKind values (kernel ops are indexed by kind). */
inline constexpr int kNumSegOpKinds =
    static_cast<int>(tqsim::sim::SegOpKind::kGateFallback) + 1;

/** Every traced backend operation.  Values below kNumSegOpKinds are
 *  StateBackend::apply_op by SegOpKind. */
enum class Op : int {
    kApplyGate = kNumSegOpKinds,
    kKrausProbability,
    kApplyMatrix,
    kScale,
    kSampleOnce,
    kMakeArena,
    kMakeRoot,
    kSnapshot,
    kRecycle,
    kExportAmplitudes,
    kImportAmplitudes,
    kResetState,
    kPrepare,
    kStateDigest,
    kNormSquared,
    kCount,
};

inline constexpr int kNumOps = static_cast<int>(Op::kCount);

/** The op slot of apply_op for @p kind. */
inline int
kernel_slot(tqsim::sim::SegOpKind kind)
{
    return static_cast<int>(kind);
}

/** Layer an op's time is attributed to. */
enum class Layer : int {
    kKernels,   ///< sim: apply_op / apply_gate
    kChannels,  ///< noise: kraus_probability / apply_matrix / scale
    kSampler,   ///< sim: sample_once
    kArena,     ///< sim: arena make/root/snapshot/recycle, amplitude I/O
    kOther,     ///< sim: prepare, digests, norms
    kCount,
};

inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);

Layer layer_of(int op);
const char* layer_name(Layer layer);
const char* op_name(int op);

/** Aggregated child spans of one op. */
struct OpCounter
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    /** Amplitudes the calls touched (calls x 2^n for whole-state ops). */
    std::uint64_t amps = 0;
};

/** Sums over all threads, taken after a traced call. */
struct OpTotals
{
    std::array<OpCounter, kNumOps> ops{};
    /** Snapshots served from a recycled buffer. */
    std::uint64_t pool_hits = 0;

    OpTotals& operator+=(const OpTotals& other);
    std::uint64_t layer_ns(Layer layer) const;
    std::uint64_t child_ns() const;
    std::uint64_t kernel_calls() const;
};

/**
 * Per-thread accumulators.  A thread takes a slot on first use and keeps it
 * for the process lifetime (pool workers are persistent), so increments are
 * plain stores into memory no other thread writes.
 */
class Tracer
{
  public:
    static constexpr int kMaxThreads = 64;

    Tracer() { reset(); }
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Zeroes every slot and the first-root mark.  Call only while no
     *  traced operation runs. */
    void reset();

    /** This thread's counter for @p op. */
    OpCounter& counter(int op);

    /** Counts a snapshot served from a recycled buffer on this thread. */
    void note_pool_hit();

    /** Records @p t as the first make_root time if none is recorded. */
    void note_root(std::int64_t t);

    /** now_ns() of the first make_root since reset (0 = none). */
    std::int64_t first_root_ns() const
    {
        return first_root_.load(std::memory_order_relaxed);
    }

    /** Sum over every slot. */
    OpTotals totals() const;

  private:
    struct alignas(64) Slot
    {
        OpTotals t;
    };
    Slot& slot();

    std::array<Slot, kMaxThreads> slots_{};
    std::atomic<std::int64_t> first_root_{0};
    /** Slots are handed out afresh after every reset. */
    std::atomic<int> next_slot_{0};
    /** Written only by reset(), which runs with no traced call active. */
    std::uint64_t epoch_ = 0;
};

/** Times one operation into a Tracer counter (RAII, exception-safe). */
class OpTimer
{
  public:
    OpTimer(Tracer& tracer, int op, std::uint64_t amps)
        : counter_(tracer.counter(op)), amps_(amps), start_(now_ns())
    {
    }
    OpTimer(const OpTimer&) = delete;
    OpTimer& operator=(const OpTimer&) = delete;
    ~OpTimer()
    {
        counter_.ns += static_cast<std::uint64_t>(now_ns() - start_);
        counter_.calls += 1;
        counter_.amps += amps_;
    }

  private:
    OpCounter& counter_;
    std::uint64_t amps_;
    std::int64_t start_;
};

/** One recorded span. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    /** Spans of one request share it (a job and its run). */
    std::uint64_t trace_id = 0;
    std::string name;
    std::string category;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Numeric arguments (aggregated child spans, counters). */
    std::vector<std::pair<std::string, double>> args;
};

/** Thread-safe in-memory span list with Chrome trace-event export. */
class SpanLog
{
  public:
    /** Appends @p span, assigning it a fresh id; returns the id. */
    std::uint64_t add(Span span);

    /** Attaches @p totals (per-op counts and ns, per-layer ns) to @p span. */
    static void attach_totals(Span& span, const OpTotals& totals);

    std::size_t size() const;

    /** Writes every span as Chrome trace-event JSON ("X" events). */
    bool write_chrome_json(const std::string& path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
