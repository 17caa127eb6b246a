#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/** Process-unique reset epochs, so a thread's cached slot from an earlier
 *  reset (or another Tracer) is never reused. */
std::atomic<std::uint64_t> g_epoch{1};

struct SlotCache
{
    const void* tracer = nullptr;
    std::uint64_t epoch = 0;
    int slot = 0;
};

thread_local SlotCache t_slot;

const char* const kKernelNames[kNumSegOpKinds] = {
    "identity", "diag_batch", "cphase", "dense1q", "controlled1q",
    "dense2q",  "dense3q",    "dense_kq", "x",     "cx",
    "swap",     "ccx",        "gate_fallback"};

}  // namespace

Layer
layer_of(int op)
{
    if (op < kNumSegOpKinds) {
        return Layer::kKernels;
    }
    switch (static_cast<Op>(op)) {
      case Op::kApplyGate:
        return Layer::kKernels;
      case Op::kKrausProbability:
      case Op::kApplyMatrix:
      case Op::kScale:
        return Layer::kChannels;
      case Op::kSampleOnce:
        return Layer::kSampler;
      case Op::kMakeArena:
      case Op::kMakeRoot:
      case Op::kSnapshot:
      case Op::kRecycle:
      case Op::kExportAmplitudes:
      case Op::kImportAmplitudes:
      case Op::kResetState:
        return Layer::kArena;
      case Op::kPrepare:
      case Op::kStateDigest:
      case Op::kNormSquared:
      case Op::kCount:
        break;
    }
    return Layer::kOther;
}

const char*
layer_name(Layer layer)
{
    switch (layer) {
      case Layer::kKernels:
        return "sim.kernels";
      case Layer::kChannels:
        return "noise.channels";
      case Layer::kSampler:
        return "sim.sampler";
      case Layer::kArena:
        return "sim.arena";
      case Layer::kOther:
      case Layer::kCount:
        break;
    }
    return "sim.other";
}

const char*
op_name(int op)
{
    if (op < kNumSegOpKinds) {
        return kKernelNames[op];
    }
    switch (static_cast<Op>(op)) {
      case Op::kApplyGate:
        return "apply_gate";
      case Op::kKrausProbability:
        return "kraus_probability";
      case Op::kApplyMatrix:
        return "apply_matrix";
      case Op::kScale:
        return "scale";
      case Op::kSampleOnce:
        return "sample_once";
      case Op::kMakeArena:
        return "make_arena";
      case Op::kMakeRoot:
        return "make_root";
      case Op::kSnapshot:
        return "snapshot";
      case Op::kRecycle:
        return "recycle";
      case Op::kExportAmplitudes:
        return "export_amplitudes";
      case Op::kImportAmplitudes:
        return "import_amplitudes";
      case Op::kResetState:
        return "reset_state";
      case Op::kPrepare:
        return "prepare";
      case Op::kStateDigest:
        return "state_digest";
      case Op::kNormSquared:
        return "norm_squared";
      case Op::kCount:
        break;
    }
    return "?";
}

OpTotals&
OpTotals::operator+=(const OpTotals& other)
{
    for (int i = 0; i < kNumOps; ++i) {
        ops[i].calls += other.ops[i].calls;
        ops[i].ns += other.ops[i].ns;
        ops[i].amps += other.ops[i].amps;
    }
    pool_hits += other.pool_hits;
    return *this;
}

std::uint64_t
OpTotals::layer_ns(Layer layer) const
{
    std::uint64_t sum = 0;
    for (int i = 0; i < kNumOps; ++i) {
        if (layer_of(i) == layer) {
            sum += ops[i].ns;
        }
    }
    return sum;
}

std::uint64_t
OpTotals::child_ns() const
{
    std::uint64_t sum = 0;
    for (const OpCounter& c : ops) {
        sum += c.ns;
    }
    return sum;
}

std::uint64_t
OpTotals::kernel_calls() const
{
    std::uint64_t sum = 0;
    for (int i = 0; i < kNumOps; ++i) {
        if (layer_of(i) == Layer::kKernels) {
            sum += ops[i].calls;
        }
    }
    return sum;
}

void
Tracer::reset()
{
    for (Slot& s : slots_) {
        s.t = OpTotals{};
    }
    first_root_.store(0, std::memory_order_relaxed);
    next_slot_.store(0, std::memory_order_relaxed);
    epoch_ = g_epoch.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Slot&
Tracer::slot()
{
    if (t_slot.tracer != this || t_slot.epoch != epoch_) {
        const int index = next_slot_.fetch_add(1, std::memory_order_relaxed);
        if (index >= kMaxThreads) {
            throw std::runtime_error("Tracer: more threads than slots");
        }
        t_slot = SlotCache{this, epoch_, index};
    }
    return slots_[static_cast<std::size_t>(t_slot.slot)];
}

OpCounter&
Tracer::counter(int op)
{
    return slot().t.ops[static_cast<std::size_t>(op)];
}

void
Tracer::note_pool_hit()
{
    ++slot().t.pool_hits;
}

void
Tracer::note_root(std::int64_t t)
{
    std::int64_t expected = 0;
    first_root_.compare_exchange_strong(expected, t,
                                        std::memory_order_relaxed);
}

OpTotals
Tracer::totals() const
{
    OpTotals sum;
    for (const Slot& s : slots_) {
        sum += s.t;
    }
    return sum;
}

std::uint64_t
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = next_id_++;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
SpanLog::attach_totals(Span& span, const OpTotals& totals)
{
    for (int i = 0; i < kNumOps; ++i) {
        const OpCounter& c = totals.ops[static_cast<std::size_t>(i)];
        if (c.calls == 0) {
            continue;
        }
        span.args.emplace_back(std::string(op_name(i)) + ".calls",
                               static_cast<double>(c.calls));
        span.args.emplace_back(std::string(op_name(i)) + ".ns",
                               static_cast<double>(c.ns));
    }
    for (int l = 0; l < kNumLayers; ++l) {
        const auto layer = static_cast<Layer>(l);
        span.args.emplace_back(std::string(layer_name(layer)) + ".ns",
                               static_cast<double>(totals.layer_ns(layer)));
    }
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::write_chrome_json(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu",
                     i == 0 ? "" : ",\n", s.name.c_str(), s.category.c_str(),
                     static_cast<unsigned long long>(s.trace_id),
                     static_cast<double>(s.start_ns - origin) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        for (const auto& [key, value] : s.args) {
            std::fprintf(f, ",\"%s\":%.17g", key.c_str(), value);
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
