#ifndef PERFBENCH_ANCHOR_H_
#define PERFBENCH_ANCHOR_H_

/**
 * @file
 * Speed anchor: scales timings to a reference machine speed.
 *
 * On a shared host the speed of one vCPU can halve for seconds at a time
 * (another tenant on the sibling hardware thread), and the same run then
 * takes twice as long.  The anchor is a fixed reference kernel, the
 * benchmark's own frozen copy of a stride-split dense single-qubit pass over
 * a 10-qubit state, so it slows down with the workload but never changes
 * when the library does.  Timing it right before and after a stretch of
 * work gives the machine speed during that stretch; dividing it out reports
 * the stretch at reference speed.
 *
 * The anchor only ever runs while the library is idle (between calls, or
 * between drained batches of service jobs), so its speed depends on the
 * host alone, never on how busy the code under test keeps the CPUs.
 */

namespace perfbench {

/** Anchor time that defines reference speed (about an uncontended x86-64
 *  core at 3 GHz). */
inline constexpr double kAnchorReferenceSeconds = 1e-3;

/** Wall seconds the reference kernel takes now on the calling thread. */
double anchor_seconds();

/**
 * Mean anchor time over every CPU the process may use: the calling thread
 * is pinned to each in turn, and its own affinity is restored afterwards.
 * Call it only while no other thread of the process is working.
 */
double all_cpus_anchor_seconds();

/** Where a SpeedNormalizer times the anchor. */
enum class AnchorScope
{
    kThisThread,  // single-threaded work on the calling thread
    kAllCpus,     // work spread over every CPU the process may use
};

/**
 * Scales consecutive stretches of work to reference speed.  Each stretch
 * is divided by the mean of the anchor timed just before and just after
 * it; the anchor after one stretch is reused as the anchor before the next.
 */
class SpeedNormalizer
{
  public:
    explicit SpeedNormalizer(AnchorScope scope) : scope_(scope) {}

    /** Times the anchor; call once before the first stretch. */
    void start();

    /** Machine speed over the stretch that just ended, relative to
     *  reference speed (multiply raw times by it); times the anchor
     *  again. */
    double factor();

  private:
    double anchor() const;

    AnchorScope scope_;
    double before_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ANCHOR_H_
