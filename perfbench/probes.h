#ifndef PCCHECK_PERFBENCH_PROBES_H_
#define PCCHECK_PERFBENCH_PROBES_H_

/**
 * @file
 * The benchmark's own probes. Every layer is timed from outside, by
 * decorators over the three interfaces the program is built on:
 *
 *  - TimedCheckpointer wraps the Checkpointer a training loop drives
 *    (the trainsim layer). It is always installed: the end-to-end
 *    stall and request-to-durable samples come from it.
 *  - TimedStorage wraps a StorageDevice (the storage layer) and
 *    CountingClock wraps the Clock handed to the core (backoff and
 *    pacing sleeps). Both are installed only in the traced run and
 *    count only while their LayerProbe is armed.
 *
 * When the program's Tracer is enabled, the decorators also record
 * one span per call into it, so their spans nest with the program's
 * own spans on each thread and self time can be computed by nesting.
 */

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "obs/trace.h"
#include "storage/device.h"
#include "trainsim/checkpointer.h"
#include "util/clock.h"

namespace pcbench {

using pccheck::Bytes;

/** Monotonic nanoseconds on the Tracer's clock. */
inline std::uint64_t
now_ns()
{
    return pccheck::Tracer::now_ns();
}

/** Record a closed span into the program's Tracer (no-op when off).
 *  @p name and @p key must be string literals. */
void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t end_ns, const char* key,
                 std::uint64_t value);

/** Work done at one layer boundary: calls, bytes and busy time. */
struct OpStats {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> busy_ns{0};

    void add(std::uint64_t nbytes, std::uint64_t ns)
    {
        // relaxed: independent monotonic counters, read after the
        // measured window closes.
        calls.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(nbytes, std::memory_order_relaxed);
        busy_ns.fetch_add(ns, std::memory_order_relaxed);
    }
};

/** Plain copy of an OpStats, for window differences and sums. */
struct OpTotals {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
    std::uint64_t busy_ns = 0;

    static OpTotals of(const OpStats& stats);
    OpTotals operator-(const OpTotals& rhs) const;
    OpTotals& operator+=(const OpTotals& rhs);
    double busy_ms() const { return static_cast<double>(busy_ns) / 1e6; }
};

/** Counters of the storage and clock decorators, armed together. */
struct LayerProbe {
    std::atomic<bool> armed{false};
    OpStats write;
    OpStats read;
    OpStats persist;
    OpStats fence;
    OpStats sleep;

    bool active() const
    {
        // relaxed: a coarse switch flipped between phases.
        return armed.load(std::memory_order_relaxed);
    }
    void arm(bool on) { armed.store(on, std::memory_order_relaxed); }
};

/** Timing decorator over a storage device. Forwards the observe
 *  hook to the wrapped device, like every storage decorator. */
class TimedStorage final : public pccheck::StorageDevice {
  public:
    TimedStorage(pccheck::StorageDevice& inner, LayerProbe& probe)
        : inner_(&inner), probe_(&probe)
    {
    }
    TimedStorage(const TimedStorage&) = delete;
    TimedStorage& operator=(const TimedStorage&) = delete;

    Bytes size() const override { return inner_->size(); }
    pccheck::StorageStatus write(Bytes offset, const void* src,
                                 Bytes len) override;
    pccheck::StorageStatus read(Bytes offset, void* dst,
                                Bytes len) const override;
    pccheck::StorageStatus persist(Bytes offset, Bytes len) override;
    pccheck::StorageStatus fence() override;
    pccheck::StorageKind kind() const override { return inner_->kind(); }
    void set_observe_hook(
        std::function<void(const pccheck::StorageOp&)> hook) override
    {
        inner_->set_observe_hook(std::move(hook));
    }

  private:
    pccheck::StorageDevice* inner_;
    LayerProbe* probe_;
};

/** Clock decorator counting the sleeps the core asks for. */
class CountingClock final : public pccheck::Clock {
  public:
    CountingClock(const pccheck::Clock& base, LayerProbe& probe)
        : base_(&base), probe_(&probe)
    {
    }
    CountingClock(const CountingClock&) = delete;
    CountingClock& operator=(const CountingClock&) = delete;

    pccheck::Seconds now() const override { return base_->now(); }
    void sleep_for(pccheck::Seconds duration) const override;

  private:
    const pccheck::Clock* base_;
    LayerProbe* probe_;
};

/**
 * Timing decorator over the Checkpointer one training thread drives.
 * Not thread safe: exactly one thread calls it, like a training loop.
 *
 * While sampling it collects
 *  - one stall sample per checkpoint cycle: the time spent inside
 *    checkpointer calls from one request (full or delta) up to the
 *    next request, so the T->U wait a snapshot causes in the
 *    following before_update() is charged to its checkpoint;
 *  - one request-to-durable sample per durability point: the
 *    latency the program itself recorded for each completed full
 *    checkpoint (read from stats() after each call, outside the timed
 *    region), and the call time of each sealed delta frame, which is
 *    durable when request_delta() returns.
 */
class TimedCheckpointer final : public pccheck::Checkpointer {
  public:
    explicit TimedCheckpointer(pccheck::Checkpointer& inner);
    TimedCheckpointer(const TimedCheckpointer&) = delete;
    TimedCheckpointer& operator=(const TimedCheckpointer&) = delete;

    std::string name() const override { return inner_->name(); }
    void before_update(std::uint64_t iteration) override;
    void request_checkpoint(std::uint64_t iteration) override;
    void request_delta(std::uint64_t iteration) override;
    void finish() override;
    pccheck::CheckpointerStats stats() const override
    {
        return inner_->stats();
    }

    /** Start or stop collecting samples. Starting discards any open
     *  cycle; stopping drops the cycle still open (its stall has not
     *  happened yet). */
    void set_sampling(bool on);

    const std::vector<double>& stall_ms() const { return stall_ms_; }
    const std::vector<double>& durable_ms() const { return durable_ms_; }
    /** Completions observed together in one poll (their latencies
     *  were averaged). */
    std::uint64_t merged_completions() const { return merged_; }
    /** Newest iteration known durable (sealed frame or completed
     *  full checkpoint); std::uint64_t(-1) when none. */
    std::uint64_t last_durable_iteration() const { return last_durable_; }

    OpStats before_update_ops;
    OpStats request_checkpoint_ops;
    OpStats request_delta_ops;
    OpStats finish_ops;

  private:
    void open_cycle(std::uint64_t call_ns);
    void poll(std::uint64_t delta_call_ns, std::uint64_t iteration);

    pccheck::Checkpointer* inner_;
    bool sampling_ = false;
    bool cycle_open_ = false;
    std::uint64_t cycle_ns_ = 0;
    std::vector<double> stall_ms_;
    std::vector<double> durable_ms_;
    std::uint64_t merged_ = 0;

    std::uint64_t seen_completed_ = 0;
    double seen_latency_sum_ = 0;
    std::uint64_t seen_frames_ = 0;
    /** Iterations of requested full checkpoints not yet seen durable
     *  (completions arrive in request order). */
    std::deque<std::uint64_t> pending_full_;
    std::uint64_t last_durable_ = ~0ULL;
};

/** Linear-interpolated quantile (q in [0,1]) of @p values; 0 when
 *  empty. Sorts a copy. */
double quantile(std::vector<double> values, double q);

}  // namespace pcbench

#endif  // PCCHECK_PERFBENCH_PROBES_H_
