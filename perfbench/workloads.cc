#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <queue>
#include <stdexcept>
#include <thread>

#include "core/config.h"
#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "gpusim/gpu.h"
#include "probes.h"
#include "service/service.h"
#include "service/service_config.h"
#include "storage/mem_storage.h"
#include "trainsim/training_state.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace pcbench {
namespace {

using pccheck::kKiB;
using pccheck::kMiB;
using pccheck::Seconds;

/** Set-ups per run; set-up time is their median. */
constexpr int kSetups = 3;
/** Timed recoveries per run; recovery time is their median. */
constexpr int kRecoveries = 9;
/** Untimed running before the measured window (lazy set-up, caches). */
constexpr Seconds kWarmup = 1.0;

const pccheck::Clock&
wall()
{
    return pccheck::MonotonicClock::instance();
}

double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}

double
peak_rss_mb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** The shipped configuration, pinned regardless of PCCHECK_PSAN. */
void
pin_shipped(pccheck::PCcheckConfig& config)
{
    config.compute_crc = true;
    config.psan = false;
    config.per_writer_bytes_per_sec = 0;
}

std::unique_ptr<pccheck::SimGpu>
make_gpu(Bytes memory)
{
    pccheck::GpuConfig config;
    config.memory_bytes = memory;
    config.pcie_bytes_per_sec = 0;  // copy engines unthrottled
    return std::make_unique<pccheck::SimGpu>(config);
}

/** Storage and clock probe totals at one instant. */
struct ProbeTotals {
    OpTotals write, read, persist, fence, sleep;

    static ProbeTotals of(const LayerProbe& p)
    {
        return {OpTotals::of(p.write), OpTotals::of(p.read),
                OpTotals::of(p.persist), OpTotals::of(p.fence),
                OpTotals::of(p.sleep)};
    }
    ProbeTotals operator-(const ProbeTotals& b) const
    {
        return {write - b.write, read - b.read, persist - b.persist,
                fence - b.fence, sleep - b.sleep};
    }
};

pccheck::ServiceStats
operator-(const pccheck::ServiceStats& a, const pccheck::ServiceStats& b)
{
    pccheck::ServiceStats d;
    d.admitted = a.admitted - b.admitted;
    d.rejected = a.rejected - b.rejected;
    d.throttled = a.throttled - b.throttled;
    d.requested = a.requested - b.requested;
    d.completed = a.completed - b.completed;
    d.aborted = a.aborted - b.aborted;
    d.stall_time = a.stall_time - b.stall_time;
    d.coalesced_records = a.coalesced_records - b.coalesced_records;
    d.segment_seals = a.segment_seals - b.segment_seals;
    d.segment_recycles = a.segment_recycles - b.segment_recycles;
    return d;
}

/**
 * Everything the traced run measures per layer: totals over the
 * traced window, plus the final drain (finish) and one recovery run
 * with the storage probe armed (storage reads, recovery reads).
 */
struct LayerWindow {
    OpTotals before_update, request_checkpoint, request_delta, finish;
    ProbeTotals probe;
    /** Checkpoint payload made durable in the window (write amp). */
    double payload_bytes = 0;
    std::uint64_t delta_frames = 0;
    std::uint64_t delta_bytes = 0;
    std::uint64_t delta_skipped = 0;
    pccheck::ServiceStats service;
    std::uint64_t recovery_read_bytes = 0;
    double untraced_it_s = 0;
    double traced_it_s = 0;
    /** Chunk size of the reference CRC / memcpy rows. */
    Bytes util_chunk = 0;
};

/** Reference throughput of @p body over @p bytes, median of 5. */
template <typename Body>
double
gbps(Bytes bytes, Body&& body)
{
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
        const std::uint64_t t0 = now_ns();
        int calls = 0;
        while (now_ns() - t0 < 20'000'000ULL) {
            body();
            ++calls;
        }
        const double s = static_cast<double>(now_ns() - t0) / 1e9;
        rates.push_back(static_cast<double>(bytes) * calls / s / 1e9);
    }
    return median(rates);
}

/** The per-layer rows, in the order BENCHMARK.json lists them. Every
 *  workload prints all of them; a layer a workload bypasses reads 0
 *  in its counts. */
void
add_layer_rows(Report& report, const LayerWindow& w)
{
    auto count = [&](const char* name, double value) {
        report.add_layer(name, value, "count");
    };
    auto busy = [&](const char* name, const OpTotals& ops) {
        report.add_layer(name, ops.busy_ms(), "ms", ops.calls);
    };
    OpTotals requests = w.request_checkpoint;
    requests += w.request_delta;
    count("trainsim.before_update.calls",
          static_cast<double>(w.before_update.calls));
    busy("trainsim.before_update.busy_ms", w.before_update);
    count("trainsim.request_checkpoint.calls",
          static_cast<double>(w.request_checkpoint.calls));
    count("trainsim.request_delta.calls",
          static_cast<double>(w.request_delta.calls));
    busy("trainsim.request.busy_ms", requests);
    count("trainsim.finish.calls", static_cast<double>(w.finish.calls));
    busy("trainsim.finish.busy_ms", w.finish);

    std::vector<std::uint8_t> src(w.util_chunk);
    std::vector<std::uint8_t> dst(w.util_chunk);
    pccheck::Rng rng(7);
    for (auto& b : src) {
        b = static_cast<std::uint8_t>(rng.next_u64());
    }
    volatile std::uint32_t sink = 0;
    report.add_layer("util.crc32c.gbps", gbps(w.util_chunk, [&] {
                         sink = sink + pccheck::crc32c(src.data(),
                                                       src.size());
                     }),
                     "GB/s", 5);
    report.add_layer("util.memcpy.gbps", gbps(w.util_chunk, [&] {
                         std::memcpy(dst.data(), src.data(), src.size());
                         sink = sink + dst[dst.size() / 2];
                     }),
                     "GB/s", 5);

    count("core.clock.sleep_calls", static_cast<double>(w.probe.sleep.calls));

    const struct {
        const char* ops;
        const char* bytes;
        const char* busy;
        const OpTotals* totals;
    } storage[] = {
        {"storage.write.ops", "storage.write.bytes", "storage.write.busy_ms",
         &w.probe.write},
        {"storage.read.ops", "storage.read.bytes", "storage.read.busy_ms",
         &w.probe.read},
        {"storage.persist.ops", "storage.persist.bytes",
         "storage.persist.busy_ms", &w.probe.persist},
        {"storage.fence.ops", nullptr, "storage.fence.busy_ms",
         &w.probe.fence},
    };
    for (const auto& row : storage) {
        count(row.ops, static_cast<double>(row.totals->calls));
        if (row.bytes != nullptr) {
            report.add_layer(row.bytes,
                             static_cast<double>(row.totals->bytes), "B");
        }
        busy(row.busy, *row.totals);
    }
    report.add_layer("storage.write_amp",
                     w.payload_bytes > 0
                         ? static_cast<double>(w.probe.write.bytes) /
                               w.payload_bytes
                         : 0,
                     "ratio");

    count("delta.frames", static_cast<double>(w.delta_frames));
    report.add_layer("delta.frame_bytes",
                     static_cast<double>(w.delta_bytes), "B");
    count("delta.skipped", static_cast<double>(w.delta_skipped));

    const pccheck::ServiceStats& s = w.service;
    count("service.admitted", static_cast<double>(s.admitted));
    count("service.rejected", static_cast<double>(s.rejected));
    count("service.throttled", static_cast<double>(s.throttled));
    count("service.coalesced_records",
          static_cast<double>(s.coalesced_records));
    count("service.segment_seals", static_cast<double>(s.segment_seals));
    count("service.segment_recycles",
          static_cast<double>(s.segment_recycles));
    report.add_layer("service.records_per_seal",
                     s.segment_seals > 0
                         ? static_cast<double>(s.coalesced_records) /
                               static_cast<double>(s.segment_seals)
                         : 0,
                     "ratio", s.segment_seals);

    report.add_layer("recovery.read_bytes",
                     static_cast<double>(w.recovery_read_bytes), "B");
    report.add_layer("trace.untraced_it_s", w.untraced_it_s, "1/s");
    report.add_layer("trace.traced_it_s", w.traced_it_s, "1/s");
    report.add_layer("trace.overhead_pct",
                     w.untraced_it_s > 0
                         ? 100.0 * (1.0 - w.traced_it_s / w.untraced_it_s)
                         : 0,
                     "%");
}

/** Enables the Tracer and the probes for one traced window. */
class TracedWindow {
  public:
    explicit TracedWindow(LayerProbe& probe) : probe_(&probe)
    {
        pccheck::Tracer::global().set_enabled(true);
        probe_->arm(true);
    }
    ~TracedWindow()
    {
        probe_->arm(false);
        pccheck::Tracer::global().set_enabled(false);
    }
    TracedWindow(const TracedWindow&) = delete;
    TracedWindow& operator=(const TracedWindow&) = delete;

  private:
    LayerProbe* probe_;
};

/**
 * Time @p recover kRecoveries times for recover_ms; in the traced run
 * run it once more with the storage probe armed, counting its reads.
 * @p recover(counted) verifies what it recovers and records any
 * mismatch in the report itself.
 */
template <typename Recover>
std::vector<double>
time_recoveries(bool traced, LayerProbe& probe, LayerWindow& layers,
                Recover&& recover)
{
    std::vector<double> ms;
    for (int rep = 0; rep < kRecoveries; ++rep) {
        const std::uint64_t t0 = now_ns();
        recover(false);
        ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    if (traced) {
        const OpTotals before = OpTotals::of(probe.read);
        probe.arm(true);
        recover(true);
        probe.arm(false);
        layers.recovery_read_bytes =
            (OpTotals::of(probe.read) - before).bytes;
    }
    return ms;
}

void
add_common_e2e(Report& report, const std::vector<double>& setups,
               const std::vector<double>& recoveries)
{
    report.add_e2e("recover_ms", median(recoveries), "ms",
                   recoveries.size());
    report.add_e2e("setup_s", median(setups), "s", setups.size());
    report.add_e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1);
}

// ---------------------------------------------------------------------
// Single-job workloads: `full` and `delta`.
// ---------------------------------------------------------------------

/** One training job checkpointed by a private PCcheckCheckpointer. */
struct JobSpec {
    Bytes state_bytes = 0;
    Seconds iteration_s = 0;
    double update_fraction = 0.3;
    /** Full checkpoint every this many iterations. */
    std::uint64_t full_interval = 0;
    /** Delta frame on every iteration without a full checkpoint. */
    bool delta = false;
    double sparse_fraction = 0;  ///< 0 = full re-stamp per update
    Bytes delta_log_bytes = 0;
    Bytes chunk_bytes = 0;  ///< pipeline chunk b (0 = unpipelined)
    /** Traced window cap: the program's copy spans must fit the
     *  Tracer's per-thread buffers at this workload's rate. */
    Seconds trace_window_cap = 0;
};

/**
 * full: one job with a 32 MiB state, 25 ms iterations (30% update), a
 * full checkpoint every 4 iterations, N=2, p=3, 2 MiB pipeline
 * chunks. Why: it puts GPU->DRAM copy, CRC, the persist engine and
 * the commit on the checkpoint path, and bypasses the delta and
 * service layers.
 */
JobSpec
full_spec()
{
    JobSpec spec;
    spec.state_bytes = 32 * kMiB;
    spec.iteration_s = 25e-3;
    spec.full_interval = 4;
    spec.chunk_bytes = 2 * kMiB;
    spec.trace_window_cap = 10;
    return spec;
}

/**
 * delta: one job with a 64 MiB state, 20 ms iterations, sparse 2%
 * updates, a delta frame every iteration and a full checkpoint every
 * 50; the delta region is 8*m. Why: it puts DirtyTracker, the
 * synchronous DeltaLog::append (copy, CRC framing, persist and fence
 * on the training thread) and chain replay on the critical path,
 * while the full-checkpoint path runs rarely.
 */
JobSpec
delta_spec()
{
    JobSpec spec;
    spec.state_bytes = 64 * kMiB;
    spec.iteration_s = 20e-3;
    spec.full_interval = 50;
    spec.delta = true;
    spec.sparse_fraction = 0.02;
    spec.delta_log_bytes = 8 * spec.state_bytes;
    spec.trace_window_cap = 3;
    return spec;
}

pccheck::PCcheckConfig
job_config(const JobSpec& spec)
{
    pccheck::PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.writers_per_checkpoint = 3;
    config.chunk_bytes = spec.chunk_bytes;
    config.delta_log_bytes = spec.delta_log_bytes;
    pin_shipped(config);
    return config;
}

struct JobRig {
    std::unique_ptr<pccheck::SimGpu> gpu;
    std::unique_ptr<pccheck::TrainingState> state;
    std::unique_ptr<pccheck::MemStorage> media;
    std::unique_ptr<TimedStorage> timed_media;      // traced run only
    std::unique_ptr<CountingClock> counting_clock;  // traced run only
    std::unique_ptr<pccheck::PCcheckCheckpointer> checkpointer;
    std::unique_ptr<TimedCheckpointer> driver;

    pccheck::StorageDevice& device()
    {
        if (timed_media) {
            return *timed_media;
        }
        return *media;
    }
};

std::unique_ptr<JobRig>
build_job(const JobSpec& spec, bool traced, LayerProbe& probe)
{
    auto rig = std::make_unique<JobRig>();
    rig->gpu = make_gpu(spec.state_bytes + kMiB);
    rig->state = std::make_unique<pccheck::TrainingState>(*rig->gpu,
                                                          spec.state_bytes);
    const pccheck::PCcheckConfig config = job_config(spec);
    rig->media = std::make_unique<pccheck::MemStorage>(
        pccheck::SlotStore::required_size(
            static_cast<std::uint32_t>(config.concurrent_checkpoints + 1),
            spec.state_bytes, spec.delta_log_bytes));
    const pccheck::Clock* clock = &wall();
    if (traced) {
        rig->timed_media =
            std::make_unique<TimedStorage>(*rig->media, probe);
        rig->counting_clock = std::make_unique<CountingClock>(wall(), probe);
        clock = rig->counting_clock.get();
    }
    rig->checkpointer = std::make_unique<pccheck::PCcheckCheckpointer>(
        *rig->state, rig->device(), config, *clock);
    rig->driver = std::make_unique<TimedCheckpointer>(*rig->checkpointer);
    if (spec.delta) {
        // The chain needs a durable base: without one every delta
        // request before the first full checkpoint is skipped.
        rig->driver->request_checkpoint(0);
        rig->driver->finish();
    }
    return rig;
}

/** One T/U iteration, the TrainingLoop::run sequence. */
void
job_step(JobRig& rig, const JobSpec& spec, std::uint64_t iteration,
         std::uint64_t seed)
{
    const Seconds update_s = spec.iteration_s * spec.update_fraction;
    rig.gpu->launch_kernel(spec.iteration_s - update_s);
    rig.driver->before_update(iteration);
    rig.gpu->launch_kernel(update_s);
    if (spec.sparse_fraction > 0) {
        rig.state->sparse_update(iteration, spec.sparse_fraction, seed);
    } else {
        rig.state->stamp(iteration);
    }
    if (iteration % spec.full_interval == 0) {
        rig.driver->request_checkpoint(iteration);
    } else if (spec.delta) {
        rig.driver->request_delta(iteration);
    }
}

/** Run iterations for @p seconds; returns iterations per second. */
double
job_phase(JobRig& rig, const JobSpec& spec, std::uint64_t& iteration,
          std::uint64_t seed, Seconds seconds, std::uint64_t* count)
{
    const pccheck::Stopwatch watch(wall());
    std::uint64_t done = 0;
    while (watch.elapsed() < seconds) {
        job_step(rig, spec, ++iteration, seed);
        ++done;
    }
    if (count != nullptr) {
        *count = done;
    }
    return static_cast<double>(done) / watch.elapsed();
}

Report
run_job(const JobSpec& spec, const Options& options)
{
    Report report;
    LayerProbe probe;
    std::vector<double> setups;
    std::unique_ptr<JobRig> rig;
    for (int i = 0; i < kSetups; ++i) {
        rig.reset();  // free the previous set-up before timing the next
        const std::uint64_t t0 = now_ns();
        rig = build_job(spec, options.trace, probe);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    TimedCheckpointer& driver = *rig->driver;

    std::uint64_t iteration = 0;
    job_phase(*rig, spec, iteration, options.seed, kWarmup, nullptr);

    LayerWindow layers;
    layers.util_chunk = spec.chunk_bytes > 0 ? spec.chunk_bytes : 2 * kMiB;
    Seconds window = options.seconds;
    if (options.trace) {
        layers.untraced_it_s = job_phase(*rig, spec, iteration, options.seed,
                                         options.seconds / 2, nullptr);
        window = std::min(options.seconds / 2, spec.trace_window_cap);
    }
    const pccheck::CheckpointerStats s0 = driver.stats();
    const ProbeTotals p0 = ProbeTotals::of(probe);
    const OpTotals b0 = OpTotals::of(driver.before_update_ops);
    const OpTotals r0 = OpTotals::of(driver.request_checkpoint_ops);
    const OpTotals d0 = OpTotals::of(driver.request_delta_ops);
    std::uint64_t iterations = 0;
    double it_s = 0;
    {
        std::unique_ptr<TracedWindow> traced;
        if (options.trace) {
            traced = std::make_unique<TracedWindow>(probe);
        }
        driver.set_sampling(true);
        it_s = job_phase(*rig, spec, iteration, options.seed, window,
                         &iterations);
        driver.set_sampling(false);
    }
    const pccheck::CheckpointerStats s1 = driver.stats();
    layers.traced_it_s = it_s;
    layers.before_update = OpTotals::of(driver.before_update_ops) - b0;
    layers.request_checkpoint =
        OpTotals::of(driver.request_checkpoint_ops) - r0;
    layers.request_delta = OpTotals::of(driver.request_delta_ops) - d0;
    layers.payload_bytes =
        static_cast<double>(s1.completed - s0.completed) *
            static_cast<double>(spec.state_bytes) +
        static_cast<double>(s1.delta_bytes - s0.delta_bytes);
    layers.delta_frames = s1.delta_frames - s0.delta_frames;
    layers.delta_bytes = s1.delta_bytes - s0.delta_bytes;
    layers.delta_skipped = s1.delta_skipped - s0.delta_skipped;

    // Stop at the same point of the checkpoint cycle in every run, so
    // recovery replays a chain of the same length (untimed).
    while (iteration % spec.full_interval != spec.full_interval / 2) {
        job_step(*rig, spec, ++iteration, options.seed);
    }
    const OpTotals f0 = OpTotals::of(driver.finish_ops);
    driver.finish();
    layers.finish = OpTotals::of(driver.finish_ops) - f0;

    // Failure accounting over the whole run, set-up included.
    const pccheck::CheckpointerStats totals = driver.stats();
    report.attempted = totals.requested + totals.delta_frames +
                       totals.delta_skipped;
    report.count_failures(totals.aborted, "aborted full checkpoints");
    report.count_failures(totals.requested - totals.completed -
                              totals.aborted,
                          "full checkpoints never completed");
    report.count_failures(totals.delta_skipped, "skipped delta frames");

    // Correctness gate: recover the final media through the public
    // API, the way a restarted job would, and verify every image.
    const std::uint64_t expected =
        spec.delta ? iteration
                   : iteration - iteration % spec.full_interval;
    if (driver.last_durable_iteration() != expected) {
        report.mismatch("last durable iteration " +
                        std::to_string(driver.last_durable_iteration()) +
                        " is not the last requested one " +
                        std::to_string(expected));
    }
    const std::vector<double> recoveries = time_recoveries(
        options.trace, probe, layers, [&](bool counted) {
            std::vector<std::uint8_t> image;
            const auto result = pccheck::recover_latest(
                counted ? rig->device() : *rig->media, &image);
            std::optional<std::uint64_t> verified;
            if (result.has_value()) {
                verified = spec.delta
                               ? pccheck::TrainingState::verify_buffer_sparse(
                                     image.data(), image.size())
                               : pccheck::TrainingState::verify_buffer(
                                     image.data(), image.size());
            }
            ++report.attempted;
            if (!result.has_value() || !verified.has_value() ||
                *verified != expected || result->iteration != expected) {
                report.mismatch(
                    "recovered image does not verify at iteration " +
                    std::to_string(expected) + " (got " +
                    (verified ? std::to_string(*verified) : "none") + ")");
            }
        });
    layers.probe = ProbeTotals::of(probe) - p0;

    // Tail = p90: about a hundred (full) to a thousand (delta) samples
    // per run leave at least ten beyond it.
    report.add_e2e("train_it_s", it_s, "1/s", iterations);
    report.add_e2e("stall_p50_ms", quantile(driver.stall_ms(), 0.5), "ms",
                   driver.stall_ms().size());
    report.add_e2e("stall_p90_ms", quantile(driver.stall_ms(), 0.9), "ms",
                   driver.stall_ms().size(), "stall_tail_ms");
    report.add_e2e("ckpt_p50_ms", quantile(driver.durable_ms(), 0.5), "ms",
                   driver.durable_ms().size());
    report.add_e2e("ckpt_p90_ms", quantile(driver.durable_ms(), 0.9), "ms",
                   driver.durable_ms().size(), "ckpt_tail_ms");
    add_common_e2e(report, setups, recoveries);
    if (options.trace) {
        add_layer_rows(report, layers);
        report.add_layer("recovery.busy_ms", median(recoveries), "ms",
                         recoveries.size());
    }
    if (driver.merged_completions() > 0) {
        report.notes.push_back(
            std::to_string(driver.merged_completions()) +
            " completions were observed in batches; their latencies "
            "were averaged");
    }
    return report;
}

// ---------------------------------------------------------------------
// `fleet`: a CheckpointService under an open loop.
// ---------------------------------------------------------------------

constexpr int kFleetTenants = 32;
constexpr int kFleetBig = 4;
constexpr Bytes kBigState = 4 * kMiB;
constexpr Bytes kSmallState = 32 * kKiB;
constexpr Seconds kBigPeriod = 50e-3;
constexpr Seconds kSmallPeriod = 10e-3;
/** Relative jitter of every tenant period. */
constexpr double kJitter = 0.1;
/** Load comes from at most two threads, leaving the other cores to
 *  the program's snapshot and writer threads. */
constexpr int kDrivers = 2;
constexpr Seconds kFleetTraceCap = 3;

/**
 * fleet: 32 tenants on 2 shards, a writer pool of 4. Four big tenants
 * (4 MiB, private arenas) are due every 50 ms, 28 small ones (32 KiB,
 * coalesced into 4 MiB segments, 8 per shard) every 10 ms; the shard
 * budget (2 GB/s) is above the offered ~410 MiB/s. Why: thousands of
 * small checkpoints stress admission, segment group commit, the
 * region and pacing decorators and the shared pool, where per-op
 * overhead dominates rather than copy bandwidth.
 */
pccheck::ServiceConfig
fleet_config()
{
    pccheck::ServiceConfig config;
    config.shards = 2;
    config.writer_threads = 4;
    config.qos.enabled = true;
    config.qos.device_budget_bytes_per_sec = 2.0e9;
    config.coalescer.segment_bytes = 4 * kMiB;
    config.coalescer.segments_per_backend = 8;
    // Big tenants: the first two ids routed to each shard.
    int big_on_shard[2] = {0, 0};
    for (int id = 0; id < kFleetTenants; ++id) {
        pccheck::TenantSpec spec;
        spec.id = static_cast<std::uint64_t>(id);
        const int shard = pccheck::service_shard_of(spec.id, config.shards);
        const bool big = big_on_shard[shard] < kFleetBig / 2;
        spec.state_bytes = big ? kBigState : kSmallState;
        big_on_shard[shard] += big ? 1 : 0;
        pin_shipped(spec.checkpoint);
        config.tenants.push_back(spec);
    }
    return config;
}

bool
is_big(const pccheck::TenantSpec& spec)
{
    return spec.state_bytes == kBigState;
}

struct FleetRig {
    pccheck::ServiceConfig config;
    std::vector<std::unique_ptr<pccheck::MemStorage>> media;
    std::vector<std::unique_ptr<TimedStorage>> timed_media;  // traced
    std::unique_ptr<CountingClock> counting_clock;           // traced
    std::unique_ptr<pccheck::SimGpu> gpu;
    std::vector<std::unique_ptr<pccheck::TrainingState>> states;
    std::unique_ptr<pccheck::CheckpointService> service;
    std::vector<std::unique_ptr<TimedCheckpointer>> drivers;

    std::vector<pccheck::StorageDevice*> raw_backends() const
    {
        std::vector<pccheck::StorageDevice*> out;
        for (const auto& m : media) {
            out.push_back(m.get());
        }
        return out;
    }
    std::vector<pccheck::StorageDevice*> backends() const
    {
        if (timed_media.empty()) {
            return raw_backends();
        }
        std::vector<pccheck::StorageDevice*> out;
        for (const auto& m : timed_media) {
            out.push_back(m.get());
        }
        return out;
    }
};

std::unique_ptr<FleetRig>
build_fleet(bool traced, LayerProbe& probe)
{
    auto rig = std::make_unique<FleetRig>();
    rig->config = fleet_config();
    for (int s = 0; s < rig->config.shards; ++s) {
        rig->media.push_back(std::make_unique<pccheck::MemStorage>(
            pccheck::plan_shard_layout(rig->config, s).required_bytes));
        if (traced) {
            rig->timed_media.push_back(
                std::make_unique<TimedStorage>(*rig->media.back(), probe));
        }
    }
    const pccheck::Clock* clock = &wall();
    if (traced) {
        rig->counting_clock = std::make_unique<CountingClock>(wall(), probe);
        clock = rig->counting_clock.get();
    }
    rig->gpu = make_gpu(kFleetBig * kBigState +
                        (kFleetTenants - kFleetBig) * kSmallState + kMiB);
    rig->service = std::make_unique<pccheck::CheckpointService>(
        rig->config, rig->backends(), *clock);
    for (const pccheck::TenantSpec& spec : rig->config.tenants) {
        rig->states.push_back(std::make_unique<pccheck::TrainingState>(
            *rig->gpu, spec.state_bytes));
        rig->drivers.push_back(std::make_unique<TimedCheckpointer>(
            *rig->service->attach_tenant(spec.id, *rig->states.back())));
    }
    return rig;
}

/** Requests of one phase, as one driver thread saw them. */
struct FleetSamples {
    std::vector<double> due_ms;      ///< due -> return
    std::vector<double> late_ms;     ///< due -> start
    std::vector<double> service_ms;  ///< start -> return
    std::uint64_t requests = 0;
    Seconds last_return = 0;

    void merge(const FleetSamples& other)
    {
        due_ms.insert(due_ms.end(), other.due_ms.begin(),
                      other.due_ms.end());
        late_ms.insert(late_ms.end(), other.late_ms.begin(),
                       other.late_ms.end());
        service_ms.insert(service_ms.end(), other.service_ms.begin(),
                          other.service_ms.end());
        requests += other.requests;
        last_return = std::max(last_return, other.last_return);
    }
};

/** Phase boundaries, seconds on the wall clock. Requests belong to the
 *  phase their due time falls in. */
struct FleetPlan {
    Seconds start = 0;     ///< first due times are offset from here
    Seconds untraced = 0;  ///< traced run: untraced phase begins
    Seconds window = 0;    ///< measured (traced) window begins
    Seconds end = 0;       ///< no request is due from here on
};

/** Per-driver-thread state; only its own thread touches it. */
struct FleetDriver {
    std::vector<int> tenants;
    std::uint64_t seed = 0;
    FleetSamples untraced;  ///< traced run's untraced phase
    FleetSamples window;
};

/** One driver thread: an open loop over its tenants' due times. */
void
drive_fleet(FleetRig& rig, FleetDriver& me,
            const std::vector<Seconds>& first_due, const FleetPlan& plan,
            std::vector<std::uint64_t>& iterations)
{
    pccheck::Rng rng(me.seed);
    using Due = std::pair<Seconds, int>;
    std::priority_queue<Due, std::vector<Due>, std::greater<Due>> queue;
    for (const int t : me.tenants) {
        queue.push({plan.start + first_due[static_cast<std::size_t>(t)], t});
    }
    bool sampling = false;
    while (!queue.empty()) {
        const auto [due, t] = queue.top();
        queue.pop();
        if (due >= plan.end) {
            continue;  // this tenant is done
        }
        const auto ti = static_cast<std::size_t>(t);
        const bool in_window = due >= plan.window;
        if (in_window != sampling) {
            for (const int u : me.tenants) {
                rig.drivers[static_cast<std::size_t>(u)]->set_sampling(
                    in_window);
            }
            sampling = in_window;
        }
        const Seconds now = wall().now();
        if (due > now) {
            wall().sleep_for(due - now);
        }
        const Seconds start = wall().now();
        TimedCheckpointer& driver = *rig.drivers[ti];
        const std::uint64_t iteration = ++iterations[ti];
        driver.before_update(iteration);
        rig.states[ti]->stamp(iteration);
        driver.request_checkpoint(iteration);
        const Seconds end = wall().now();

        FleetSamples* out = in_window ? &me.window
                            : due >= plan.untraced ? &me.untraced
                                                   : nullptr;
        if (out != nullptr) {
            out->due_ms.push_back((end - due) * 1e3);
            out->late_ms.push_back((start - due) * 1e3);
            out->service_ms.push_back((end - start) * 1e3);
            ++out->requests;
            out->last_return = std::max(out->last_return, end);
        }
        // Independent jobs: each period jitters, so tenants drift
        // through every relative phase within one run.
        const Seconds period =
            is_big(rig.config.tenants[ti]) ? kBigPeriod : kSmallPeriod;
        queue.push(
            {due + period * rng.uniform(1 - kJitter, 1 + kJitter), t});
    }
    for (const int u : me.tenants) {
        rig.drivers[static_cast<std::size_t>(u)]->set_sampling(false);
    }
}

/** Joins every thread of a vector, at the latest when it goes out of
 *  scope, so no path destroys a joinable thread. */
class JoinOnExit {
  public:
    explicit JoinOnExit(std::vector<std::thread>& threads)
        : threads_(&threads)
    {
    }
    ~JoinOnExit() { join(); }
    JoinOnExit(const JoinOnExit&) = delete;
    JoinOnExit& operator=(const JoinOnExit&) = delete;

    void join() const
    {
        for (std::thread& thread : *threads_) {
            if (thread.joinable()) {
                thread.join();
            }
        }
    }

  private:
    std::vector<std::thread>* threads_;
};

/** Totals of one call kind over every tenant session. */
OpTotals
sum_ops(const FleetRig& rig, OpStats TimedCheckpointer::*member)
{
    OpTotals total;
    for (const auto& d : rig.drivers) {
        total += OpTotals::of((*d).*member);
    }
    return total;
}

Report
run_fleet(const Options& options)
{
    Report report;
    LayerProbe probe;
    std::vector<double> setups;
    std::unique_ptr<FleetRig> rig;
    for (int i = 0; i < kSetups; ++i) {
        rig.reset();
        const std::uint64_t t0 = now_ns();
        rig = build_fleet(options.trace, probe);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }

    // Seeded inputs: each tenant's phase within its period, hence the
    // order in which tenants fall due, and each driver's jitter stream.
    // Tenants alternate between the driver threads within each size
    // class, so each thread carries two big tenants.
    pccheck::Rng rng(options.seed);
    std::vector<Seconds> first_due;
    std::vector<FleetDriver> drivers(kDrivers);
    int next[2] = {0, 0};
    for (int t = 0; t < kFleetTenants; ++t) {
        const bool big =
            is_big(rig->config.tenants[static_cast<std::size_t>(t)]);
        first_due.push_back(rng.uniform(0, big ? kBigPeriod : kSmallPeriod));
        drivers[static_cast<std::size_t>(next[big ? 1 : 0]++ % kDrivers)]
            .tenants.push_back(t);
    }
    for (auto& d : drivers) {
        d.seed = rng.next_u64();
    }

    FleetPlan plan;
    plan.start = wall().now() + 0.005;
    plan.untraced = plan.start + kWarmup;
    Seconds window = options.seconds;
    if (options.trace) {
        plan.window = plan.untraced + options.seconds / 2;
        window = std::min(options.seconds / 2, kFleetTraceCap);
    } else {
        plan.window = plan.untraced;
    }
    plan.end = plan.window + window;

    std::vector<std::uint64_t> iterations(kFleetTenants, 0);
    std::vector<std::exception_ptr> errors(drivers.size());
    std::vector<std::thread> threads;
    const JoinOnExit join_on_exit(threads);
    for (std::size_t i = 0; i < drivers.size(); ++i) {
        threads.emplace_back([&, i] {
            try {
                drive_fleet(*rig, drivers[i], first_due, plan, iterations);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }

    // Window counters, read at the window's boundaries.
    LayerWindow layers;
    layers.util_chunk = 2 * kMiB;
    wall().sleep_for(std::max(0.0, plan.window - wall().now()));
    const pccheck::ServiceStats s0 = rig->service->stats();
    const ProbeTotals p0 = ProbeTotals::of(probe);
    const OpTotals b0 = sum_ops(*rig, &TimedCheckpointer::before_update_ops);
    const OpTotals r0 =
        sum_ops(*rig, &TimedCheckpointer::request_checkpoint_ops);
    {
        std::unique_ptr<TracedWindow> traced;
        if (options.trace) {
            traced = std::make_unique<TracedWindow>(probe);
        }
        wall().sleep_for(std::max(0.0, plan.end - wall().now()));
        join_on_exit.join();  // returns once the last due request is served
    }
    for (const std::exception_ptr& error : errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
    const pccheck::ServiceStats ds = rig->service->stats() - s0;
    layers.before_update =
        sum_ops(*rig, &TimedCheckpointer::before_update_ops) - b0;
    layers.request_checkpoint =
        sum_ops(*rig, &TimedCheckpointer::request_checkpoint_ops) - r0;
    layers.service = ds;
    layers.payload_bytes =
        static_cast<double>(ds.coalesced_records) *
            static_cast<double>(kSmallState) +
        static_cast<double>(ds.completed - ds.coalesced_records) *
            static_cast<double>(kBigState);

    const OpTotals f0 = sum_ops(*rig, &TimedCheckpointer::finish_ops);
    for (const auto& d : rig->drivers) {
        d->finish();
    }
    rig->service->finish();
    layers.finish = sum_ops(*rig, &TimedCheckpointer::finish_ops) - f0;

    FleetSamples all;
    FleetSamples untraced;
    for (const auto& d : drivers) {
        all.merge(d.window);
        untraced.merge(d.untraced);
    }
    std::vector<double> durable;
    std::uint64_t merged = 0;
    for (const auto& d : rig->drivers) {
        durable.insert(durable.end(), d->durable_ms().begin(),
                       d->durable_ms().end());
        merged += d->merged_completions();
    }

    // Failure accounting over the whole run.
    const pccheck::ServiceStats totals = rig->service->stats();
    for (const std::uint64_t n : iterations) {
        report.attempted += n;
    }
    report.count_failures(totals.rejected, "admission refusals");
    report.count_failures(totals.aborted, "aborted tenant checkpoints");

    // Correctness gate: every tenant resolves from the final media at
    // or above its durable watermark, with a verified image.
    const std::vector<double> recoveries = time_recoveries(
        options.trace, probe, layers, [&](bool counted) {
            const std::vector<pccheck::StorageDevice*> media =
                counted ? rig->backends() : rig->raw_backends();
            for (const pccheck::TenantSpec& spec : rig->config.tenants) {
                const pccheck::TenantWatermark wm =
                    rig->service->watermark(spec.id);
                const pccheck::TenantRecovery rec =
                    pccheck::CheckpointService::resolve_tenant(
                        rig->config, media, spec.id);
                std::optional<std::uint64_t> verified;
                if (rec.found) {
                    verified = pccheck::TrainingState::verify_buffer(
                        rec.image.data(), rec.image.size());
                }
                ++report.attempted;
                if (!wm.valid || !rec.found || !verified.has_value() ||
                    *verified != rec.result.iteration ||
                    rec.result.iteration < wm.iteration) {
                    report.mismatch("tenant " + std::to_string(spec.id) +
                                    " does not resolve at its watermark " +
                                    std::to_string(wm.iteration));
                }
            }
        });
    layers.probe = ProbeTotals::of(probe) - p0;

    // Served rate: requests due in the window over the time until the
    // last of them returned (the offered rate unless the fleet falls
    // behind).
    const double it_s =
        static_cast<double>(all.requests) / (all.last_return - plan.window);
    layers.traced_it_s = it_s;
    if (options.trace) {
        layers.untraced_it_s =
            static_cast<double>(untraced.requests) /
            (untraced.last_return - plan.untraced);
    }

    // The stall is the time inside the session's calls, as on full and
    // delta. Its tail is p99.9, the highest percentile with ten samples
    // beyond it: about 0.8% of small requests seal a segment, and p99
    // sits on that cluster's edge. The open-loop view (from the due
    // time) is printed too; it adds how long a slow request holds up
    // the rest of its driver thread, which depends on how the host
    // schedules 10 threads on 4 cores and moves 12-22% run to run.
    report.add_e2e("train_it_s", it_s, "1/s", all.requests);
    report.add_e2e("stall_p50_ms", quantile(all.service_ms, 0.5), "ms",
                   all.service_ms.size());
    report.add_e2e("stall_p999_ms", quantile(all.service_ms, 0.999), "ms",
                   all.service_ms.size(), "stall_tail_ms");
    report.add_printed("fleet_p50_ms", quantile(all.due_ms, 0.5), "ms",
                       all.due_ms.size());
    report.add_printed("fleet_p99_ms", quantile(all.due_ms, 0.99), "ms",
                       all.due_ms.size());
    report.add_printed("late_p99_ms", quantile(all.late_ms, 0.99), "ms",
                       all.late_ms.size());
    report.add_e2e("ckpt_p50_ms", quantile(durable, 0.5), "ms",
                   durable.size());
    report.add_e2e("ckpt_p99_ms", quantile(durable, 0.99), "ms",
                   durable.size(), "ckpt_tail_ms");
    add_common_e2e(report, setups, recoveries);
    if (options.trace) {
        add_layer_rows(report, layers);
        report.add_layer("recovery.busy_ms", median(recoveries), "ms",
                         recoveries.size());
    }
    if (merged > 0) {
        report.notes.push_back(std::to_string(merged) +
                               " completions were observed in batches; "
                               "their latencies were averaged");
    }
    return report;
}

}  // namespace

Report
run_workload(const Options& options)
{
    if (options.workload == "full") {
        return run_job(full_spec(), options);
    }
    if (options.workload == "delta") {
        return run_job(delta_spec(), options);
    }
    if (options.workload == "fleet") {
        return run_fleet(options);
    }
    throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace pcbench
