#include "probes.h"

#include <algorithm>
#include <cmath>

namespace pcbench {

void
record_span(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
            const char* key, std::uint64_t value)
{
    pccheck::Tracer& tracer = pccheck::Tracer::global();
    if (tracer.enabled()) {
        const pccheck::TraceArg arg{key, value};
        tracer.record(name, begin_ns, end_ns, &arg, 1);
    }
}

OpTotals
OpTotals::of(const OpStats& stats)
{
    OpTotals out;
    out.calls = stats.calls.load(std::memory_order_relaxed);
    out.bytes = stats.bytes.load(std::memory_order_relaxed);
    out.busy_ns = stats.busy_ns.load(std::memory_order_relaxed);
    return out;
}

OpTotals
OpTotals::operator-(const OpTotals& rhs) const
{
    OpTotals out;
    out.calls = calls - rhs.calls;
    out.bytes = bytes - rhs.bytes;
    out.busy_ns = busy_ns - rhs.busy_ns;
    return out;
}

OpTotals&
OpTotals::operator+=(const OpTotals& rhs)
{
    calls += rhs.calls;
    bytes += rhs.bytes;
    busy_ns += rhs.busy_ns;
    return *this;
}

pccheck::StorageStatus
TimedStorage::write(Bytes offset, const void* src, Bytes len)
{
    if (!probe_->active()) {
        return inner_->write(offset, src, len);
    }
    const std::uint64_t t0 = now_ns();
    const pccheck::StorageStatus status = inner_->write(offset, src, len);
    const std::uint64_t t1 = now_ns();
    probe_->write.add(len, t1 - t0);
    record_span("storage.write", t0, t1, "len", len);
    return status;
}

pccheck::StorageStatus
TimedStorage::read(Bytes offset, void* dst, Bytes len) const
{
    if (!probe_->active()) {
        return inner_->read(offset, dst, len);
    }
    const std::uint64_t t0 = now_ns();
    const pccheck::StorageStatus status = inner_->read(offset, dst, len);
    const std::uint64_t t1 = now_ns();
    probe_->read.add(len, t1 - t0);
    record_span("storage.read", t0, t1, "len", len);
    return status;
}

pccheck::StorageStatus
TimedStorage::persist(Bytes offset, Bytes len)
{
    if (!probe_->active()) {
        return inner_->persist(offset, len);
    }
    const std::uint64_t t0 = now_ns();
    const pccheck::StorageStatus status = inner_->persist(offset, len);
    const std::uint64_t t1 = now_ns();
    probe_->persist.add(len, t1 - t0);
    record_span("storage.persist", t0, t1, "len", len);
    return status;
}

pccheck::StorageStatus
TimedStorage::fence()
{
    if (!probe_->active()) {
        return inner_->fence();
    }
    const std::uint64_t t0 = now_ns();
    const pccheck::StorageStatus status = inner_->fence();
    const std::uint64_t t1 = now_ns();
    probe_->fence.add(0, t1 - t0);
    record_span("storage.fence", t0, t1, "len", 0);
    return status;
}

void
CountingClock::sleep_for(pccheck::Seconds duration) const
{
    if (!probe_->active()) {
        base_->sleep_for(duration);
        return;
    }
    const std::uint64_t t0 = now_ns();
    base_->sleep_for(duration);
    probe_->sleep.add(0, now_ns() - t0);
}

TimedCheckpointer::TimedCheckpointer(pccheck::Checkpointer& inner)
    : inner_(&inner)
{
    const pccheck::CheckpointerStats s = inner_->stats();
    seen_completed_ = s.completed;
    seen_latency_sum_ = s.checkpoint_latency.sum();
    seen_frames_ = s.delta_frames;
}

void
TimedCheckpointer::set_sampling(bool on)
{
    sampling_ = on;
    cycle_open_ = false;
    cycle_ns_ = 0;
}

void
TimedCheckpointer::open_cycle(std::uint64_t call_ns)
{
    if (sampling_ && cycle_open_) {
        stall_ms_.push_back(static_cast<double>(cycle_ns_) / 1e6);
    }
    cycle_open_ = true;
    cycle_ns_ = call_ns;
}

void
TimedCheckpointer::before_update(std::uint64_t iteration)
{
    const std::uint64_t t0 = now_ns();
    inner_->before_update(iteration);
    const std::uint64_t t1 = now_ns();
    before_update_ops.add(0, t1 - t0);
    record_span("trainsim.before_update", t0, t1, "iteration", iteration);
    cycle_ns_ += t1 - t0;
    poll(0, iteration);
}

void
TimedCheckpointer::request_checkpoint(std::uint64_t iteration)
{
    const std::uint64_t t0 = now_ns();
    inner_->request_checkpoint(iteration);
    const std::uint64_t t1 = now_ns();
    request_checkpoint_ops.add(0, t1 - t0);
    record_span("trainsim.request_checkpoint", t0, t1, "iteration", iteration);
    open_cycle(t1 - t0);
    pending_full_.push_back(iteration);
    poll(0, iteration);
}

void
TimedCheckpointer::request_delta(std::uint64_t iteration)
{
    const std::uint64_t t0 = now_ns();
    inner_->request_delta(iteration);
    const std::uint64_t t1 = now_ns();
    request_delta_ops.add(0, t1 - t0);
    record_span("trainsim.request_delta", t0, t1, "iteration", iteration);
    open_cycle(t1 - t0);
    poll(t1 - t0, iteration);
}

void
TimedCheckpointer::finish()
{
    const std::uint64_t t0 = now_ns();
    inner_->finish();
    const std::uint64_t t1 = now_ns();
    finish_ops.add(0, t1 - t0);
    record_span("trainsim.finish", t0, t1, "iteration", 0);
    poll(0, 0);
}

void
TimedCheckpointer::poll(std::uint64_t delta_call_ns, std::uint64_t iteration)
{
    const pccheck::CheckpointerStats s = inner_->stats();
    if (s.completed > seen_completed_) {
        const std::uint64_t k = s.completed - seen_completed_;
        const double sum = s.checkpoint_latency.sum();
        const double each_ms =
            (sum - seen_latency_sum_) * 1e3 / static_cast<double>(k);
        if (k > 1) {
            merged_ += k;
        }
        for (std::uint64_t i = 0; i < k; ++i) {
            if (sampling_) {
                durable_ms_.push_back(each_ms);
            }
            if (!pending_full_.empty()) {
                const std::uint64_t it = pending_full_.front();
                pending_full_.pop_front();
                if (last_durable_ == ~0ULL || it > last_durable_) {
                    last_durable_ = it;
                }
            }
        }
        seen_completed_ = s.completed;
        seen_latency_sum_ = sum;
    }
    if (s.delta_frames > seen_frames_) {
        if (sampling_) {
            durable_ms_.push_back(static_cast<double>(delta_call_ns) / 1e6);
        }
        if (last_durable_ == ~0ULL || iteration > last_durable_) {
            last_durable_ = iteration;
        }
        seen_frames_ = s.delta_frames;
    }
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace pcbench
