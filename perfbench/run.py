#!/usr/bin/env python3
"""PCcheck performance benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload full|delta|fleet --seed N \
        --seconds S --trace 0|1

Builds the benchmark driver (perfbench/CMakeLists.txt, compiling the
library sources under src/) into .bench_build/, runs it, and prints its
human-readable report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set; with --trace 1 they
are the per-layer set, computed partly by the driver and partly here,
from the Chrome trace of the traced window (span totals, self time by
nesting, and attribution of the training thread's stall to the spans
that caused it). Exits non-zero, without a result line, when the build
or the run fails.
"""

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("full", "delta", "fleet")
RUN_TIMEOUT_S = 170

# (name, unit) in the order BENCHMARK.json lists them.
END_TO_END = [
    ("train_it_s", "1/s"),
    ("stall_p50_ms", "ms"),
    ("stall_tail_ms", "ms"),
    ("ckpt_p50_ms", "ms"),
    ("ckpt_tail_ms", "ms"),
    ("recover_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Per-layer metrics the driver measures itself (decorator counters,
# program statistics, reference rows).
DRIVER_LAYER = [
    ("trainsim.before_update.calls", "count"),
    ("trainsim.before_update.busy_ms", "ms"),
    ("trainsim.request_checkpoint.calls", "count"),
    ("trainsim.request_delta.calls", "count"),
    ("trainsim.request.busy_ms", "ms"),
    ("trainsim.finish.calls", "count"),
    ("trainsim.finish.busy_ms", "ms"),
    ("util.crc32c.gbps", "GB/s"),
    ("util.memcpy.gbps", "GB/s"),
    ("core.clock.sleep_calls", "count"),
    ("storage.write.ops", "count"),
    ("storage.write.bytes", "B"),
    ("storage.write.busy_ms", "ms"),
    ("storage.read.ops", "count"),
    ("storage.read.bytes", "B"),
    ("storage.read.busy_ms", "ms"),
    ("storage.persist.ops", "count"),
    ("storage.persist.bytes", "B"),
    ("storage.persist.busy_ms", "ms"),
    ("storage.fence.ops", "count"),
    ("storage.fence.busy_ms", "ms"),
    ("storage.write_amp", "ratio"),
    ("delta.frames", "count"),
    ("delta.frame_bytes", "B"),
    ("delta.skipped", "count"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("service.throttled", "count"),
    ("service.coalesced_records", "count"),
    ("service.segment_seals", "count"),
    ("service.segment_recycles", "count"),
    ("service.records_per_seal", "ratio"),
    ("recovery.busy_ms", "ms"),
    ("recovery.read_bytes", "B"),
    ("trace.untraced_it_s", "1/s"),
    ("trace.traced_it_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped", "count"),
]

# Program spans summed over the traced window: metric -> span name.
SPAN_TOTALS = {
    "core.buffer_wait.busy_ms": "snapshot.buffer_wait",
    "core.persist_chunk.busy_ms": "persist.chunk",
    "core.commit.slot_wait_ms": "commit.slot_wait",
    "core.commit.cas_ms": "commit.cas",
}

# Where a stalled instant of the training thread goes, by the deepest
# span open at that instant (on the training thread, or on the snapshot
# thread while the training thread waits for a snapshot).
BUCKETS = ("copy", "snapshot_self", "buffer_wait", "delta_self",
           "storage", "persist", "commit", "other")

TRACE_LAYER = (
    [("gpusim.copy_to_host.calls", "count"),
     ("gpusim.copy_to_host.bytes", "B"),
     ("gpusim.copy_to_host.busy_ms", "ms"),
     ("core.snapshot.self_ms", "ms")]
    + [(name, "ms") for name in SPAN_TOTALS]
    + [("trace.stall_p50_ms", "ms"),
       ("trace.attributed_pct", "%"),
       ("trace.unattributed_ms", "ms")]
    + [("trace.stall.%s_pct" % b, "%") for b in BUCKETS]
)

PER_LAYER = DRIVER_LAYER + TRACE_LAYER

# Spans whose self time means the training thread waits for the
# snapshot thread (the T->U stall), not that it works.
WAIT_SPANS = ("trainsim.before_update", "train.update_stall")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; return its path or None."""
    os.makedirs(BUILD, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "pcbench", "--",
         "-j%d" % max(1, min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(BUILD, "pcbench")


def bucket_of(name):
    if name == "gpu.copy_to_host":
        return "copy"
    if name == "checkpoint.snapshot":
        return "snapshot_self"
    if name == "snapshot.buffer_wait":
        return "buffer_wait"
    if name == "checkpoint.delta":
        return "delta_self"
    if name.startswith("storage."):
        return "storage"
    if name.startswith("persist."):
        return "persist"
    if name.startswith("commit."):
        return "commit"
    return "other"


class Thread:
    """One thread's spans, nested, with self time and a timeline of the
    deepest open span."""

    def __init__(self, spans):
        # spans: (begin_ns, end_ns, name, args); parents sort first.
        spans.sort(key=lambda s: (s[0], -s[1]))
        self.spans = spans
        self.self_ns = [s[1] - s[0] for s in spans]
        # Timeline segments (start, end, name, inside_snapshot).
        self.segments = []
        stack = []  # indices of open spans
        cursor = None

        def emit(until):
            nonlocal cursor
            if stack and cursor is not None and until > cursor:
                top = spans[stack[-1]]
                inside = any(spans[i][2] == "checkpoint.snapshot"
                             for i in stack)
                self.segments.append((cursor, until, top[2], inside))
            cursor = until

        for i, (b, e, _name, _args) in enumerate(spans):
            while stack and spans[stack[-1]][1] <= b:
                emit(spans[stack[-1]][1])
                stack.pop()
            emit(b)
            if stack:
                parent = stack[-1]
                # Clip a child that overruns its parent (equal clock
                # reads at a boundary); it is still the parent's child.
                self.self_ns[parent] -= min(e, spans[parent][1]) - b
            stack.append(i)
            cursor = b
        while stack:
            emit(spans[stack[-1]][1])
            stack.pop()
        self.starts = [seg[0] for seg in self.segments]

    def overlap(self, a, b):
        """Yield (lo, hi, name, inside_snapshot) of the segments within
        [a, b), clipped to it."""
        i = max(0, bisect.bisect_right(self.starts, a) - 1)
        while i < len(self.segments):
            s, e, name, inside = self.segments[i]
            if s >= b:
                break
            lo, hi = max(a, s), min(b, e)
            if hi > lo:
                yield lo, hi, name, inside
            i += 1


def analyze_trace(path, workload):
    """Per-layer metrics from the Chrome trace of the traced window."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    raw = defaultdict(list)
    for ev in events:
        b = int(round(float(ev["ts"]) * 1e3))
        e = b + int(round(float(ev["dur"]) * 1e3))
        raw[ev["tid"]].append((b, e, ev["name"], ev.get("args", {})))
    threads = {tid: Thread(spans) for tid, spans in raw.items()}

    out = {}
    copies = [(s, t) for t in threads.values() for s in t.spans
              if s[2] == "gpu.copy_to_host"]
    out["gpusim.copy_to_host.calls"] = float(len(copies))
    out["gpusim.copy_to_host.bytes"] = float(
        sum(s[3].get("len", 0) for s, _ in copies))
    out["gpusim.copy_to_host.busy_ms"] = sum(
        s[1] - s[0] for s, _ in copies) / 1e6
    for metric, span in SPAN_TOTALS.items():
        out[metric] = sum(s[1] - s[0] for t in threads.values()
                          for s in t.spans if s[2] == span) / 1e6
    out["core.snapshot.self_ms"] = sum(
        t.self_ns[i] for t in threads.values()
        for i, s in enumerate(t.spans)
        if s[2] == "checkpoint.snapshot") / 1e6

    # Stall attribution. A cycle is one checkpoint request and the
    # before_update calls up to the next request on the same thread;
    # on fleet, one tenant request (its before_update and request).
    opening = (("trainsim.before_update",) if workload == "fleet" else
               ("trainsim.request_checkpoint", "trainsim.request_delta"))
    cycles = []  # (owning thread, trainsim spans)
    for t in threads.values():
        current = None
        for s in t.spans:
            if not s[2].startswith("trainsim."):
                continue
            if s[2] in opening:
                if current is not None:
                    cycles.append((t, current))
                current = [s]
            elif current is not None:
                current.append(s)
        # The cycle still open is dropped: its stall has not happened.
    snapshot_threads = [t for t in threads.values()
                        if any(s[2] == "checkpoint.snapshot"
                               for s in t.spans)]

    def resolve_wait(owner, lo, hi, parts):
        """Charge a wait to the snapshot thread busiest during it;
        return the part no snapshot span covers."""
        best_total, best = 0, None
        for st in snapshot_threads:
            if st is owner:
                continue
            cover = defaultdict(int)
            for s0, s1, name, inside in st.overlap(lo, hi):
                if inside:
                    cover[bucket_of(name)] += s1 - s0
            total = sum(cover.values())
            if total > best_total:
                best_total, best = total, cover
        for k, v in (best or {}).items():
            parts[k] += v
        return (hi - lo) - best_total

    results = []  # (stall_ns, {bucket: ns}, unattributed_ns)
    for owner, spans in cycles:
        stall = 0
        parts = defaultdict(int)
        unattributed = 0
        for b, e, _n, _a in spans:
            stall += e - b
            for lo, hi, name, _inside in owner.overlap(b, e):
                if name in WAIT_SPANS:
                    unattributed += resolve_wait(owner, lo, hi, parts)
                elif name.startswith("trainsim."):
                    # Checkpointer work no program span names.
                    unattributed += hi - lo
                else:
                    parts[bucket_of(name)] += hi - lo
        results.append((stall, parts, unattributed))

    if results:
        stalls = sorted(r[0] for r in results)
        p50 = statistics.median(stalls)
        lo = stalls[int(0.4 * (len(stalls) - 1))]
        hi = stalls[int(math.ceil(0.6 * (len(stalls) - 1)))]
        middle = [r for r in results if lo <= r[0] <= hi] or results
        mid_stall = sum(r[0] for r in middle)
        mid_unattr = sum(r[2] for r in middle)
        out["trace.stall_p50_ms"] = p50 / 1e6
        out["trace.attributed_pct"] = (
            100.0 * (1 - mid_unattr / mid_stall) if mid_stall > 0 else 0.0)
        out["trace.unattributed_ms"] = statistics.median(
            r[2] for r in results) / 1e6
        total = sum(r[0] for r in results)
        for b in BUCKETS:
            out["trace.stall.%s_pct" % b] = (
                100.0 * sum(r[1].get(b, 0) for r in results) / total
                if total > 0 else 0.0)
    else:
        out["trace.stall_p50_ms"] = 0.0
        out["trace.attributed_pct"] = 0.0
        out["trace.unattributed_ms"] = 0.0
        for b in BUCKETS:
            out["trace.stall.%s_pct" % b] = 0.0
    return out, len(results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1
    trace_path = os.path.join(BUILD, "trace-%s.json" % args.workload)
    if os.path.exists(trace_path):
        os.remove(trace_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log("perfbench: driver exited with %d" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    correct = bool(raw["correct"])
    if args.trace:
        layer = {k: v["value"] for k, v in raw["per_layer"].items()}
        traced, cycles = analyze_trace(trace_path, args.workload)
        layer.update(traced)
        print("trace analysis (%d stall cycles):" % cycles)
        for name, unit in TRACE_LAYER:
            print("  %-36s %16.6f %s" % (name, traced[name], unit))
        if layer.get("trace.dropped", 1) != 0:
            log("perfbench: the Tracer dropped spans")
            correct = False
        wanted, values = PER_LAYER, layer
    else:
        wanted = END_TO_END
        values = {k: v["value"] for k, v in raw["end_to_end"].items()}

    metrics = {}
    for name, unit in wanted:
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log("perfbench: metric %s missing or not finite" % name)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
