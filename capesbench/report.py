"""Turns the benchmark binary's raw measurements into its metrics.

The C++ binary (capesbench.cpp) writes raw.json (per-episode tick times,
results and counters) and, for traced runs, spans.csv. Everything here is
pure computation over those files, so it is unit-tested without a build:
percentiles, span self times, the metric tables and the correctness
checks.
"""

import csv
import math
from fractions import Fraction

# name -> unit. run.py prints exactly these, and checks them against
# BENCHMARK.json before printing a result.
END_TO_END = {
    "ticks_per_s": "1/s",
    "tick_p50_ms": "ms",
    "tick_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.advance_ms_per_tick": "ms",
    "sim.events_per_tick": "count",
    "sim.ns_per_event": "ns",
    "sim.allocs_per_tick": "count",
    "sim.barrier_wait_ms_per_tick": "ms",
    "sim.shard_imbalance": "ratio",
    "lustre.sample_us_per_tick": "us",
    "core.monitor_us_per_tick": "us",
    "core.pi_bytes_per_tick": "bytes",
    "core.drain_status_us_per_tick": "us",
    "core.reward_us_per_tick": "us",
    "core.route_us_per_tick": "us",
    "core.hot_path_allocs_per_tick": "count",
    "rl.compute_action_us": "us",
    "rl.train_tick_ms": "ms",
    "rl.minibatch_us": "us",
    "nn.forward_us": "us",
    "nn.backward_us": "us",
    "nn.adam_step_us": "us",
    "nn.soft_update_us": "us",
    "nn.matmul_nt_gflops": "GFLOP/s",
    "nn.matmul_nn_gflops": "GFLOP/s",
    "nn.matmul_tn_gflops": "GFLOP/s",
    "nn.flops_per_train_step": "count",
    "util.pool_dispatch_us": "us",
    "capture.records_per_tick": "count",
    "capture.bytes_per_tick": "bytes",
    "capture.read_us_per_tick": "us",
    "capture.replay_ticks_per_s": "1/s",
    "stats.changepoint_ms_per_phase": "ms",
    "trace.coverage_pct": "%",
    "trace.traced_ticks_per_s": "1/s",
    "trace.untraced_ticks_per_s": "1/s",
    "trace.overhead_pct": "%",
    "host.ref_slice_us": "us",
}

MIN_TICK_COVERAGE_PCT = 95.0
SAMPLES_BEYOND = 10

# End-to-end times are reported at a nominal host speed: the binary times
# a fixed slice of reference work (capesbench.cpp, HostReference) after every
# untraced tick, and each tick is scaled by NOMINAL_REF_MS over the median
# of the slices around it. A host whose neighbours slow a CPU by 30% slows
# the slice too, and the scaled tick stays put; a change to CAPES moves
# the tick and not the slice. 0.75 ms is the slice's median on the 4-core
# host the bounds were set on, so scaled and raw values are close there.
NOMINAL_REF_MS = 0.75
LOCAL_REF_HALF_WIDTH = 4


def median(values):
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def _rank(n, q):
    """1-based nearest rank of the q-th percentile of n samples, computed
    exactly (99.9 / 100 * 10000 is not 9990 in binary floating point)."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def percentile(values, q):
    """Nearest-rank percentile: a value that was actually measured."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    return xs[_rank(len(xs), q) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def highest_reportable_percentile(n, candidates=(50, 90, 99, 99.9)):
    """The highest candidate percentile with at least ten samples beyond
    it, or None when even the median has fewer."""
    best = None
    for q in candidates:
        if samples_beyond(n, q) >= SAMPLES_BEYOND:
            best = q
    return best


def load_spans(path):
    with open(path, newline="") as f:
        return [
            {
                "id": int(row["id"]),
                "parent": int(row["parent"]),
                "episode": int(row["episode"]),
                "tick": int(row["tick"]),
                "name": row["name"],
                "start_ns": int(row["start_ns"]),
                "end_ns": int(row["end_ns"]),
            }
            for row in csv.DictReader(f)
        ]


def covered_ns(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """name -> (total self ns, calls). A span's self time is its duration
    minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(
                (s["start_ns"], s["end_ns"]))
    totals = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        own = dur - covered_ns(children.get(s["id"], []))
        ns, calls = totals.get(s["name"], (0, 0))
        totals[s["name"]] = (ns + own, calls + 1)
    return totals


def _untraced(raw):
    return [e for e in raw["episodes"] if not e["traced"]]


def _measured(raw):
    """Untraced episodes after the first, which only warms the process."""
    return _untraced(raw)[1:]


def _traced(raw):
    return [e for e in raw["episodes"] if e["traced"]]


def scaled_tick_ms(episode):
    """Each tick's wall time at the nominal host speed (see NOMINAL_REF_MS)."""
    refs = episode["ref_ms"]
    out = []
    for i, t in enumerate(episode["tick_ms"]):
        lo = max(0, i - LOCAL_REF_HALF_WIDTH)
        out.append(t * NOMINAL_REF_MS / median(refs[lo:i + LOCAL_REF_HALF_WIDTH + 1]))
    return out


def _tick_times(raw):
    return [x for e in _measured(raw) for x in scaled_tick_ms(e)]


def raw_ticks_per_s(episode):
    """Untraced ticks per wall second, reference slices left out."""
    return 1000.0 * len(episode["tick_ms"]) / sum(episode["tick_ms"])


def end_to_end(raw):
    eps = _measured(raw)
    ticks = _tick_times(raw)
    return {
        "ticks_per_s": 1000.0 * len(ticks) / sum(ticks),
        "tick_p50_ms": percentile(ticks, 50),
        "tick_p90_ms": percentile(ticks, 90),
        "setup_s": median([e["setup_s"] * NOMINAL_REF_MS / median(e["ref_ms"])
                           for e in eps]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, spans):
    traced = _traced(raw)
    first = _measured(raw)[0]
    ticks = sum(e["ticks"] for e in traced)
    events = sum(e["events"] for e in traced)
    selfs = self_times(spans)

    def self_ns(name):
        return selfs.get(name, (0, 0))[0]

    def per_call_ns(name):
        ns, calls = selfs.get(name, (0, 0))
        return ns / calls if calls else 0.0

    tick_ns, _ = selfs.get("tick", (0, 0))
    tick_total = sum(
        s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "tick")
    coverage = 100.0 * (tick_total - tick_ns) / tick_total if tick_total else 0.0
    mean_events = sum(e["shard_mean_events"] for e in traced)
    probes = raw["probes"]
    cap = raw.get("capture")
    captured = first["captured_ticks"]
    # Both rates count time inside ticks only, so settle() and the
    # reference slices, which run between ticks, stay out of both.
    tick_spans = {}
    for s in spans:
        if s["name"] == "tick":
            tick_spans.setdefault(s["episode"], []).append(
                s["end_ns"] - s["start_ns"])
    traced_tps = median([1e9 * len(d) / sum(d) for d in tick_spans.values()])
    untraced_tps = median([raw_ticks_per_s(e) for e in _measured(raw)])
    return {
        "sim.advance_ms_per_tick": self_ns("sim.advance") / ticks / 1e6,
        "sim.events_per_tick": events / ticks,
        "sim.ns_per_event": self_ns("sim.advance") / events if events else 0.0,
        "sim.allocs_per_tick": sum(e["sim_allocs"] for e in traced) / ticks,
        "sim.barrier_wait_ms_per_tick":
            sum(e["barrier_wait_ns"] for e in traced) / ticks / 1e6,
        "sim.shard_imbalance":
            sum(e["shard_max_events"] for e in traced) / mean_events
            if mean_events else 1.0,
        "lustre.sample_us_per_tick": self_ns("lustre.sample") / ticks / 1e3,
        "core.monitor_us_per_tick": self_ns("core.monitor") / ticks / 1e3,
        "core.pi_bytes_per_tick": sum(e["pi_bytes"] for e in traced) / ticks,
        "core.drain_status_us_per_tick":
            self_ns("core.drain_status") / ticks / 1e3,
        "core.reward_us_per_tick": self_ns("core.reward") / ticks / 1e3,
        "core.route_us_per_tick": self_ns("core.route") / ticks / 1e3,
        "core.hot_path_allocs_per_tick": first["hot_path_allocs"] / first["ticks"],
        "rl.compute_action_us": per_call_ns("rl.compute_action") / 1e3,
        "rl.train_tick_ms": per_call_ns("rl.train_tick") / 1e6,
        "rl.minibatch_us": probes["minibatch_us"],
        "nn.forward_us": probes["forward_us"],
        "nn.backward_us": probes["backward_us"],
        "nn.adam_step_us": probes["adam_step_us"],
        "nn.soft_update_us": probes["soft_update_us"],
        "nn.matmul_nt_gflops": probes["matmul_nt_gflops"],
        "nn.matmul_nn_gflops": probes["matmul_nn_gflops"],
        "nn.matmul_tn_gflops": probes["matmul_tn_gflops"],
        "nn.flops_per_train_step": probes["flops_per_train_step"],
        "util.pool_dispatch_us": probes["pool_dispatch_us"],
        "capture.records_per_tick": first["capture_records"] / captured,
        "capture.bytes_per_tick": first["capture_bytes"] / captured,
        "capture.read_us_per_tick":
            cap["read_s"] * 1e6 / cap["replay_ticks"]
            if cap and cap["replay_ticks"] else 0.0,
        "capture.replay_ticks_per_s":
            cap["replay_ticks"] / cap["replay_s"]
            if cap and cap["replay_s"] > 0 else 0.0,
        "stats.changepoint_ms_per_phase":
            per_call_ns("stats.changepoint") / 1e6,
        "trace.coverage_pct": coverage,
        "trace.traced_ticks_per_s": traced_tps,
        "trace.untraced_ticks_per_s": untraced_tps,
        "trace.overhead_pct": (untraced_tps / traced_tps - 1.0) * 100.0,
        "host.ref_slice_us":
            median([x for e in _measured(raw) for x in e["ref_ms"]]) * 1e3,
    }


def _outcome(e):
    """What a repeat of the same seed and code must reproduce exactly."""
    return (
        e["fingerprint"],
        e["train_steps"],
        tuple((p["label"], p["ticks"], p["mean_mbs"], p["train_steps"],
               p["regime_shifts"])
              for p in e["phases"]),
        tuple(e["final_params"]),
        e["tuned_gain_pct"],
    )


def checks(raw, trace, metrics=None):
    """[(name, ok, detail)] for one run."""
    out = []
    untraced = _untraced(raw)
    first = untraced[0]
    same = all(_outcome(e) == _outcome(first) for e in untraced)
    out.append(("repeats_identical", same,
                f"{len(untraced)} untraced episodes, fingerprint "
                f"{first['fingerprint']}"))
    if trace:
        traced = _traced(raw)
        same = bool(traced) and all(
            _outcome(e) == _outcome(first) for e in traced)
        out.append(("traced_equals_untraced", same,
                    f"traced fingerprints {sorted({e['fingerprint'] for e in traced})}"))
    dropped = sum(p["dropped"] for e in raw["episodes"] for p in e["phases"])
    dropped += sum(sum(e["tick_dropped"]) for e in untraced)
    out.append(("no_dropped_messages", dropped == 0,
                f"{dropped} control messages dropped"))
    cap = raw.get("capture")
    if cap is not None:
        shed = sum(e["capture_dropped"] for e in raw["episodes"])
        ok = (cap["error"] == "" and shed == 0 and cap["dropped_records"] == 0
              and cap["fresh_weights_match"] and cap["decode_errors"] == 0
              and cap["action_mismatches"] == 0
              and cap["replay_fingerprint"] == first["fingerprint"]
              and cap["replay_train_steps"] == first["train_steps"])
        out.append(("replay_equals_live", ok,
                    f"replay {cap['replay_fingerprint']} vs live "
                    f"{first['fingerprint']}, {shed} capture records shed"
                    + (f", error: {cap['error']}" if cap["error"] else "")))
    if not trace:
        n = len(_tick_times(raw))
        best = highest_reportable_percentile(n)
        out.append(("tick_samples_for_p90", best is not None and best >= 90,
                    f"{n} tick samples, highest reportable percentile {best}"))
    elif metrics is not None:
        cov = metrics["trace.coverage_pct"]
        out.append(("trace_coverage", cov >= MIN_TICK_COVERAGE_PCT,
                    f"layer self times cover {cov:.2f}% of traced tick time"))
    return out


def attempted_failed(raw, all_ok):
    attempted = sum(e["ticks"] for e in raw["episodes"])
    if not all_ok:
        return attempted, attempted
    failed = sum(sum(e["tick_dropped"]) for e in _untraced(raw))
    return attempted, failed


def name_mismatches(config, trace, printed):
    """Metric names printed by this run that differ from BENCHMARK.json's
    list (either direction), plus unit disagreements."""
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in config[key]}
    problems = []
    for name in sorted(set(declared) ^ set(printed)):
        where = "BENCHMARK.json" if name in declared else "the printed metrics"
        problems.append(f"{name} only in {where}")
    for name in sorted(set(declared) & set(printed)):
        if declared[name] != printed[name]:
            problems.append(
                f"{name}: unit {printed[name]} vs {declared[name]} declared")
    return problems
