"""One benchmark process: set up a workload, then (as the measuring process)
run timed passes over its item list.

Started by ``run.py``; not meant to be run by hand.  ``--t0-ns`` is the
parent's ``time.monotonic_ns()`` just before it started this process, so the
reported set-up time runs from process start to the first timed item.  The
process prints one JSON object on stdout and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import NO_PROBE, Tracer, install

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

COUNT_METRICS = (
    "kripke.sat_calls", "kripke.model_builds", "kripke.product_calls",
    "kripke.product_worlds", "kripke.naive_calls", "search.frames",
    "search.models", "surgery.gadget_worlds",
    "translation.reduction_dag_nodes", "formulas.store_nodes",
)


def import_onevar():
    """Import ``onevar`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import onevar
    if Path(onevar.__file__).resolve().parent != (src / "onevar").resolve():
        raise ImportError(f"onevar imported from {onevar.__file__}, "
                          f"not from {src}")


def run_pass(wl, probe, failures: list) -> tuple[list[int], int]:
    """Run every item once; returns the item times (ns) of the items that
    passed, and the number that failed."""
    times = []
    failed = 0
    clock = time.perf_counter_ns
    for item in wl.items:
        t0 = clock()
        try:
            output = wl.run(item, probe)
        except Exception as exc:  # an item that raises is counted, not fatal
            failed += 1
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - t0
        try:
            problem = wl.verify(item, output)
        except Exception as exc:
            problem = f"verification raised {type(exc).__name__}: {exc}"
        if problem is None:
            times.append(elapsed)
        else:
            failed += 1
            failures.append(problem)
    return times, failed


def _merge(*aggs: dict) -> dict:
    out: dict = {}
    for agg in aggs:
        for name, row in agg.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
    return out


def layer_metrics(agg: dict, counts: dict, store_nodes: int,
                  untraced_pass_ns: int) -> dict:
    """Per-layer metrics of set-up plus one pass, from merged span
    aggregates and counters."""
    def get(name, key="total_ns"):
        return agg.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    models = counts.get("search.models", 0)
    return {
        "kripke.sat_s": get("kripke.sat") / 1e9,
        "kripke.sat_calls": get("kripke.sat", "calls"),
        "kripke.sat_ns_per_node_world": ratio(
            get("kripke.sat"), counts.get("kripke.node_worlds", 0)),
        "kripke.model_s": get("kripke.model", "self_ns") / 1e9,
        "kripke.model_builds": get("kripke.model", "calls"),
        "kripke.product_s": get("kripke.product") / 1e9,
        "kripke.product_calls": get("kripke.product", "calls"),
        "kripke.product_worlds": counts.get("kripke.product_worlds", 0),
        "kripke.naive_s": get("kripke.naive") / 1e9,
        "kripke.naive_calls": get("kripke.naive", "calls"),
        "search.self_s": get("search.search", "self_ns") / 1e9,
        "search.enumerate_frames_s": get("search.enumerate_frames") / 1e9,
        "search.frames": counts.get("search.frames", 0),
        "search.models": models,
        "search.models_per_s": ratio(models, untraced_pass_ns / 1e9),
        "search.hit_ratio": ratio(counts.get("search.found", 0), models),
        "surgery.transfer_s": get("surgery.transfer") / 1e9,
        "surgery.scan_s": get("surgery.scan") / 1e9,
        "surgery.extract_s": get("surgery.extract") / 1e9,
        "surgery.gadget_worlds": counts.get("surgery.gadget_worlds", 0),
        "surgery.verified_ratio": ratio(counts.get("surgery.verified", 0),
                                        counts.get("surgery.attempted", 0)),
        "translation.reduce_s": get("translation.reduce") / 1e9,
        "translation.guard_s": get("translation.guard") / 1e9,
        "translation.reduction_dag_nodes":
            counts.get("translation.reduction_dag_nodes", 0),
        "formulas.parse_s": get("formulas.parse") / 1e9,
        "formulas.store_nodes": store_nodes,
    }


def measure_untraced(wl, seconds: float) -> dict:
    passes, failures = [], []
    attempted = failed = 0
    start = time.monotonic()
    while (len(passes) < wl.MIN_PASSES
           or time.monotonic() - start < seconds):
        times, bad = run_pass(wl, NO_PROBE, failures)
        passes.append(times)
        attempted += len(wl.items)
        failed += bad
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "failures": failures[:5]}


def measure_traced(wl, seconds: float, tracer, setup_agg: dict,
                   setup_counts: dict) -> dict:
    """Alternate untraced and traced passes; the difference of their median
    walls is the tracing overhead."""
    failures: list = []
    attempted = failed = 0
    untraced_ns, traced_ns, per_pass = [], [], []
    start = time.monotonic()
    while not traced_ns or time.monotonic() - start < seconds:
        times, bad = run_pass(wl, NO_PROBE, failures)
        untraced_ns.append(sum(times))
        attempted += len(wl.items)
        failed += bad

        before = dict(tracer.counts)
        lo = len(tracer)
        install(tracer)
        try:
            times, bad = run_pass(wl, tracer, failures)
        finally:
            tracer.unpatch()
        hi = len(tracer)
        traced_ns.append(sum(times))
        attempted += len(wl.items)
        failed += bad
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        per_pass.append((tracer.aggregate(lo, hi), counts, sum(times)))
        if len(per_pass) > 1:
            tracer.truncate(lo)  # the first traced pass is kept for writing

    untraced_median = statistics.median(untraced_ns)
    rows = []
    for agg, counts, pass_ns in per_pass:
        merged_counts = dict(setup_counts)
        for k, v in counts.items():
            merged_counts[k] = merged_counts.get(k, 0) + v
        row = layer_metrics(_merge(setup_agg, agg), merged_counts,
                            len(wl.store), untraced_median)
        top_ns = sum(r["top_ns"] for r in agg.values())
        row["trace.unattributed_s"] = (pass_ns - top_ns) / 1e9
        rows.append(row)
    mismatches = sum(1 for name in COUNT_METRICS
                     if len({row[name] for row in rows}) > 1)
    metrics = {name: (rows[0][name] if name in COUNT_METRICS
                      else statistics.median(row[name] for row in rows))
               for name in rows[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced_ns)
                                   - untraced_median) / 1e9
    metrics["trace.counter_mismatches"] = mismatches
    return {"layer_metrics": metrics,
            "counts": {name: rows[0][name] for name in COUNT_METRICS},
            "traced_passes": len(traced_ns),
            "untraced_wall_s": untraced_median / 1e9,
            "traced_wall_s": statistics.median(traced_ns) / 1e9,
            "attempted": attempted, "failed": failed,
            "failures": failures[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    args = parser.parse_args(argv)

    import_onevar()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.role == "measure" and args.trace:
        tracer = Tracer()
        install(tracer)
    try:
        wl.prepare()
    finally:
        if tracer is not None:
            tracer.unpatch()
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    result = {"setup_s": setup_s, "digest": wl.digest,
              "items_per_pass": len(wl.items), "min_passes": wl.MIN_PASSES}

    if args.role == "measure":
        if tracer is None:
            result.update(measure_untraced(wl, args.seconds))
        else:
            setup_agg = tracer.aggregate(0, len(tracer))
            result.update(measure_traced(wl, args.seconds, tracer, setup_agg,
                                         dict(tracer.counts)))
            OUT.mkdir(parents=True, exist_ok=True)
            spans = OUT / f"{wl.name}.spans"
            tracer.write(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
            result["spans_kept"] = len(tracer)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
