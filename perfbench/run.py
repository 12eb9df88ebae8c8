"""Benchmark of the onevar package: certify, reduction-sweep, surgery-scale.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in fresh interpreters started by this script: ten that
only set up (generate the seeded inputs, import ``onevar`` from ``src``,
parse, build the reductions), five before and five after one that sets up
and then measures.  With
``--trace 0`` the measuring process runs untraced passes over the workload's
fixed item list for ``--seconds`` and the end-to-end metrics are printed;
with ``--trace 1`` it alternates untraced and traced passes and the
per-layer metrics are printed.  Every line but the last is for people; the
last is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller record of each run, with the machine it ran on,
goes to ``perfbench/out/``.  See ``perfbench/README.md`` for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("certify", "reduction-sweep", "surgery-scale")

# Seeds below 100 were used while the benchmark was written; this one was
# not, so it can confirm a later claim.
HELD_OUT_SEED = 7919

# set-up samples per run: this many set-up-only processes plus the measuring
# one.  Half run before the measuring process and half after, so that a slow
# spell of the machine lasting a few seconds cannot shift their median.
SETUP_ONLY_PROCESSES = 10

# every process this script starts has ended by then
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms.p50", "ms"),
    ("item_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("kripke.sat_s", "s"),
    ("kripke.sat_calls", "count"),
    ("kripke.sat_ns_per_node_world", "ns"),
    ("kripke.model_s", "s"),
    ("kripke.model_builds", "count"),
    ("kripke.product_s", "s"),
    ("kripke.product_calls", "count"),
    ("kripke.product_worlds", "count"),
    ("kripke.naive_s", "s"),
    ("kripke.naive_calls", "count"),
    ("search.self_s", "s"),
    ("search.enumerate_frames_s", "s"),
    ("search.frames", "count"),
    ("search.models", "count"),
    ("search.models_per_s", "1/s"),
    ("search.hit_ratio", "ratio"),
    ("surgery.transfer_s", "s"),
    ("surgery.scan_s", "s"),
    ("surgery.extract_s", "s"),
    ("surgery.gadget_worlds", "count"),
    ("surgery.verified_ratio", "ratio"),
    ("translation.reduce_s", "s"),
    ("translation.guard_s", "s"),
    ("translation.reduction_dag_nodes", "count"),
    ("formulas.parse_s", "s"),
    ("formulas.store_nodes", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.counter_mismatches", "count"),
)

# standard percentiles the tail is chosen from
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


class BenchError(RuntimeError):
    """A benchmark process failed to produce a result."""


def tail_percentile(n: int) -> float:
    """The highest percentile of ``TAIL_LADDER`` that leaves at least ten of
    ``n`` samples beyond it; below twenty samples, the rank of the
    eleventh-largest sample as a percentile.  ``n`` is the sample count a
    run guarantees, not the count it happened to collect."""
    pct = 100 * max(n - 10, 1) / n
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            pct = p
    return pct


def per_pass(passes: list[list[float]], pct: float) -> float:
    """Median over passes of each pass's ``pct`` percentile (nearest rank).

    The host's speed changes for seconds at a time; a statistic taken per
    pass and then the median over passes is not moved by a few slow passes,
    while a percentile of all samples pooled is."""
    values = []
    for times in passes:
        if times:
            ranked = sorted(times)
            values.append(ranked[max(math.ceil(pct * len(ranked) / 100), 1)
                                 - 1])
    return statistics.median(values) if values else 0.0


def code_digest() -> str:
    """SHA-256 over the package and benchmark sources."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "onevar").rglob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "code_sha256": code_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def child(role: str, args, deadline: float) -> dict:
    """Start one worker process, wait for it, return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to start the {role} process")
    cmd = [sys.executable, "-E", "-s", str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"{role} process exceeded the run limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_counts(workload: str, seed: int, code: str, counts: dict) -> list:
    """Compare traced counts with the last traced run of the same code,
    workload and seed in this checkout; record them if there is none.
    Returns the names of the counts that differ."""
    path = OUT / "counts" / f"{workload}-seed{seed}-{code[:16]}.json"
    if path.is_file():
        previous = json.loads(path.read_text())
        return sorted(k for k in set(previous) | set(counts)
                      if previous.get(k) != counts.get(k))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def run_workload(args, deadline: float) -> dict:
    """Set up and measure one workload; returns its result record."""
    meta = machine()
    setups, digests = [], set()

    def set_up(count: int) -> None:
        for _ in range(count):
            res = child("setup", args, deadline)
            setups.append(res["setup_s"])
            digests.add(res["digest"])

    set_up(SETUP_ONLY_PROCESSES // 2)
    res = child("measure", args, deadline)
    digests.add(res["digest"])
    set_up(SETUP_ONLY_PROCESSES - SETUP_ONLY_PROCESSES // 2)
    problems = [f"item failed: {text}" for text in res["failures"]]
    if len(digests) > 1:
        problems.append(f"one seed gave {len(digests)} input digests")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "held_out_seed": HELD_OUT_SEED, "inputs_digest": res["digest"],
              "items_per_pass": res["items_per_pass"], **meta,
              "attempted": res["attempted"], "failed": res["failed"],
              "failed_ratio": res["failed"] / res["attempted"]}
    if args.trace:
        metrics = res["layer_metrics"]
        if metrics["trace.counter_mismatches"]:
            problems.append("traced counts differ between the passes of "
                            "this run")
        changed = check_counts(args.workload, args.seed, meta["code_sha256"],
                               res["counts"])
        if changed:
            problems.append(f"traced counts differ from an earlier run of "
                            f"the same code and seed: {', '.join(changed)}")
        metrics["trace.counter_mismatches"] += len(changed)
        record.update(traced_passes=res["traced_passes"],
                      untraced_wall_s=res["untraced_wall_s"],
                      traced_wall_s=res["traced_wall_s"],
                      spans_file=res["spans_file"],
                      spans_kept=res["spans_kept"])
        specs = PER_LAYER
    else:
        setups.append(res["setup_s"])
        passes_ms = [[ns / 1e6 for ns in times] for times in res["passes"]]
        samples = sum(len(times) for times in passes_ms)
        tail_pct = tail_percentile(res["items_per_pass"] * res["min_passes"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(sum(t) for t in res["passes"]) / 1e9,
            "item_ms.p50": per_pass(passes_ms, 50),
            "item_ms.tail": per_pass(passes_ms, tail_pct),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        record.update(passes=len(res["passes"]),
                      pass_wall_s=[sum(t) / 1e9 for t in res["passes"]],
                      item_samples=samples,
                      tail_percentile=tail_pct, setup_samples_s=setups)
        specs = END_TO_END
    record["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in specs}
    record["problems"] = problems
    record["correct"] = not problems and res["failed"] == 0

    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record: dict) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name:16} {metric:32} {entry['value']:>14.6g} {entry['unit']}")
    if record["trace"]:
        print(f"{name:16} traced passes {record['traced_passes']}, "
              f"untraced wall {record['untraced_wall_s']:.4f} s, traced wall "
              f"{record['traced_wall_s']:.4f} s, spans in "
              f"{record['spans_file']}")
    else:
        print(f"{name:16} item_ms.tail is p{record['tail_percentile']:.4g}; "
              f"{record['item_samples']} samples ({record['passes']} passes "
              f"x {record['items_per_pass']} items); setup_s is the median "
              f"of {len(record['setup_samples_s'])} set-ups")
    print(f"{name:16} failed_ratio {record['failed_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']}), inputs digest "
          f"{record['inputs_digest'][:16]}, nproc {record['nproc']}, "
          f"load {record['loadavg_start'][0]:.2f}")
    for problem in record["problems"]:
        print(f"{name:16} PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "onevar" / "__init__.py").is_file():
        print(f"error: no onevar package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    records = []
    for name in names:
        deadline = (time.monotonic() + RUN_LIMIT_S if len(names) == 1
                    else start + RUN_LIMIT_S * len(names))
        try:
            records.append(run_workload(
                argparse.Namespace(**{**vars(args), "workload": name}),
                deadline))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(records[-1])

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": e
                   for r in records for m, e in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
