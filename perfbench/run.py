"""The repo benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload million_users --seed 1 \\
        --seconds 30 --trace 0

Runs *slices* of the workload (fresh testbed, set-up, measured run,
output checks; see ``workloads.py``) until ``--seconds`` of host time
are used, and at least two, so that every run checks that one seed
repeats exactly.

* ``--trace 0`` prints the end-to-end metrics: host medians over the
  slices (``requests_per_s``, ``setup_s``), the peak RSS of the first
  slice, and the simulated figures (identical in every slice).  The
  host timings are in reference seconds (``hostspeed.py``): host time
  scaled by the host's speed, sampled every 25 ms, so that a shared
  host slowing down does not read as the code slowing down.
* ``--trace 1`` runs one untraced slice for the public counters and the
  untraced request rate, then profiled slices for the per-layer self
  time and call counts (``layers.py``).  It times on the raw host
  clock, since the profiler would skew the speed samples.

Every run appends a record (workload, seed, revision, host) to
``.perfbench/runs.jsonl`` and prints it.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: baseline seed of each workload, and the held-out seed for checking a
#: claim on a seed the change was not tuned on (RATIONALE.md)
BASELINE_SEEDS = {"million_users": 1, "bulk_replicated": 1, "mixed_rw_lossy": 1}
HELD_OUT_SEED = 7919

#: extra set-up-only trials after the first slice: the closed-loop
#: workloads set up in milliseconds, and run only a few slices
SETUP_TRIALS = {"million_users": 0, "bulk_replicated": 11, "mixed_rw_lossy": 11}

MIN_SLICES = 2
#: stop starting slices once the next one would likely end past this
#: multiple of ``--seconds``
OVERRUN = 1.15



def _declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for the
    mode: end-to-end metrics untraced, per-layer metrics traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _src_digest() -> str:
    """SHA-256 over the ``src/`` tree (paths and bytes), 16 hex digits:
    identifies the code even where the checkout is not a git repo."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def _git_rev() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _host() -> dict:
    """The host fields ``repro perf`` records."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = None
    return {
        "cpus_logical": os.cpu_count(),
        "cpus_affinity": affinity,
        "loadavg": load,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _slice_done(n: int, elapsed: float, took: float, seconds: float) -> bool:
    """Whether to stop after ``n`` slices, the last of which took
    ``took`` host seconds, with ``elapsed`` seconds used so far."""
    if n < MIN_SLICES:
        return False
    return elapsed >= seconds or elapsed + took > seconds * OVERRUN


def _release(s) -> None:
    """Release the slice's testbed before the next one is built."""
    s.testbed = None
    gc.collect()


def _check_slices(slices, checks: Dict[str, bool]) -> None:
    for s in slices:
        for name, ok in s.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks["seed_repeats_exactly"] = len({s.sim_key() for s in slices}) == 1


def measure(W, workload: str, seed: int, seconds: float,
            checks: Dict[str, bool]) -> tuple:
    """Untraced run: end-to-end metrics."""
    run = W.WORKLOADS[workload]
    t_begin = time.perf_counter()
    first = run(seed)
    _release(first)
    # the peak of one set-up and run, before later slices can add
    # allocator fragmentation that depends on how many of them fit
    peak_rss = _peak_rss_mib()
    setups = [first.setup_s]
    setups += [W.setup_trial(workload, seed) for _ in range(SETUP_TRIALS[workload])]
    slices: List = [first]
    while not _slice_done(len(slices), time.perf_counter() - t_begin,
                          slices[-1].took_s, seconds):
        s = run(seed)
        _release(s)
        slices.append(s)
        setups.append(s.setup_s)
    _check_slices(slices, checks)
    metrics = {
        "requests_per_s": statistics.median(s.requests_per_s for s in slices),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss,
        "sim_p50_us": first.sim_p50_ns / 1e3,
        "sim_p99_us": first.sim_p99_ns / 1e3,
        "sim_goodput_gbps": first.sim_goodput_gbps,
        "ok_frac": 1.0 - first.failed_frac,
    }
    info = {
        "slices": len(slices),
        "setup_samples": len(setups),
        "measured_ops": first.measured_ops,
        "failed_frac": first.failed_frac,
        "schedule_digest": first.schedule_digest[:16],
        "requests_per_s_each": [round(s.requests_per_s, 3) for s in slices],
        "setup_s_each": [round(x, 4) for x in setups],
    }
    return metrics, info, slices


def trace(W, L, workload: str, seed: int, seconds: float,
          checks: Dict[str, bool]) -> tuple:
    """Traced run: per-layer metrics."""
    run = W.WORKLOADS[workload]
    t_begin = time.perf_counter()
    base = run(seed)
    metrics = L.counters(base)
    _release(base)
    untraced_rps = base.requests_per_s
    metrics["dfs.setup_s"] = base.dfs_setup_s
    metrics["workloads.start_s"] = base.workload_start_s
    tracer = L.Tracer()
    slices: List = [base]
    packets = 0
    while not _slice_done(len(slices), time.perf_counter() - t_begin,
                          slices[-1].took_s, seconds):
        with tracer:
            s = run(seed)
        packets += sum(p.tx_packets for p in L.all_ports(s.testbed))
        _release(s)
        slices.append(s)
    traced = slices[1:]
    _check_slices(slices, checks)
    metrics.update(L.trace_metrics(tracer, traced, packets, untraced_rps))
    info = {
        "slices": len(slices),
        "traced_slices": len(traced),
        "schedule_digest": base.schedule_digest[:16],
    }
    return metrics, info, slices


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(BASELINE_SEEDS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's baseline "
                         f"seed; {HELD_OUT_SEED} is held out for checking "
                         "claims)")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="host seconds to measure for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=os.path.join(ROOT, ".perfbench", "runs.jsonl"),
                    help="JSON-lines file the run record is appended to")
    args = ap.parse_args(argv)
    seed = BASELINE_SEEDS[args.workload] if args.seed is None else args.seed

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    units = _declared_units(args.trace)
    # numpy advises huge pages for its large arrays (the 64 MiB storage
    # targets); whether the kernel then backs a touched page with 2 MiB
    # depends on the host's free memory, which made peak RSS flip
    # between two values 15 MiB apart from process to process
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    sys.path[:0] = [SRC, HERE]
    import hostspeed as H   # noqa: E402
    import layers as L      # noqa: E402  (needs SRC on the path)
    import workloads as W   # noqa: E402

    checks: Dict[str, bool] = {}
    t0 = time.perf_counter()
    if args.trace:
        metrics, info, slices = trace(W, L, args.workload, seed, args.seconds, checks)
    else:
        H.start()
        try:
            metrics, info, slices = measure(W, args.workload, seed, args.seconds, checks)
        finally:
            speed = H.stop()
        info.update(speed)
    wall = time.perf_counter() - t0
    if set(metrics) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    metrics = {name: metrics[name] for name in units}
    correct = all(checks.values())

    record = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "src_digest": _src_digest(),
        "host": _host(),
        "wall_s": round(wall, 3),
        **info,
        "checks": checks,
        "metrics": metrics,
    }
    os.makedirs(os.path.dirname(args.record), exist_ok=True)
    with open(args.record, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"slices {info['slices']}  wall {wall:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"  {'failed_frac':44s} {info['failed_frac']:>16.6g} frac")
        print(f"  {'measured_ops':44s} {info['measured_ops']:>16d} count")
    for name, ok in checks.items():
        print(f"  check {name:38s} {'ok' if ok else 'FAILED'}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s.attempted for s in slices),
        "failed": sum(s.failed for s in slices),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
