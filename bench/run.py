"""Benchmark of the jamgame pipeline: one workload per run.

    python3 bench/run.py --workload desk-learn --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The run pins BLAS/OpenMP pools to
one thread, repeats whole rounds of the workload's operations until
``--seconds`` of program time is spent (at least one round), times the
set-up of fresh interpreters before and after the rounds (median CPU
time), checks the outputs, and prints one JSON object as its last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics and the
tracing overhead. Files go to ``.bench_out/<workload>/`` in the
checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Pin native thread pools before numpy loads anywhere in this process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Set-up probes per run, half before and half after the rounds, so
# their median spans the run rather than its first seconds.
N_PROBES = 8
PROBE_TIMEOUT_S = 60


def _use_checkout_source() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def probe(config: str) -> int:
    """Set-up probe: imports and config parse (which builds the GameSpec).

    Prints the process's CPU time from its start (interpreter start-up
    included) to inputs ready, and the wall clock at that point.
    """
    t0 = time.monotonic()
    _use_checkout_source()
    import jamgame.cli  # noqa: F401
    from jamgame.config import load_config

    t1 = time.monotonic()
    load_config(config)
    t2 = time.monotonic()
    print(json.dumps({"ready": t2, "cpu_s": time.process_time(),
                      "import_s": t1 - t0, "parse_s": t2 - t1}))
    return 0


def measure_setup(config: str, n: int) -> list:
    """Set-up cost of fresh processes: CPU time to inputs ready, and wall.

    ``setup_s`` is CPU time (user + system) rather than wall time: the
    process is single-threaded, so the two agree on an idle host, but CPU
    time does not count the waits for a core that a busy host adds.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = []
    for _ in range(n):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe", config],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["wall_s"] = rec.pop("ready") - start
        rec["setup_s"] = rec.pop("cpu_s")
        out.append(rec)
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
    }


def metric_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def measure(wl, ops, seconds: float, tracer) -> tuple:
    """Rounds of the workload: checks on the first, digests of all.

    Untraced, rounds repeat while another round of the last one's length
    fits in ``seconds``; traced, one untraced round is followed by one
    traced round.
    """
    rounds, digests = [], []

    def one_round():
        rounds.append(wl.round(ops))
        digests.append(wl.digest())

    one_round()
    try:
        fails, report = wl.check()
    except Exception as exc:  # outputs missing or malformed, or a reference failed
        fails, report = [f"checks could not complete: {exc!r}"], {}
    if tracer is not None:
        tracer.install()
        try:
            one_round()
        finally:
            tracer.uninstall()
    else:
        walls = [sum(rounds[0].values())]
        while sum(walls) + walls[-1] <= seconds:
            one_round()
            walls.append(sum(rounds[-1].values()))
    if len(set(digests)) != 1:
        fails.append("rounds on the same inputs produced different outputs")
    fails += [f"failed operation: {e}" for e in ops.errors[:5]]
    return rounds, fails, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args.probe)

    for need in (os.path.join(SRC, "jamgame", "__init__.py"),
                 os.path.join(ROOT, "configs", "default.json")):
        if not os.path.isfile(need):
            print(f"bench: {os.path.relpath(need, ROOT)} is missing; run from a "
                  "source checkout", file=sys.stderr)
            return 2
    _use_checkout_source()
    import jamgame
    import workloads  # after the thread pins: imports numpy

    if os.path.dirname(os.path.abspath(jamgame.__file__)) != os.path.join(SRC, "jamgame"):
        print(f"bench: jamgame imported from {jamgame.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = os.path.join(ROOT, ".bench_out", args.workload)
    wl = workloads.WORKLOADS[args.workload](ROOT, outdir, args.seed)
    config = wl.prepare()
    probes = measure_setup(config, N_PROBES // 2)
    wl.load()
    end_units, layer_units = metric_units()

    ops = workloads.Ops()
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    rounds, fails, report = measure(wl, ops, args.seconds, tracer)
    probes += measure_setup(config, N_PROBES - N_PROBES // 2)

    walls = [sum(t.values()) for t in rounds]
    if tracer is not None:
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = walls[1] - walls[0]
        values["trace.overhead_pct"] = 100.0 * (walls[1] - walls[0]) / walls[0]
        tracer.dump(outdir)
        units = layer_units
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = end_units
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    per_round = [wl.rates(t) for t in rounds]
    detail = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_probes": probes,
        "rounds": rounds, "round_wall_s": walls, "operation_rates": detail,
        "checks": report, "failures": fails, "attempted": ops.attempted,
        "failed": ops.failed, "metrics": metrics,
    }
    with open(os.path.join(outdir, f"record-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=float)

    for f in fails:
        print(f"check failed: {f}")
    for k, v in detail.items():
        print(f"{args.workload} {k}: {v:.6g}")
    print(f"{args.workload} rounds: {len(rounds)}, round wall s: "
          + ", ".join(f"{w:.3f}" for w in walls))
    print(json.dumps({"correct": not fails, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
