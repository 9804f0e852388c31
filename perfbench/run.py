"""Benchmark of the herglotz pipeline (gen -> sample -> extract -> retrieve -> verify).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One closed-loop client pushes the
workload's fields through the program one at a time, in as many whole
rounds as take about S seconds on the reference machine. It checks every
output against the independent references in checker.py, and prints one
JSON line: correct, attempted, failed and the metrics, end to end with
--trace 0 and per module with --trace 1. See README.md for the workloads
and the metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checker
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sampled2d", "precise2d", "exact", "cli")
# fresh interpreters per run whose median gives setup_s / cli.import_s
PROBES = 5


def time_until_ready(argv) -> float:
    """Seconds from spawning a fresh interpreter until it prints "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"probe {argv[1:]} failed with exit code {proc.returncode}")
    return elapsed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(outcomes, setup, workload) -> dict:
    passed = [o for o in outcomes if not o.failed]
    data = [checker.digits(o.data_rel) for o in outcomes if o.data_rel is not None]
    if workload.name == "cli":
        rss_kb = workload.child_rss_kb  # the largest stage process
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "field_s.p50": metric(statistics.median(o.seconds for o in outcomes), "s"),
        "fields_per_s": metric(len(passed) / sum(o.seconds for o in outcomes), "1/s"),
        "data_digits.p50": metric(statistics.median(data) if data else 0.0, "digits"),
        "coeff_digits.p50": metric(
            statistics.median(checker.digits(o.coeff_rel) for o in passed) if passed else 0.0,
            "digits",
        ),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }


def per_module(tr, workload, fields, import_s) -> dict:
    """Per-field counts and self times from the traced run."""
    out = {}

    def per_field(x):
        return x / fields

    for target in tracer.TARGETS:
        for figure in target.figures:
            name = f"{target.label}.{figure}"
            key, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = metric(per_field(tr.calls[key]), "count")
            else:
                out[name] = metric(per_field(tr.self_s[key]), "s")
    mp_calls = tr.calls["specfun.bessel_j_mp"]
    out["specfun.bessel_j_mp.distinct_ratio"] = metric(
        tr.distinct["specfun.bessel_j_mp"] / mp_calls if mp_calls else 0.0, "ratio"
    )
    attempts = sum(tr.calls[b] for b in tracer.BRANCHES)
    accepted = sum(tr.returned[b] for b in tracer.BRANCHES)
    out["retrieve.branch.attempts"] = metric(per_field(attempts), "count")
    out["retrieve.branch.accepted_ratio"] = metric(
        accepted / attempts if attempts else 0.0, "ratio"
    )
    out["fileio.bytes_written"] = metric(per_field(tr.bytes_written), "bytes")
    out["cli.import_s"] = metric(import_s, "s")
    for stage in ("gen", "sample", "extract", "retrieve", "verify"):
        wall = workload.stage_s[stage] if workload.name == "cli" else 0.0
        out[f"cli.{stage}.wall_s"] = metric(per_field(wall), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "herglotz", "__init__.py")):
        print(f"error: no herglotz sources under {SRC}", file=sys.stderr)
        return 2
    # the program's sources, for this process and every interpreter it starts
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    sys.path.insert(0, SRC)
    traced = bool(args.trace)

    if traced:
        probe = [sys.executable, "-c", "import herglotz; print('ready', flush=True)"]
    else:
        probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), args.workload,
                 str(args.seed)]

    import workloads

    workdir = os.path.join(ROOT, ".perfbench_runs", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](traced, workdir)
    # A fixed number of whole rounds, not a deadline, so that attempted and
    # failed do not depend on the machine's speed.
    rounds = max(1, round(args.seconds / workload.ROUND_S))
    ops = [op for k in range(rounds) for op in workload.inputs(args.seed, k)]
    tr = tracer.Tracer() if traced else None
    runs = []  # (op, outcome)
    probe_s = []
    try:
        if tr:
            tr.install()
        for j, op in enumerate(ops):
            # The probes are spread over the run, between fields, so that
            # their median samples the machine over the same span as the
            # fields do. The machine's speed drifts over tens of seconds to minutes.
            while len(probe_s) * len(ops) <= j * PROBES:
                probe_s.append(time_until_ready(probe))
            outcome = workload.run(op)
            runs.append((op, outcome))
            if tr:
                tr.new_field()
            if outcome.failed:
                print(f"failed: {op.label}: {outcome.error}", file=sys.stderr)
        while len(probe_s) < PROBES:
            probe_s.append(time_until_ready(probe))
    finally:
        if tr:
            tr.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    outcomes = [o for _, o in runs]
    unexpected = [o for op, o in runs if o.failed and not op.known_fault]
    # on every passing field the rotated-mode control must be rejected
    control_ok = all(
        o.control_rel is not None and o.control_rel > checker.PASS_TOL
        for o in outcomes if not o.failed
    )
    if traced:
        metrics = per_module(tr, workload, len(outcomes), statistics.median(probe_s))
    else:
        metrics = end_to_end(outcomes, probe_s, workload)
    print(
        f"{args.workload}: {len(outcomes)} fields in {rounds} rounds, "
        f"{sum(o.failed for o in outcomes)} failed ({len(unexpected)} unexpected), "
        f"field_s.p50 {statistics.median(o.seconds for o in outcomes):.4f}, "
        f"negative control {'rejected' if control_ok else 'ACCEPTED'}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not unexpected and control_ok,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
