"""fibrelab benchmark: time to a certified verdict on four seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {glue,limits,fibred,diverge} \
        --seed N --seconds S --trace {0,1}

Each workload runs in its own worker process (``worker.py``) with
PYTHONHASHSEED derived from the seed, as a closed loop with one op in
flight.  Every verdict is checked against a known answer (``oracles.py``).
A run makes round(S / ops.PASS_BUDGET_S) passes over the workload's ops
after one untimed warm-up pass, so every run of a workload does the same
work.  Op times are scaled to a reference machine speed (``speed.py``).
The worker is first started twice more for set-up only; ``setup_s`` is the
median of the three set-ups.

With ``--trace 1`` a third of the passes run untraced and the rest under
the outside-in tracer (``tracer.py``), for the per-layer metrics and the
tracing overhead.

Prints the provenance, one row per rung and per op, then, as the last line,
one JSON object with the end-to-end metrics of BENCHMARK.json (``--trace
0``) or its per-layer metrics (``--trace 1``).  A run's detail, with the
raw op times, is written to ``perfbench/out/``.  Exits with 2, printing no
result, when the engine's sources are missing or a worker fails.
"""
import argparse
import compileall
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from layers import COUNTS, LAYERS, RATIOS, source_lines

WORKLOADS = ("glue", "limits", "fibred", "diverge")
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 12  # with the worker's, inside the 180 s a run may take
HASHSEED_RANGE = 2**32  # PYTHONHASHSEED takes 0 .. 2**32 - 1
TAIL_SAMPLES = 10
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def spawn_worker(args, env, out_file, setup_only, timeout_s):
    cmd = [
        sys.executable,
        os.path.join(ROOT, "perfbench", "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out_file,
        "--spawned", repr(time.time()),
    ] + (["--setup-only"] if setup_only else [])
    # own session, so a timeout can stop the worker's CLI children too
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("worker for %s timed out after %d s" % (args.workload, timeout_s))
    if code != 0:
        fail("worker for %s exited with %d" % (args.workload, code))
    with open(out_file) as fh:
        out = json.load(fh)
    os.remove(out_file)
    return out


def scaled(raw, phase=None):
    """Worker records of one phase (all phases when None) as
    (ladder, rung, size, op, pass, seconds at reference speed, verdict)."""
    return [
        (ladder, rung, size, name, index, seconds * scale, verdict)
        for ph, ladder, rung, size, name, index, seconds, scale, verdict in raw
        if phase in (None, ph)
    ]


# -- statistics ------------------------------------------------------------------

def tail_percentile(samples):
    """The highest percentile of TAIL_PERCENTILES with at least
    TAIL_SAMPLES of the run's samples beyond it.  The grid keeps the level
    comparable between runs and commits."""
    for pct in reversed(TAIL_PERCENTILES):
        if samples - math.ceil(pct / 100 * samples) >= TAIL_SAMPLES:
            return pct
    return 50


def pass_percentile(records, pct):
    """Median over passes of each pass's nearest-rank percentile.

    A pass runs every op once, so it is one replicate of the workload's
    distribution of op times.  Taking the percentile inside each pass and
    the median across passes keeps one slow op kind, or one slow stretch
    of the machine, from moving the value."""
    by_pass = defaultdict(list)
    for r in records:
        by_pass[r[4]].append(r[5])
    return statistics.median(
        sorted(d)[math.ceil(pct / 100 * len(d)) - 1] for d in by_pass.values()
    )


def rung_times(records):
    """(ladder, rung) -> per-pass summed op seconds, and the rungs all of
    whose ops were answered correctly in every pass."""
    per_pass = defaultdict(lambda: defaultdict(float))
    answered = defaultdict(lambda: True)
    for ladder, rung, _size, _name, pass_index, duration, verdict in records:
        per_pass[(ladder, rung)][pass_index] += duration
        answered[(ladder, rung)] &= verdict == "ok"
    return {key: list(v.values()) for key, v in per_pass.items()}, answered


def growth_exponent(records):
    """Least-squares slope of log(rung median time) against log(rung input
    size), one intercept per ladder, over rungs that were answered."""
    times, answered = rung_times(records)
    sizes = {(r[0], r[1]): r[2] for r in records}
    points = defaultdict(list)
    for key, per_pass in times.items():
        if answered[key]:
            points[key[0]].append(
                (math.log(sizes[key]), math.log(statistics.median(per_pass)))
            )
    sxy = sxx = 0.0
    for pts in points.values():
        if len(pts) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx else float("nan")


def top_rung_seconds(records):
    """Median over passes of the summed time of each ladder's largest rung."""
    top = {}
    for ladder, rung, size, *_ in records:
        if ladder not in top or size > top[ladder][1]:
            top[ladder] = (rung, size)
    per_pass = defaultdict(float)
    for ladder, rung, _size, _name, pass_index, duration, _v in records:
        if top[ladder][0] == rung:
            per_pass[pass_index] += duration
    return statistics.median(per_pass.values())


def verdicts_per_s(records):
    return sum(r[6] == "ok" for r in records) / sum(r[5] for r in records)


def end_to_end(records, setup_s, peak_rss_mb):
    tail_pct = tail_percentile(len(records))
    ok = sum(r[6] == "ok" for r in records)
    metrics = {
        "setup_s": setup_s,
        "verdicts_per_s": verdicts_per_s(records),
        "verdict_p50_s": pass_percentile(records, 50),
        "verdict_tail_s": pass_percentile(records, tail_pct),
        "top_rung_s": top_rung_seconds(records),
        "growth_exp": growth_exponent(records),
        "correct_ratio": ok / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "verdict_tail_percentile": tail_pct,
        "samples": len(records),
        "error_rate": 1 - ok / len(records),
    }
    return metrics, notes


def per_layer(trace, untraced_records, traced_records, traced_raw_s):
    """Per-layer metrics of the traced passes.  Span self times are raw,
    so their share is taken of the raw op time."""
    passes = trace["passes"]
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    metrics = {}
    for layer, fns in LAYERS.items():
        names = ["%s.%s" % (layer, fn) for fn, _ in fns]
        metrics[layer + ".self_pct"] = (
            100 * sum(self_s.get(n, 0.0) for n in names) / traced_raw_s
        )
        metrics[layer + ".loc"] = source_lines(ROOT, layer)
        for n in names:
            metrics[n + ".calls"] = calls.get(n, 0) / passes
            metrics[n + ".self_pct"] = 100 * self_s.get(n, 0.0) / traced_raw_s
    for name in COUNTS:
        metrics[name] = counts.get(name, 0) / passes
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts.get(den) else 0.0
    metrics["cli.import_pct"] = 100 * trace["import_s"] / traced_raw_s
    metrics["cli.report_bytes"] = trace["report_bytes"] / passes
    traced_vps = verdicts_per_s(traced_records)
    untraced_vps = verdicts_per_s(untraced_records)
    metrics["trace.verdicts_per_s"] = traced_vps
    metrics["trace.untraced_verdicts_per_s"] = untraced_vps
    metrics["trace.overhead_pct"] = 100 * (untraced_vps / traced_vps - 1)
    return metrics


# -- report ------------------------------------------------------------------------

def rows(records):
    """One row per rung (summed ops) and per op: median over passes."""
    times, answered = rung_times(records)
    per_op = defaultdict(list)
    verdicts = defaultdict(lambda: defaultdict(int))
    sizes = {}
    for ladder, rung, size, name, _p, duration, verdict in records:
        per_op[(ladder, rung, name)].append(duration)
        verdicts[(ladder, rung, name)][verdict] += 1
        sizes[(ladder, rung)] = size
    out = []
    for (ladder, rung), per_pass in times.items():
        out.append(
            {
                "ladder": ladder,
                "rung": rung,
                "op": "*",
                "size": sizes[(ladder, rung)],
                "median_s": statistics.median(per_pass),
                "answered": answered[(ladder, rung)],
            }
        )
        for (l2, r2, name), durations in per_op.items():
            if (l2, r2) == (ladder, rung):
                out.append(
                    {
                        "ladder": ladder,
                        "rung": rung,
                        "op": name,
                        "size": sizes[(ladder, rung)],
                        "median_s": statistics.median(durations),
                        "verdicts": dict(verdicts[(l2, r2, name)]),
                    }
                )
    return out


def print_rows(table):
    print("%-20s %-24s %-34s %6s %12s  %s" % ("ladder", "rung", "op", "size", "median_s", "verdicts"))
    for row in table:
        print(
            "%-20s %-24s %-34s %6d %12.6f  %s"
            % (
                row["ladder"],
                row["rung"],
                row["op"],
                row["size"],
                row["median_s"],
                row["verdicts"] if "verdicts" in row else "",
            )
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src", "fibrelab")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        fail("no engine sources at src/fibrelab; run from a fibrelab checkout")
    if not os.path.isdir(os.path.join(ROOT, "fixtures")):
        fail("no fixtures/ directory; run from a fibrelab checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # byte-compile once, so every set-up imports from the same cache
    if not compileall.compile_dir(src, quiet=1):
        fail("src/fibrelab does not compile")
    os.makedirs(OUT_DIR, exist_ok=True)

    hashseed = args.seed % HASHSEED_RANGE
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hashseed),
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]),
    )
    out_file = os.path.join(OUT_DIR, "worker-%d.json" % os.getpid())
    probes = [
        spawn_worker(args, env, out_file, True, PROBE_TIMEOUT_S)
        for _ in range(SETUP_PROBES)
    ]
    result = spawn_worker(args, env, out_file, False, WORKER_TIMEOUT_S)
    setups = [p["setup_s"] * p["setup_scale"] for p in probes + [result]]
    setup_s = statistics.median(setups)

    raw = result["records"]
    records = scaled(raw)
    verdicts = [r[6] for r in records]
    print(
        "workload=%s seed=%d PYTHONHASHSEED=%d python=%s nproc=%d passes=%d seconds=%d trace=%d"
        " speed_scale=%.3f"
        % (
            args.workload,
            args.seed,
            hashseed,
            platform.python_version(),
            os.cpu_count(),
            result["passes"],
            args.seconds,
            args.trace,
            statistics.median(r[7] for r in raw),
        )
    )
    table = rows(records)
    print_rows(table)
    if args.trace:
        metrics = per_layer(
            result["trace"],
            scaled(raw, "untraced"),
            scaled(raw, "traced"),
            sum(r[6] for r in raw if r[0] == "traced"),
        )
        declared = spec["per_layer"]
    else:
        metrics, notes = end_to_end(records, setup_s, result["peak_rss_mb"])
        declared = spec["end_to_end"]
        print(
            "setup samples %s; verdict_tail_s is p%s of %d samples; error_rate %.6f"
            % (
                ["%.4f" % s for s in setups],
                notes["verdict_tail_percentile"],
                notes["samples"],
                notes["error_rate"],
            )
        )
    if set(metrics) != {m["name"] for m in declared}:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ {m["name"] for m in declared}))
    summary = {
        "correct": not any(v in ("wrong", "crash") for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(v != "ok" for v in verdicts),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    detail = dict(
        summary,
        workload=args.workload,
        seed=args.seed,
        pythonhashseed=hashseed,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        setup_samples=setups,
        rows=table,
        raw_records=raw,
    )
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
