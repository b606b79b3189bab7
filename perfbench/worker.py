"""One workload in its own process: set-up, a warm-up pass, timed passes.

Started by ``run.py`` with PYTHONHASHSEED pinned and ``src`` and
``perfbench`` on PYTHONPATH.  Writes raw per-op records (and, when tracing,
the per-layer span summary) as JSON to ``--out``; ``run.py`` turns them
into metrics.

The loop is closed with one client: the next op starts only after the
previous verdict, so one op is in flight at a time.  Before each op its
inputs are built afresh, garbage is collected and the machine's speed is
sampled; none of that is timed.
"""
import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import Counter, deque
from time import perf_counter

import speed
import glue
from glue import CliResult
from ops import passes
from tracer import Tracer, self_times

SETUP_CALIBRATIONS = 5
SPEED_WINDOW = 8


def judge(op, result, exc, refusals):
    """ok | refused (a refusal where an answer was due) | wrong | crash.

    ``refusals`` are the exceptions that are the engine's refusals rather
    than answers; the op says whether a refusal is the right verdict."""
    if exc is not None:
        if not isinstance(exc, refusals):
            return "crash"
        if not op.refusal_expected:
            return "refused"
        return "ok" if op.accept(exc) else "wrong"
    if isinstance(result, CliResult):
        if "Traceback" in result.stderr:
            return "crash"
        if result.returncode == 3:
            return "refused"
        if result.returncode != 0:
            return "wrong"
        try:
            return "ok" if op.accept(json.loads(result.stdout)) else "wrong"
        except (ValueError, KeyError, TypeError):
            return "wrong"
    if op.refusal_expected:
        return "wrong"  # a finite answer where the true answer is infinite
    return "ok" if op.accept(result) else "wrong"


class Runner:
    def __init__(self, refusals):
        self.refusals = refusals
        self.tracer = None
        self.child_peak_rss_mb = 0.0
        self.reported = set()
        # calibration samples taken before the last few ops: their median
        # tracks the machine's speed with less noise than one sample
        self.speed = deque(maxlen=SPEED_WINDOW)
        # traced-phase aggregates
        self.calls, self.self_s, self.counts = Counter(), Counter(), Counter()
        self.import_s = 0.0
        self.report_bytes = 0

    def execute(self, op, pass_index):
        args = op.prepare()
        gc.collect()
        self.speed.append(speed.calibrate())
        tracer = self.tracer
        clock = tracer.clock if tracer else perf_counter
        result = exc = None
        if tracer:
            tracer.active = True
        started = clock()
        try:
            result = op.run(*args)
        except Exception as e:  # judged below; a crash is a wrong verdict
            exc = e
        duration = clock() - started
        if tracer:
            tracer.active = False
            duration -= self._collect(result)
        scale = speed.factor(*self.speed)
        if isinstance(result, CliResult):
            self.child_peak_rss_mb = max(self.child_peak_rss_mb, result.peak_rss_mb)
        verdict = judge(op, result, exc, self.refusals)
        if verdict in ("crash", "wrong") and op.name not in self.reported:
            self.reported.add(op.name)
            detail = "".join(traceback.format_exception(exc)) if exc else repr(result)[:2000]
            print("%s %s %s: %s" % (verdict, op.rung, op.name, detail), file=sys.stderr)
        return [op.ladder, op.rung, op.size, op.name, pass_index, duration, scale, verdict]

    def _collect(self, result):
        """Fold the op's spans into the aggregates; return hook seconds
        spent inside a CLI child, which the op's wall time must not count."""
        tracer = self.tracer
        excluded = 0.0
        if isinstance(result, CliResult) and result.spans_file:
            self.report_bytes += len(result.stdout.encode())
            with open(result.spans_file) as fh:
                child = json.load(fh)
            os.remove(result.spans_file)
            calls, self_s = self_times(child["names"], child["spans"])
            self.counts.update(child["counts"])
            self.import_s += child["import_s"]
            excluded = child["excluded_s"]
        else:
            calls, self_s = self_times(tracer.names, tracer.spans)
            self.counts.update(tracer.counts)
            tracer.spans.clear()
            tracer.counts.clear()
        self.calls.update(calls)
        self.self_s.update(self_s)
        return excluded

    def run_passes(self, ops, count, phase):
        return [
            [phase] + self.execute(op, index) for index in range(count) for op in ops
        ]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # one op is in flight at a time: keep it, its CLI children and the
    # speed calibration on one CPU, so the calibration sees the op's CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workdir = os.path.join(root, "perfbench", "out", "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        if args.workload == "glue":
            # glue times CLI processes and must not import fibrelab itself
            ctx = glue.Context(root, workdir, dict(os.environ))
            ops, refusals = glue.build(ctx, args.seed), glue.REFUSALS
        else:
            import workloads

            ctx = None
            ops = workloads.build(args.workload, args.seed)
            refusals = workloads.REFUSALS
        setup_s = time.time() - args.spawned
        scale = speed.factor(*(speed.calibrate() for _ in range(SETUP_CALIBRATIONS)))
        out = {"setup_s": setup_s, "setup_scale": scale}
        if not args.setup_only:
            out.update(measure(Runner(refusals), ops, args, ctx))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh)


def measure(runner, ops, args, glue_ctx):
    # a CLI op starts a fresh process: the set-up probes have already
    # loaded the byte code, and there is no in-process state to warm
    runner.run_passes(ops, 0 if glue_ctx else 1, "warmup")
    out = {}
    total = passes(args.workload, args.seconds)
    if not args.trace:
        records = runner.run_passes(ops, total, "timed")
    else:
        # every third pass, and at least one, runs untraced, so drift of the
        # machine's speed falls on both sides of the overhead comparison
        tracer = Tracer()
        records, traced_passes = [], 0
        for index in range(max(2, total)):
            if index % 3 == 0:
                runner.tracer = None
                records += runner.run_passes(ops, 1, "untraced")
                continue
            runner.tracer = tracer
            if glue_ctx:
                glue_ctx.traced = True  # the CLI children trace themselves
            else:
                tracer.install()
            records += runner.run_passes(ops, 1, "traced")
            if glue_ctx:
                glue_ctx.traced = False
            else:
                tracer.uninstall()
            traced_passes += 1
        total = traced_passes
        out["trace"] = {
            "passes": total,
            "calls": runner.calls,
            "self_s": runner.self_s,
            "counts": runner.counts,
            "import_s": runner.import_s,
            "report_bytes": runner.report_bytes,
        }
    out["records"] = records
    out["passes"] = total
    if glue_ctx:
        out["peak_rss_mb"] = runner.child_peak_rss_mb
    else:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    main()
