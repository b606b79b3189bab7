"""The glue workload: every op is one fresh ``python -m fibrelab.cli``
process, as a CLI user runs it.

SPAN gluings of two chain(n) end to start, for n in GLUE_RUNGS, each through
``colimit-cat``, ``check-cdf --x``, ``check-general-cdf --t`` and
``comparison-q``, plus ``corpus fixtures/``.  This module does not import
fibrelab; ``glue_inputs.py`` writes the inputs in a child process.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import oracles
from ops import GLUE_PARTS, GLUE_RUNGS, Op

REFUSALS = ()  # a CLI op reports a refusal by its exit code


@dataclass
class Context:
    root: str  # checkout root
    workdir: str  # working files of this run, inside the checkout
    env: dict  # environment of the CLI children
    traced: bool = False  # the CLI children install the tracer


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    spans_file: str | None
    peak_rss_mb: float


def _no_inputs():
    return ()


def _cli_runner(ctx, argv, tag):
    out_path = os.path.join(ctx.workdir, "%s.out" % tag)
    err_path = os.path.join(ctx.workdir, "%s.err" % tag)

    def run():
        env, spans_file = ctx.env, None
        if ctx.traced:
            spans_file = os.path.join(ctx.workdir, "%s.spans.json" % tag)
            cmd = [sys.executable, os.path.join(ctx.root, "perfbench", "cli_child.py"), spans_file]
            env = dict(env, PERFBENCH_SPAWNED=repr(time.time()))
        else:
            cmd = [sys.executable, "-m", "fibrelab.cli"]
        # files, not pipes, so the child can be reaped with wait4 for its rusage
        with open(out_path, "w+") as out, open(err_path, "w+") as err:
            proc = subprocess.Popen(
                cmd + ["--no-timing"] + argv, cwd=ctx.root, env=env, stdout=out, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return CliResult(
                proc.returncode, out.read(), err.read(), spans_file, usage.ru_maxrss / 1024
            )

    return run


def _passes(report):
    return report["status"] == "pass"


def _colimit_is_chain(n):
    objects, morphisms = oracles.glued_chain(n, n)

    def accept(report):
        colim = report["witness"]["colimit"]
        return (
            _passes(report)
            and len(colim["objects"]) == objects
            and len(colim["morphisms"]) == morphisms
        )

    return accept


def _sides_equal(expected):
    def accept(report):
        stats = report["stats"]
        return _passes(report) and stats["lhs"] == stats["rhs"] == expected

    return accept


def _cofinal_quotient(n):
    target = oracles.glued_chain(n, n)[1]
    source = oracles.glued_total_morphisms(n)

    def accept(report):
        stats = report["stats"]
        return (
            _passes(report)
            and stats["source_morphisms"] == source
            and stats["target_morphisms"] == target
        )

    return accept


def _corpus_accept(report):
    """Every fixture check passes except the colimit of ``loop-coeq``,
    which is infinite and must be refused."""
    statuses = {
        (check, name): status
        for check, row in report["matrix"].items()
        for name, status in row.items()
    }
    refused = {k for k, s in statuses.items() if s != "pass"}
    return (
        _passes(report)
        and refused == {("colimit-cat", "loop-coeq")}
        and statuses[("colimit-cat", "loop-coeq")] == "resource_exceeded"
    )


def _count_morphisms(raw):
    if isinstance(raw, dict):
        own = len(raw["morphisms"]) if isinstance(raw.get("morphisms"), list) else 0
        return own + sum(_count_morphisms(v) for v in raw.values())
    if isinstance(raw, list):
        return sum(_count_morphisms(v) for v in raw)
    return 0


def build(ctx, seed):
    rng = random.Random(seed)
    subprocess.run(
        [
            sys.executable,
            os.path.join(ctx.root, "perfbench", "glue_inputs.py"),
            ctx.workdir,
            str(rng.randrange(2**32)),
        ],
        cwd=ctx.root,
        env=ctx.env,
        check=True,
    )
    ops = []
    for n in GLUE_RUNGS:
        phi, x, t = (os.path.join(ctx.workdir, "%s-%d.json" % (k, n)) for k in ("phi", "x", "t"))
        rung, size = "chain(%d)+chain(%d)" % (n, n), 6 + 2 * oracles.chain_morphisms(n)
        for name, argv, accept in (
            ("colimit-cat", ["colimit-cat", "--phi", phi], _colimit_is_chain(n)),
            ("check-cdf", ["check-cdf", "--phi", phi, "--x", x], _sides_equal(GLUE_PARTS)),
            (
                "check-general-cdf",
                ["check-general-cdf", "--phi", phi, "--t", t],
                _sides_equal(GLUE_PARTS),
            ),
            ("comparison-q", ["comparison-q", "--phi", phi], _cofinal_quotient(n)),
        ):
            run = _cli_runner(ctx, argv, "%s-%d" % (name, n))
            ops.append(Op("glue", rung, size, name, _no_inputs, run, accept))
    fixture_dir = os.path.join(ctx.root, "fixtures")
    corpus_size = 0
    for fname in sorted(os.listdir(fixture_dir)):
        with open(os.path.join(fixture_dir, fname)) as fh:
            corpus_size += _count_morphisms(json.load(fh))
    corpus_argv = ["corpus", "fixtures/", "--seed", str(rng.randrange(10**6))]
    ops.append(
        Op(
            "corpus",
            "fixtures/",
            corpus_size,
            "corpus",
            _no_inputs,
            _cli_runner(ctx, corpus_argv, "corpus"),
            _corpus_accept,
        )
    )
    return ops
