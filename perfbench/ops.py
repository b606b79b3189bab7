"""What the workload builders share, without importing fibrelab: the op
record, the glue rungs, and how many passes a run makes."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

GLUE_RUNGS = (4, 6, 8, 10, 12)
GLUE_PARTS = 3  # parts of every seeded X and T of the glue workload

# Seconds of --seconds given to one pass: a run makes
# round(--seconds / PASS_BUDGET_S) passes, so every run of a workload does
# the same work and yields the same number of samples.  At --seconds 15
# that is 3 passes of glue and fibred (about 9 s of wall time each at the
# reference speed of speed.py, on 2 vCPUs with Python 3.11), 6 of limits
# and 7 of diverge (about 2 s each): enough passes for steady medians, with
# a run of any workload under a minute.
PASS_BUDGET_S = {"glue": 5.0, "limits": 2.5, "fibred": 5.0, "diverge": 15 / 7}


def passes(workload, seconds):
    return max(1, round(seconds / PASS_BUDGET_S[workload]))


@dataclass
class Op:
    ladder: str
    rung: str
    size: int  # morphisms in the rung's inputs
    name: str
    prepare: Callable[[], tuple]  # untimed: fresh input objects
    run: Callable  # timed
    accept: Callable[[object], bool]  # the verdict against a known answer
    refusal_expected: bool = False
