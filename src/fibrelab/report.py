"""Machine-readable verification reports.

A report is the uniform answer of every ``check_*`` / ``verify_*`` / oracle
operation: pass/fail plus an explicit witness (a mediating table, a violated
equation, or a counterexample tuple) and some size statistics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MissingWitness

PASS = "pass"
FAIL = "fail"
RESOURCE_EXCEEDED = "resource_exceeded"
INVALID_INPUT = "invalid_input"


@dataclass
class VerificationReport:
    check_name: str
    status: str
    witness: object = None
    stats: dict = field(default_factory=dict)
    seed: int | None = None

    @property
    def ok(self):
        return self.status == PASS

    def __bool__(self):
        return self.ok

    def to_dict(self, include_timing=True):
        stats = dict(self.stats)
        if not include_timing:
            stats.pop("elapsed_s", None)
        out = {
            "format": "fibrelab/1",
            "check_name": self.check_name,
            "status": self.status,
            "witness": self.witness,
            "stats": stats,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def passed(check_name, witness=None, seed=None, **stats):
    return VerificationReport(check_name, PASS, witness, stats, seed)


def failed(check_name, witness, seed=None, **stats):
    if witness is None:
        raise MissingWitness(("failure without a witness", check_name))
    return VerificationReport(check_name, FAIL, witness, stats, seed)


def resource_exceeded(check_name, witness, seed=None, **stats):
    return VerificationReport(check_name, RESOURCE_EXCEEDED, witness, stats, seed)


def invalid_input(check_name, witness, seed=None, **stats):
    if witness is None:
        raise MissingWitness(("invalid input without a witness", check_name))
    return VerificationReport(check_name, INVALID_INPUT, witness, stats, seed)
