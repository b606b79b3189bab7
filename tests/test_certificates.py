"""Certificates that the engine checks on its own results raise typed errors,
also under ``python -O``.

Each case runs in a fresh interpreter, with and without ``-O``: it corrupts
the certified object through a monkeypatch and reports which error the
certificate raised.  An ``assert`` would vanish under ``-O`` and let the
corrupted result through.  The guards that were the last ``assert``s of the
engine (reports without a witness, ``randgen``'s monotone maps and its
cleavage search) raise typed errors the same way.
"""
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PRELUDE = """
import random
from fibrelab import fixtures, formulas, grothendieck, kan
from fibrelab.catcolim import colimit_cat
from fibrelab.fincat import (
    NatTransformation,
    compose_functor,
    constant_functor,
    identity_functor,
)
from fibrelab.finset import FinFunction
from fibrelab.grothendieck import groth_co, guitart_hat
from fibrelab.randgen import random_set_diagram


def rotated(nat):
    # a component that is a permutation other than the identity
    k = next(k for k, c in nat.components.items() if len(c.source) >= 2)
    c = nat.components[k]
    e = c.source.elements
    nat.components[k] = FinFunction(c.source, c.target, dict(zip(e, e[1:] + e[:1])))
    return nat


"""

# the mediator that joint_lan_factor solves for, with one component rotated
JOINT_LAN_PATCH = """
real = formulas.joint_lan_factor
formulas.joint_lan_factor = lambda *args: rotated(real(*args))
"""

# name -> (the monkeypatch that corrupts, the run, the error it must raise)
CASES = {
    # Lan along the identity of TWO, with the extension's function a made
    # constant after its check
    "lan unit naturality": (
        """
        class Corrupted(kan.SetDiagram):
            def check(self):
                super().check()
                fn = self._functions["a"]
                first = fn.target.elements[0]
                self._functions["a"] = FinFunction(
                    fn.source, fn.target, {e: first for e in fn.source}
                )
                return self

        kan.SetDiagram = Corrupted
        """,
        """
        two = fixtures.two()
        x = random_set_diagram(random.Random(5), two)
        kan.lan(identity_functor(two), x)
        """,
        ("NaturalityFailure", "lan unit naturality"),
    ),
    "concordance mediator": (
        JOINT_LAN_PATCH,
        """
        phi = fixtures.span_push3_diagram()
        x = random_set_diagram(random.Random(5), colimit_cat(phi).colimit)
        formulas.check_cdf_concordance(phi, x)
        """,
        ("CertificateFailure", "joint-Kan mediator must be the identity"),
    ),
    "general cdf mediator": (
        JOINT_LAN_PATCH,
        """
        phi = fixtures.span_push3_diagram()
        t = random_set_diagram(random.Random(5), groth_co(phi).total)
        formulas.check_general_cdf(guitart_hat(phi, t))
        """,
        ("CertificateFailure", "joint-Kan mediator must be the identity"),
    ),
    # the trivial lax cocone of Z2 acting on Z3 into its base, with a
    # cocleavage whose δ^s is made the identity
    "lax cocone uniqueness": (
        """
        real = grothendieck.groth_co

        def corrupted(phi):
            g = real(phi)
            g.cleavage[("s", "*")] = g.cleavage[("e", "*")]
            return g

        grothendieck.groth_co = corrupted
        """,
        """
        phi = fixtures.semidirect_diagram()
        sh = phi.shape
        sigma = {a: constant_functor(phi.fibre(a), sh, a) for a in sh.objects}
        phis = {
            u: NatTransformation(
                sigma[sh.dom(u)],
                compose_functor(sigma[sh.cod(u)], phi.transition(u)),
                {x: u for x in phi.fibre(sh.dom(u)).objects},
            )
            for u in sh.mor_tokens
        }
        grothendieck.lax_cocone_extend(phi, sigma, phis)
        """,
        ("CertificateFailure", "lax cocone extension not unique"),
    ),
}


def run_case(code, optimize):
    """Run PRELUDE and ``code`` in a fresh interpreter; the name and first
    witness entry of the error it raises, or "no error"."""
    script = PRELUDE + textwrap.dedent(
        """
        try:
        %s
        except Exception as exc:
            witness = exc.args[0] if exc.args else ()
            print(type(exc).__name__, witness[0] if witness else "", sep="\\n")
        else:
            print("no error")
        """
    ) % textwrap.indent(textwrap.dedent(code), "    ")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("PYTHONOPTIMIZE", None)
    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.splitlines())


@pytest.mark.parametrize("optimize", [False, True], ids=["asserts", "python-O"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupted_certificate_raises_a_typed_error(case, optimize):
    patch, run, expected = CASES[case]
    assert run_case(textwrap.dedent(patch) + textwrap.dedent(run), optimize) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_same_run_uncorrupted_passes(case):
    _, run, _ = CASES[case]
    assert run_case(run, False) == ("no error",)


# name -> (a run that breaks what an ``assert`` used to guard, the error it
# must raise)
GUARDS = {
    "failure report without a witness": (
        """
        from fibrelab.report import failed
        failed("is_final", None)
        """,
        ("MissingWitness", "failure without a witness"),
    ),
    "invalid_input report without a witness": (
        """
        from fibrelab.report import invalid_input
        invalid_input("validate", None)
        """,
        ("MissingWitness", "invalid input without a witness"),
    ),
    "monotone functor on a map that is not monotone": (
        """
        from fibrelab.randgen import chain, monotone_functor
        monotone_functor(chain(2), chain(2), {"c0": "c1", "c1": "c0"})
        """,
        ("ShapeMismatch", "not monotone"),
    ),
    "random bifibration whose cleavage search fails": (
        """
        from fibrelab import fibrations, randgen
        fibrations.search_cleavage = lambda p, direction: None
        randgen.random_bifibration(random.Random(1))
        """,
        ("UnverifiedCleavage", "no cleavage of chain transitions"),
    ),
}


@pytest.mark.parametrize("optimize", [False, True], ids=["asserts", "python-O"])
@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guards_raise_a_typed_error(case, optimize):
    run, expected = GUARDS[case]
    assert run_case(run, optimize) == expected
