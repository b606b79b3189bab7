"""The in-process workloads (limits, fibred, diverge) and the inputs of
the CLI workload (glue): their inputs, operations and oracles.

A workload is a list of operations.  Each operation belongs to a rung of a
ladder (inputs of growing size); one pass runs every operation once.  An
operation has an untimed ``prepare`` that builds fresh input objects, so no
per-object memo carries over between passes, and a timed ``run``.  Its
``accept`` compares the result with a known answer from :mod:`oracles`.

Inputs come from the workload seed.  Every builder here runs during set-up;
the engine's own generators (``randgen``) are used only there.
"""
from __future__ import annotations

import json
import os
import random

import oracles
from ops import GLUE_PARTS, GLUE_RUNGS, Op

from fibrelab import (
    catcolim,
    fibrations,
    fincat,
    finset,
    fixtures,
    formulas,
    grothendieck,
    kan,
)
from fibrelab.cli import cat_diagram_to_json, set_diagram_to_json
from fibrelab.errors import BoundExceeded, ResourceExceeded
from fibrelab.fincat import FinFunctor
from fibrelab.finset import FinSet
from fibrelab.grothendieck import CatDiagram
from fibrelab.randgen import (
    chain,
    coproduct_diagrams,
    monotone_functor,
    poset_category,
    representable_diagram,
)

LIMIT_RUNGS = (6, 7, 8, 9, 10)  # chain(10) x 4 is refused today (4**10 tuples)
RAN_RUNGS = (4, 6, 8)
FUNCTOR_RUNGS = (3, 4, 5)
BIFIB_RUNGS = (4, 6, 8)
PRODUCT_RUNGS = (5, 6, 7)
RECOMPOSITION_RUNGS = ((3, 4), (4, 5))
LOOP_RUNGS = (2, 3, 4)
LOOP_BOUNDS = (100, 1000, 10000)
# base shape -> (objects, non-identity morphisms), read off fixtures.py
BASES = {"TWO": (2, 1), "SPAN": (3, 2), "PAIR": (2, 2)}


# -- shared input builders -----------------------------------------------------

def glued_chains(n, m):
    """chain(n) glued end to start onto chain(m) along SPAN."""
    pt, left, right = fixtures.one(), chain(n), chain(m)
    le = FinFunctor(pt, left, {"*": "c%d" % (n - 1)}, {"1": "idc%d" % (n - 1)})
    ri = FinFunctor(pt, right, {"*": "c0"}, {"1": "idc0"})
    return CatDiagram(
        fixtures.span(),
        {"l": left, "s": pt, "r": right},
        {"le": le, "ri": ri},
        "covariant",
    )


def loop_coequalizer(n, prefix=""):
    """PAIR-shaped coequalizer of ONE into both ends of chain(n), whose
    objects are named prefix+"c0" < ... : a free loop."""
    names = [prefix + "c%d" % i for i in range(n)]
    rank = {x: i for i, x in enumerate(names)}
    pt = fixtures.one()
    c = poset_category(names, lambda x, y: rank[x] <= rank[y])
    bottom = FinFunctor(pt, c, {"*": names[0]}, {"1": "id" + names[0]})
    top = FinFunctor(pt, c, {"*": names[-1]}, {"1": "id" + names[-1]})
    return CatDiagram(
        fixtures.pair(),
        {"p": pt, "q": c},
        {"fst": bottom, "snd": top},
        "covariant",
    )


def halving_bifibration(base_name, k):
    """chain(k) fibres over a fixture base, every transition c_i -> c_(i//2)."""
    base = fixtures.all_categories()[base_name]
    fibres = {d: chain(k) for d in base.objects}
    half = {"c%d" % i: "c%d" % (i // 2) for i in range(k)}
    transitions = {
        u: monotone_functor(fibres[d], fibres[e], half)
        for u, d, e in base.morphisms
        if not base.is_identity(u)
    }
    return CatDiagram(base, fibres, transitions, "covariant")


def seeded_parts(rng, objects, count=3):
    """Parts of a coproduct set diagram: representables at seeded objects
    and constant singletons."""
    return [
        ("rep", rng.choice(objects)) if rng.random() < 0.7 else ("const",)
        for _ in range(count)
    ]


def set_diagram(shape, parts):
    return coproduct_diagrams(
        shape,
        [
            representable_diagram(shape, p[1])
            if p[0] == "rep"
            else finset.constant_diagram(shape, FinSet(("*",)))
            for p in parts
        ],
    )


def late(module, name):
    """Call ``module.name`` as it is bound at call time, so that a tracer
    that replaces the attribute also sees the benchmark's own calls."""
    return lambda *args: getattr(module, name)(*args)


# -- glue inputs, written as JSON for the CLI --------------------------------

def write_glue_inputs(workdir, rng):
    """Write phi-n.json, x-n.json and t-n.json for every glue rung."""
    for n in GLUE_RUNGS:
        phi = glued_chains(n, n)
        _write_json(os.path.join(workdir, "phi-%d.json" % n), cat_diagram_to_json(phi))
        # the colimit's tokens name the objects that X lives on
        k_cat = catcolim.colimit_cat(phi).colimit
        x = set_diagram(k_cat, seeded_parts(rng, list(k_cat.objects), GLUE_PARTS))
        _write_json(os.path.join(workdir, "x-%d.json" % n), set_diagram_to_json(x))
        total = grothendieck.groth_co(phi).total
        t = set_diagram(total, seeded_parts(rng, list(total.objects), GLUE_PARTS))
        _write_json(os.path.join(workdir, "t-%d.json" % n), set_diagram_to_json(t))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


# -- limits: the compatible-family enumerators ------------------------------

def build_limits(rng):
    ops = []
    for n in LIMIT_RUNGS:
        def prepare(n=n):
            shape = chain(n)
            return (coproduct_diagrams(shape, [representable_diagram(shape, "c0")] * 4),)

        expected = oracles.chain_limit([("rep", "c0")] * 4, "c0")
        ops.append(
            Op(
                "limit_set",
                "chain(%d)x4" % n,
                oracles.chain_morphisms(n),
                "limit_set",
                prepare,
                late(finset, "limit_set"),
                lambda cone, expected=expected: len(cone.apex) == expected,
            )
        )
    values = tuple(sorted(rng.sample("abcdefghij", 3)))
    for a in RAN_RUNGS:
        def prepare(a=a):
            src, tgt = chain(a), chain(a + 2)
            inc = FinFunctor(
                src, tgt, {o: o for o in src.objects}, {m: m for m in src.mor_tokens}
            ).check()
            return inc, finset.constant_diagram(src, FinSet(values))

        expected = oracles.ran_sizes(a, a + 2, len(values))
        ops.append(
            Op(
                "ran",
                "chain(%d)->chain(%d)" % (a, a + 2),
                oracles.chain_morphisms(a) + oracles.chain_morphisms(a + 2),
                "ran",
                prepare,
                late(kan, "ran"),
                lambda res, expected=expected, a=a: [
                    len(res.extension.sets["c%d" % j]) for j in range(a + 2)
                ]
                == expected,
            )
        )
    for a in FUNCTOR_RUNGS:
        expected = oracles.functor_count(a, a + 1)
        ops.append(
            Op(
                "enumerate_functors",
                "chain(%d)->chain(%d)" % (a, a + 1),
                oracles.chain_morphisms(a) + oracles.chain_morphisms(a + 1),
                "enumerate_functors",
                lambda a=a: (chain(a), chain(a + 1)),
                late(fibrations, "enumerate_functors"),
                lambda found, expected=expected: len(found) == expected,
            )
        )
    # limit recomposition over chain(n) glued onto chain(m), i.e. chain(n+m-1)
    for n, m in RECOMPOSITION_RUNGS:
        fibre_objects = [("l", "c%d" % i) for i in range(n)] + [
            ("r", "c%d" % i) for i in range(m)
        ]
        picks = [rng.choice(fibre_objects) for _ in range(3)]
        expected = oracles.chain_limit([("rep", p) for p in picks], ("l", "c0"))

        def prepare_recomposition(n=n, m=m, picks=picks):
            phi = glued_chains(n, m)
            kres = catcolim.colimit_cat(phi)
            parts = [("rep", kres.cocone[d].ob(i)) for d, i in picks]
            return phi, set_diagram(kres.colimit, parts)

        ops.append(
            Op(
                "recomposition",
                "chain(%d)+chain(%d)" % (n, m),
                6 + oracles.chain_morphisms(n) + oracles.chain_morphisms(m),
                "check_limit_recomposition",
                prepare_recomposition,
                late(formulas, "check_limit_recomposition"),
                _sides_equal_report(expected),
            )
        )
    return ops


def _sides_equal_report(expected):
    def accept(report):
        return report.ok and report.stats["lhs"] == report.stats["rhs"] == expected

    return accept


# -- fibred: Grothendieck constructions and cleavages -------------------------

def build_fibred(rng):
    ops = []
    for k in BIFIB_RUNGS:
        rung = "chain(%d) fibres" % k
        size = sum(
            n_obj + n_non_id + n_obj * oracles.chain_morphisms(k)
            for n_obj, n_non_id in BASES.values()
        )
        for base_name, (n_obj, n_non_id) in BASES.items():
            ops.extend(
                _bifibration_ops(rng, base_name, k, n_obj, n_non_id, rung, size)
            )
    for a in PRODUCT_RUNGS:
        rung, size = "chain(%d)^2" % a, 2 * oracles.chain_morphisms(a)
        expected = oracles.product_of_chains(a)
        ops.append(
            Op(
                "product",
                rung,
                size,
                "product",
                lambda a=a: (chain(a), chain(a)),
                late(fincat, "product"),
                lambda p, expected=expected: (len(p.objects), len(p.morphisms))
                == expected,
            )
        )
        # the product's object tokens are "(c_i,c_j)" for chain objects c_i, c_j
        parts = seeded_parts(
            rng, ["(c%d,c%d)" % (i, j) for i in range(a) for j in range(a)]
        )
        n_parts = oracles.colimit_of_parts(parts)

        def prepare_fubini(a=a, parts=parts):
            return chain(a), chain(a), set_diagram(fincat.product(chain(a), chain(a)), parts)

        ops.append(
            Op(
                "product",
                rung,
                size,
                "check_fubini",
                prepare_fubini,
                late(formulas, "check_fubini"),
                lambda rep, n=n_parts: rep.ok
                and rep.stats["lhs"] == rep.stats["rhs_de"] == rep.stats["rhs_ed"] == n,
            )
        )
    return ops


def _bifibration_ops(rng, base_name, k, n_obj, n_non_id, rung, size):
    base_morphisms = n_obj + n_non_id
    total_morphisms = oracles.split_chain_total(n_obj, n_non_id, k)
    base = fixtures.all_categories()[base_name]
    # a seeded total object "a|c_i" for lift_limit, and seeded parts for T
    apex = "%s|c%d" % (rng.choice(base.objects), rng.randrange(k))
    total_objects = ["%s|c%d" % (a, i) for a in base.objects for i in range(k)]
    parts = seeded_parts(rng, total_objects)

    def phi():
        return (halving_bifibration(base_name, k),)

    def gr():
        return (grothendieck.groth_co(halving_bifibration(base_name, k)),)

    def cleavages():
        g = grothendieck.groth_co(halving_bifibration(base_name, k))
        return fibrations.search_cleavage(g.projection, "fibration"), fibrations.cleavage_from_groth(g)

    def lift_inputs():
        theta, delta = cleavages()
        total = delta.base_functor.source
        return theta, delta, fincat.constant_functor(fixtures.one(), total, apex)

    def tfcf_inputs():
        p = halving_bifibration(base_name, k)
        return p, set_diagram(grothendieck.groth_co(p).total, parts)

    def free_and_verify(projection):
        free = fibrations.free_cofibration(projection)
        report, _ = fibrations.verify_split_cofibration(fibrations.cleavage_from_groth(free.result))
        return free, report

    label = "%s/" % base_name
    return [
        Op(
            "bifibration",
            rung,
            size,
            label + "groth_co",
            phi,
            late(grothendieck, "groth_co"),
            lambda g: len(g.total.morphisms) == total_morphisms
            and len(g.total.objects) == n_obj * k,
        ),
        Op(
            "bifibration",
            rung,
            size,
            label + "reconstitute",
            lambda: (fibrations.cleavage_from_groth(gr()[0]),),
            late(fibrations, "reconstitute"),
            lambda rep: rep.ok and rep.stats["morphisms"] == total_morphisms,
        ),
        Op(
            "bifibration",
            rung,
            size,
            label + "search_cleavage",
            lambda: (gr()[0].projection, "fibration"),
            late(fibrations, "search_cleavage"),
            lambda data: data is not None and len(data.lifting) == base_morphisms * k,
        ),
        Op(
            "bifibration",
            rung,
            size,
            label + "bifibration_check",
            cleavages,
            late(fibrations, "bifibration_check"),
            lambda w: len(w.units) == base_morphisms
            and all(len(eta) == k for eta in w.units.values()),
        ),
        Op(
            "bifibration",
            rung,
            size,
            label + "lift_limit",
            lift_inputs,
            late(fibrations, "lift_limit"),
            lambda out: out[1].ok and out[0].apex == apex,
        ),
        Op(
            "bifibration",
            rung,
            size,
            label + "free_cofibration+verify",
            lambda: (gr()[0].projection,),
            free_and_verify,
            lambda out: out[1].ok
            and len(out[0].result.total.objects)
            == oracles.free_cofibration_objects(base_morphisms, k),
        ),
        Op(
            "bifibration",
            rung,
            size,
            label + "check_tfcf",
            tfcf_inputs,
            late(formulas, "check_tfcf"),
            _sides_equal_report(oracles.colimit_of_parts(parts)),
        ),
    ]


# -- diverge: honest refusal of an infinite colimit ---------------------------

def _refused_with_trace(exc):
    return bool(exc.trace)


def build_diverge(rng):
    ops = []
    for n in LOOP_RUNGS:
        size = 4 + 1 + oracles.chain_morphisms(n)
        for bound in LOOP_BOUNDS:
            # Where saturation detects divergence depends on set iteration
            # order, i.e. on string hashes.  A fresh seeded prefix for every
            # call changes the hashes but no sorted order (hex digits sort
            # before "i", so "id..." tokens stay last), so the passes of one
            # run sample many orders instead of one.
            prefixes = random.Random(rng.random())

            def prepare(n=n, prefixes=prefixes):
                return (loop_coequalizer(n, "%06x" % prefixes.getrandbits(24)),)

            ops.append(
                Op(
                    "loop",
                    "chain(%d) loop" % n,
                    size,
                    "colimit_cat bound=%d" % bound,
                    prepare,
                    lambda phi, bound=bound: catcolim.colimit_cat(phi, bound=bound),
                    _refused_with_trace,
                    refusal_expected=True,
                )
            )
    return ops


BUILDERS = {
    "limits": build_limits,
    "fibred": build_fibred,
    "diverge": build_diverge,
}


def build(workload, seed):
    return BUILDERS[workload](random.Random(seed))


# exceptions that are the engine's refusals rather than answers
REFUSALS = (BoundExceeded, ResourceExceeded)
