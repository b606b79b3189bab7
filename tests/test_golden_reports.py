"""Golden ``--no-timing`` reports of the fibration, limit and construction
subcommands.

``check-fibration``, ``check-cofibration``, ``bifibration``, ``lift-limit``
and ``free-cofibration``; the limit side (``limit-set``, ``kan --dual``,
``check-cdf --dual``, ``check-general-cdf --dual``, ``check-tfcf --dual``);
the covariant family formulas (``check-tfcf``, ``check-general-cdf``,
``check-cdf`` and ``check-fubini``);
``strictify``, ``product``, ``comma`` and ``guitart``; ``validate``,
``opposite``, ``grothendieck`` (covariant and ``--dual``), ``colimit-cat``,
``colimit-set``, ``kan`` (left), ``comparison-q`` and ``corpus`` run on the
fixtures and on small generated inputs.  Each report must equal, byte for
byte, the one stored under ``tests/golden/``, and exit with the stored
code.  The inputs are built here from the fixtures and ``randgen`` (seeded)
and written to a temporary directory.  ``explain`` renders reports that
other subcommands wrote there (its goldens are text, ``.txt``).

``python tests/test_golden_reports.py DIR`` writes the generated inputs to
DIR, so that the same reports can be produced from the command line.
"""
import json
import os
import random
import sys

import pytest

from fibrelab import fixtures
from fibrelab.catcolim import colimit_cat
from fibrelab.cli import cat_diagram_to_json, main, set_diagram_to_json
from fibrelab.fincat import FinFunctor, constant_functor, identity_functor, product
from fibrelab.finset import FinSet, constant_diagram
from fibrelab.grothendieck import CatDiagram, groth_co, groth_contra
from fibrelab.randgen import (
    chain,
    coproduct_diagrams,
    monotone_functor,
    random_set_diagram,
    representable_diagram,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FIXDIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fixtures")


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


def functor_to_json(f):
    return {
        "format": "fibrelab/1",
        "source": f.source.to_dict(),
        "target": f.target.to_dict(),
        "on_objects": dict(f.on_objects),
        "on_morphisms": dict(f.on_morphisms),
    }


def renamed(raw, old, new):
    """A category description with the morphism token ``old`` renamed."""
    swap = lambda t: new if t == old else t
    out = dict(raw)
    out["morphisms"] = [dict(m, id=swap(m["id"])) for m in raw["morphisms"]]
    out["identities"] = {a: swap(i) for a, i in raw["identities"].items()}
    out["composition"] = [[swap(t) for t in entry] for entry in raw["composition"]]
    return out


def first_projection(left, right, rename=None):
    """The projection left × right -> left as a functor description; the
    product's morphism tokens are renamed by ``rename`` (old -> new)."""
    prod = product(left, right)
    raw = functor_to_json(
        FinFunctor(
            prod,
            left,
            {"(%s,%s)" % (a, b): a for a in left.objects for b in right.objects},
            {
                "(%s,%s)" % (f, g): f
                for f in left.mor_tokens
                for g in right.mor_tokens
            },
        )
    )
    for old, new in (rename or {}).items():
        raw["source"] = renamed(raw["source"], old, new)
        raw["on_morphisms"][new] = raw["on_morphisms"].pop(old)
    return raw


def z2_with_identity_last():
    """Z2 whose identity token "z" sorts after the non-identity "s"."""
    from fibrelab.fincat import category

    return category(
        ["*"], [("z", "*", "*"), ("s", "*", "*")], {"*": "z"}, {("s", "s"): "z"}
    )


def glued_chains(n, m):
    """chain(n) glued end to start onto chain(m) along SPAN."""
    cats = fixtures.all_categories()
    pt, left, right = cats["ONE"], chain(n), chain(m)
    return CatDiagram(
        cats["SPAN"],
        {"l": left, "s": pt, "r": right},
        {
            "le": FinFunctor(pt, left, {"*": "c%d" % (n - 1)}, {"1": "idc%d" % (n - 1)}),
            "ri": FinFunctor(pt, right, {"*": "c0"}, {"1": "idc0"}),
        },
        "covariant",
    )


def loop_coequalizer(n):
    """Both ends of chain(n) identified along PAIR: a free loop through
    every object, so an infinite colimit."""
    cats = fixtures.all_categories()
    pt, c, top = cats["ONE"], chain(n), "c%d" % (n - 1)
    return CatDiagram(
        cats["PAIR"],
        {"p": pt, "q": c},
        {
            "fst": FinFunctor(pt, c, {"*": "c0"}, {"1": "idc0"}),
            "snd": FinFunctor(pt, c, {"*": top}, {"1": "id" + top}),
        },
        "covariant",
    )


def collision_inputs():
    """Valid inputs on which tokens glued from strings collide (ROADMAP
    item 1): each command must refuse them with exit 2, not answer with two
    things merged into one."""
    from fibrelab.fincat import category
    from fibrelab.finset import FinFunction, SetDiagram

    def discrete(objects):
        ids = {o: "id_" + o for o in objects}
        return category(objects, [(ids[o], o, o) for o in objects], ids, {})

    def identities(sets):
        return {
            "id_" + a: FinFunction(s, s, {e: e for e in s}) for a, s in sets.items()
        }

    # colimit-cat: the objects b|c over a and c over a|b are both a|b|c
    phi = CatDiagram(
        discrete(["a", "a|b"]),
        {"a": discrete(["b|c"]), "a|b": discrete(["c"])},
        {},
        "covariant",
    )
    # colimit-set: the elements c of a.b and b.c of a are both a.b.c
    sets = {"a.b": FinSet(("c",)), "a": FinSet(("b.c",))}
    x = SetDiagram(discrete(["a.b", "a"]), sets, identities(sets))
    # kan --dual: the families (p,i2|1.q ; r) and (p ; q,i2|1.r) over
    # i1, i2 -> * are both (i1|1.p,i2|1.q,i2|1.r)
    two, one = discrete(["i1", "i2"]), fixtures.all_categories()["ONE"]
    to_one = constant_functor(two, one, "*")
    sets = {"i1": FinSet(("p,i2|1.q", "p")), "i2": FinSet(("r", "q,i2|1.r"))}
    return {
        "collide-colimit-cat.json": cat_diagram_to_json(phi),
        "collide-colimit-set.json": set_diagram_to_json(x),
        "collide-ran-f.json": functor_to_json(to_one),
        "collide-ran-x.json": set_diagram_to_json(
            SetDiagram(two, sets, identities(sets))
        ),
    }


# the commands that refuse the collision inputs, with their witnesses
COLLISIONS = (
    (
        ("colimit-cat", "--phi", "collide-colimit-cat"),
        ("colliding colimit object tokens", "a|b|c", ("a", "b|c"), ("a|b", "c")),
    ),
    (
        ("colimit-set", "collide-colimit-set"),
        ("colliding colimit element tokens", "a.b.c", ("a.b", "c"), ("a", "b.c")),
    ),
    (
        ("kan", "--dual", "--functor", "collide-ran-f", "--diagram", "collide-ran-x"),
        (
            "colliding family tokens",
            "*",
            "(i1|1.p,i2|1.q,i2|1.r)",
            ("p,i2|1.q", "r"),
            ("p", "q,i2|1.r"),
        ),
    ),
)


def category_inputs():
    """Category descriptions for ``validate`` and ``opposite``: a thin
    category with a 2-cycle (not a poset), a Grothendieck total that is a
    poset, and a chain whose one composite of non-identities is mistyped."""
    codiscrete = {
        "format": "fibrelab/1",
        "objects": ["x", "y"],
        "morphisms": [
            {"id": "idx", "dom": "x", "cod": "x"},
            {"id": "idy", "dom": "y", "cod": "y"},
            {"id": "u", "dom": "x", "cod": "y"},
            {"id": "v", "dom": "y", "cod": "x"},
        ],
        "identities": {"x": "idx", "y": "idy"},
        "composition": [["u", "v", "idy"], ["v", "u", "idx"]],
    }
    broken = chain(3).to_dict()
    broken["composition"] = [["c1<c2", "c0<c1", "c0<c1"]]
    return {
        "codiscrete.json": codiscrete,
        "halving-two-total.json": groth_co(halving_bifibration("TWO", 3)).total.to_dict(),
        "mistyped-chain.json": broken,
    }


def golden_inputs():
    """Input files by name: cat-diagrams, functor and category
    descriptions."""
    cats = fixtures.all_categories()
    halving = {
        name: halving_bifibration(base, 3) for name, base in
        (("halving-two", "TWO"), ("halving-span", "SPAN"), ("halving-pair", "PAIR"))
    }
    inputs = {name + ".json": cat_diagram_to_json(phi) for name, phi in halving.items()}
    for name, phi in list(halving.items()) + [
        ("span-push3", fixtures.span_push3_diagram()),
        ("semidirect", fixtures.semidirect_diagram()),
    ]:
        inputs[name + "-projection.json"] = functor_to_json(groth_co(phi).projection)
    # every lifting is (co)cartesian; the least token over an identity is
    # not the identity
    inputs["identity-last.json"] = first_projection(
        cats["TWO"], z2_with_identity_last()
    )
    # the least token over ba is twisted by s, those over a and b are not
    inputs["twisted-composite.json"] = first_projection(
        cats["PUSH3"], cats["Z2"], {"(ba,s)": "(ba,!s)"}
    )
    inputs["span-identity.json"] = functor_to_json(identity_functor(cats["SPAN"]))
    inputs["two-to-one.json"] = functor_to_json(
        constant_functor(cats["TWO"], cats["ONE"], "*")
    )
    total = groth_co(halving["halving-two"]).total
    for apex in ("0|c2", "1|c0"):
        inputs["point-%s.json" % apex.replace("|", "-")] = functor_to_json(
            constant_functor(cats["ONE"], total, apex)
        )
    inputs["arrow-0c1-1c0.json"] = functor_to_json(
        FinFunctor(
            cats["TWO"],
            total,
            {"0": "0|c1", "1": "1|c0"},
            {"id0": "id0|c1|idc1", "id1": "id1|c0|idc0", "a": "a|c1|idc0"},
        )
    )
    total = groth_co(halving["halving-pair"]).total
    inputs["pair-c0.json"] = functor_to_json(
        FinFunctor(
            cats["PAIR"],
            total,
            {"p": "p|c0", "q": "q|c0"},
            {
                "idp": "idp|c0|idc0",
                "idq": "idq|c0|idc0",
                "fst": "fst|c0|idc0",
                "snd": "snd|c0|idc0",
            },
        )
    )
    inputs["glued-chain.json"] = cat_diagram_to_json(glued_chains(3, 4))
    # for the hash-seed steps of CI, not for golden reports
    inputs["glued-chain16.json"] = cat_diagram_to_json(glued_chains(16, 16))
    inputs["loop-chain4.json"] = cat_diagram_to_json(loop_coequalizer(4))
    inputs.update(collision_inputs())
    inputs.update(limit_inputs())
    inputs.update(category_inputs())
    return inputs


def seeded_diagram(seed, shape, max_parts=3):
    return set_diagram_to_json(random_set_diagram(random.Random(seed), shape, max_parts))


def limit_inputs():
    """Inputs of the limit-side and construction subcommands: set diagrams
    whose limits have arrows from earlier and from later objects, parallel
    arrows, composites and group actions (self-loops); functors for ``kan``,
    ``comma`` and ``strictify``; contravariant cat-diagrams for the limit
    formulas; set diagrams on Grothendieck totals and Cat-colimits."""
    cats = fixtures.all_categories()
    two, span, push3 = cats["TWO"], cats["SPAN"], cats["PUSH3"]
    inputs = {}
    for seed, name in ((5, "PUSH3"), (5, "SPAN"), (5, "PAIR"), (5, "S3")):
        inputs["x-%s.json" % name.lower()] = seeded_diagram(seed, cats[name])
    z3 = cats["Z3"]
    inputs["x-z3-action.json"] = set_diagram_to_json(
        coproduct_diagrams(
            z3, [representable_diagram(z3, "*"), constant_diagram(z3, FinSet(("*",)))]
        )
    )
    c4 = chain(4)
    inputs["x-chain4x3.json"] = set_diagram_to_json(
        coproduct_diagrams(c4, [representable_diagram(c4, "c0")] * 3)
    )
    functors = {
        "f-two-push3": FinFunctor(
            two, push3, {"0": "0", "1": "2"}, {"id0": "id0", "id1": "id2", "a": "ba"}
        ),
        "f-z2-one": constant_functor(cats["Z2"], cats["ONE"], "*"),
        "f-span-two": FinFunctor(
            span,
            two,
            {"s": "0", "l": "1", "r": "1"},
            {"ids": "id0", "idl": "id1", "idr": "id1", "le": "a", "ri": "a"},
        ),
        "f-chain2-chain4": monotone_functor(chain(2), chain(4), {"c0": "c1", "c1": "c3"}),
        "f-push3-id": identity_functor(push3),
        "f-one-push3": constant_functor(cats["ONE"], push3, "1"),
        "f-one-span": constant_functor(cats["ONE"], span, "l"),
        "f-span-id": identity_functor(span),
        "f-two-push3-id": FinFunctor(
            two, push3, {"0": "0", "1": "1"}, {"id0": "id0", "id1": "id1", "a": "a"}
        ),
    }
    for name, f in functors.items():
        inputs[name + ".json"] = functor_to_json(f)
    # set diagrams for ``kan --dual``, seeded to give nonempty extensions
    for name, seed in (
        ("f-two-push3", 11),
        ("f-span-two", 10),
        ("f-chain2-chain4", 10),
        ("f-push3-id", 17),
    ):
        inputs[name + "-x.json"] = seeded_diagram(seed, functors[name].source)
    inputs["f-z2-one-x.json"] = set_diagram_to_json(
        coproduct_diagrams(
            cats["Z2"],
            [
                representable_diagram(cats["Z2"], "*"),
                constant_diagram(cats["Z2"], FinSet(("*",))),
            ],
        )
    )
    # (name, diagram, seed of its set diagram); the seeds give nonempty limits
    contra = (
        (
            "contra-span",
            CatDiagram(span, {d: two for d in span.objects}, {}, "contravariant"),
            30,
        ),
        (
            "contra-two",
            CatDiagram(
                two,
                {"0": chain(3), "1": chain(2)},
                {"a": monotone_functor(chain(2), chain(3), {"c0": "c0", "c1": "c2"})},
                "contravariant",
            ),
            30,
        ),
    )
    for name, phi, seed in contra:
        inputs[name + ".json"] = cat_diagram_to_json(phi)
        inputs[name + "-t.json"] = seeded_diagram(seed, groth_contra(phi).total)
    covariant = (
        ("span-push3", fixtures.span_push3_diagram(), 41),
        ("halving-two", halving_bifibration("TWO", 3), 42),
        ("semidirect", fixtures.semidirect_diagram(), 45),
        ("glued-chain", glued_chains(3, 4), 46),
    )
    for name, phi, seed in covariant:
        inputs[name + "-t.json"] = seeded_diagram(seed, groth_co(phi).total)
        inputs[name + "-x.json"] = seeded_diagram(seed, colimit_cat(phi).colimit)
    # set diagrams on product shapes for ``check-fubini``
    for left, right, seed in (("TWO", "SPAN", 43), ("PAIR", "Z2", 44)):
        name = "%s-%s-t.json" % (left.lower(), right.lower())
        inputs[name] = seeded_diagram(seed, product(cats[left], cats[right]))
    return inputs


# report files for ``explain``: name -> the command that writes it
REPORTS = {
    "report-push3": ("validate", (":push3",)),
    "report-mistyped-chain": ("validate", ("mistyped-chain",)),
    "report-identity-last": ("check-fibration", ("identity-last",)),
    "report-loop-coeq": ("colimit-cat", ("--phi", ":loop-coeq", "--bound=40")),
    "report-corpus": ("corpus", (":",)),
}


def write_inputs(directory):
    os.makedirs(directory, exist_ok=True)
    for name, raw in golden_inputs().items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(raw, fh, indent=1)
    for name, (command, args) in REPORTS.items():
        out = os.path.join(directory, name + ".json")
        main(["--output", out] + argv((command, args, None), directory))


FUNCTORS = (
    "halving-two-projection",
    "halving-span-projection",
    "halving-pair-projection",
    "span-push3-projection",
    "semidirect-projection",
    "identity-last",
    "twisted-composite",
    "span-identity",
    "two-to-one",
)

# (command, arguments, exit code); a ":" prefix names a fixture file, and
# ":" alone the fixture directory
CASES = [
    (command, (name,), code)
    for command, codes in (
        ("check-fibration", (0, 0, 0, 1, 0, 1, 1, 0, 0)),
        ("check-cofibration", (0, 0, 0, 0, 0, 1, 1, 0, 0)),
        ("free-cofibration", (0,) * 9),
    )
    for name, code in zip(FUNCTORS, codes)
] + [
    ("bifibration", ("--phi", "halving-two"), 0),
    ("bifibration", ("--phi", "halving-span"), 0),
    ("bifibration", ("--phi", "halving-pair"), 0),
    ("bifibration", ("--phi", ":span-push3"), 1),
    ("bifibration", ("--phi", ":semidirect"), 0),
    ("lift-limit", ("--phi", "halving-two", "--f", "point-0-c2"), 0),
    ("lift-limit", ("--phi", "halving-two", "--f", "point-1-c0"), 0),
    ("lift-limit", ("--phi", "halving-two", "--f", "arrow-0c1-1c0"), 0),
    ("lift-limit", ("--phi", "halving-pair", "--f", "pair-c0"), 1),
] + [
    ("limit-set", (x,), 0)
    for x in ("x-push3", "x-span", "x-pair", "x-s3", "x-z3-action", "x-chain4x3")
] + [
    ("kan", ("--dual", "--functor", f, "--diagram", f + "-x"), 0)
    for f in ("f-two-push3", "f-z2-one", "f-span-two", "f-chain2-chain4", "f-push3-id")
] + [
    (command, ("--dual", "--phi", phi, "--t", phi + "-t"), 0)
    for command in ("check-tfcf", "check-general-cdf")
    for phi in ("contra-span", "contra-two")
] + [
    ("check-cdf", ("--dual", "--phi", phi, "--x", phi.lstrip(":") + "-x"), 0)
    for phi in (":span-push3", "halving-two")
] + [
    (command, ("--phi", phi, "--t", phi.lstrip(":") + "-t"), 0)
    for command in ("guitart", "check-tfcf", "check-general-cdf")
    for phi in (":span-push3", "halving-two")
] + [
    ("check-cdf", ("--phi", phi, "--x", phi.lstrip(":") + "-x"), 0)
    for phi in (":span-push3", "halving-two")
] + [
    ("check-fubini", ("--d", ":" + d, "--e", ":" + e, "--t", "%s-%s-t" % (d, e)), 0)
    for d, e in (("two", "span"), ("pair", "z2"))
] + [
    ("strictify", ("--x", x, "--y", y), 0)
    for x, y in (
        ("f-one-push3", "f-two-push3-id"),
        ("f-two-push3", "f-push3-id"),
        ("f-one-span", "f-span-id"),
    )
] + [
    ("product", (":two", ":span"), 0),
    ("product", (":pair", ":z2"), 0),
    ("comma", ("f-span-id", "f-one-span"), 0),
    ("comma", ("f-two-push3", "f-push3-id"), 0),
] + [
    ("validate", (c,), 0)
    for c in (":push3", ":s3", "codiscrete", "halving-two-total")
] + [
    ("validate", ("mistyped-chain",), 2),
] + [
    ("opposite", (c,), 0)
    for c in (":push3", ":s3", "codiscrete", "halving-two-total")
] + [
    ("grothendieck", ("--phi", phi), 0)
    for phi in ("halving-two", ":span-push3", ":semidirect")
] + [
    ("grothendieck", ("--dual", "--phi", phi), 0)
    for phi in ("contra-span", "contra-two")
] + [
    ("colimit-cat", ("--phi", "glued-chain"), 0),
    ("colimit-cat", ("--phi", ":span-push3"), 0),
    ("colimit-cat", ("--phi", ":loop-coeq", "--bound=40"), 3),
] + [
    ("colimit-set", (x,), 0)
    for x in ("x-push3", "x-span", "x-pair", "x-s3", "x-z3-action", "x-chain4x3")
] + [
    ("kan", ("--functor", f, "--diagram", f + "-x"), 0)
    for f in ("f-two-push3", "f-z2-one", "f-span-two", "f-chain2-chain4", "f-push3-id")
] + [
    ("comparison-q", ("--phi", phi), 0)
    for phi in ("glued-chain", ":span-push3", ":semidirect", "halving-two")
] + [
    ("comparison-q", ("--phi", ":loop-coeq", "--bound=40"), 3),
    ("corpus", (":",), 0),
    ("corpus", (), 0),
] + [
    ("explain", (name,), 0) for name in REPORTS
] + [
    ("explain", ("two-to-one",), 2),
]


def case_id(case):
    command, args, _ = case
    names = [
        "dual" if a == "--dual" else a.lstrip(":") or "fixtures"
        for a in args
        if a == "--dual" or not a.startswith("--")
    ]
    return "__".join([command] + names)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    write_inputs(str(directory))
    return str(directory)


def argv(case, input_dir):
    command, args, _ = case
    out = ["--no-timing", command]
    for a in args:
        if a.startswith("--"):
            out.append(a)
        elif a == ":":
            out.append(FIXDIR)
        elif a.startswith(":"):
            out.append(os.path.join(FIXDIR, a[1:] + ".json"))
        else:
            out.append(os.path.join(input_dir, a + ".json"))
    return out


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_matches_golden(case, input_dir, capsys):
    code = main(argv(case, input_dir))
    out = capsys.readouterr().out
    ext = ".txt" if case[0] == "explain" else ".json"
    with open(os.path.join(GOLDEN, case_id(case) + ext)) as fh:
        assert out == fh.read()
    assert code == case[2]


if __name__ == "__main__":
    write_inputs(sys.argv[1])
