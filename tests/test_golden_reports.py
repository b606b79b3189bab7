"""Golden ``--no-timing`` reports of the fibration subcommands.

``check-fibration``, ``check-cofibration``, ``bifibration``, ``lift-limit``
and ``free-cofibration`` run on the fixtures and on small generated inputs;
each report must equal, byte for byte, the one stored under
``tests/golden/``, and exit with the stored code.  The inputs are built
here from the fixtures and ``randgen`` and written to a temporary directory.

``python tests/test_golden_reports.py DIR`` writes the generated inputs to
DIR, so that the same reports can be produced from the command line.
"""
import json
import os
import sys

import pytest

from fibrelab import fixtures
from fibrelab.cli import cat_diagram_to_json, main
from fibrelab.fincat import FinFunctor, constant_functor, identity_functor, product
from fibrelab.grothendieck import CatDiagram, groth_co
from fibrelab.randgen import chain, monotone_functor

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


def golden_inputs():
    """Input files by name: cat-diagrams and functor descriptions."""
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
    return inputs


def write_inputs(directory):
    os.makedirs(directory, exist_ok=True)
    for name, raw in golden_inputs().items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(raw, fh, indent=1)


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

# (command, arguments, exit code); a ":" prefix names a fixture file
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
]


def case_id(case):
    command, args, _ = case
    names = [a.lstrip(":") for a in args if not a.startswith("--")]
    return "%s__%s" % (command, "__".join(names))


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
        elif a.startswith(":"):
            out.append(os.path.join(FIXDIR, a[1:] + ".json"))
        else:
            out.append(os.path.join(input_dir, a + ".json"))
    return out


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_matches_golden(case, input_dir, capsys):
    code = main(argv(case, input_dir))
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, case_id(case) + ".json")) as fh:
        assert out == fh.read()
    assert code == case[2]


if __name__ == "__main__":
    write_inputs(sys.argv[1])
