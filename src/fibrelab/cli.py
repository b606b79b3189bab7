"""Command-line interface: JSON file formats, batch commands, and
machine-readable verification reports.

A command loads all of its input files, then runs the engine, and returns
a verification report, a JSON document to print as it is, or the exit code
of output it wrote itself.  :func:`main` alone times a command and turns an
engine error that reaches it into a report whose status the error's class
names (``FibrelabError.status`` in :mod:`fibrelab.errors`).

Exit codes: 0 = pass, 1 = property violated, 2 = invalid input,
3 = resource bound exceeded, 4 = internal error (a certificate the engine
checks on its own result failed).  An input file that is missing, a
directory, or not JSON is invalid input.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import fixtures
from .catcolim import (
    certify_cofinal_quotient,
    colimit_cat,
    comparison_q,
)
from .diagcat import DiagObject, strict_hom_bijection
from .errors import (
    BoundExceeded,
    DanglingToken,
    FibrelabError,
    NonFunctorialDiagram,
    ShapeMismatch,
    UnreadableInput,
)
from .fincat import (
    FinFunctor,
    _require_hashable,
    comma,
    opposite,
    product,
    validate_category,
)
from .finset import FinFunction, FinSet, SetDiagram, colimit_set, limit_set
from .fibrations import (
    bifibration_check,
    cleavage_from_groth,
    free_cofibration,
    lift_limit,
    reconstitute,
    search_cleavage,
    verify_split_cofibration,
    verify_split_fibration,
)
from .formulas import (
    backward_hat,
    check_cdf,
    check_fubini,
    check_general_cdf,
    check_general_limit_recomposition,
    check_limit_recomposition,
    check_tfcf,
    check_twisted_limit,
)
from .grothendieck import (
    CatDiagram,
    groth_co,
    groth_contra,
    guitart_check,
    guitart_hat,
)
from .kan import lan, ran
from .randgen import random_set_diagram
from .report import VerificationReport, failed, invalid_input, passed

EXIT_CODES = {
    "pass": 0,
    "fail": 1,
    "invalid_input": 2,
    "resource_exceeded": 3,
    "internal_error": 4,
}


# -- serialization -----------------------------------------------------------

def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        raise UnreadableInput(("unreadable input file", path, reason)) from None


def load_category(raw):
    return validate_category(raw)


def _require_mappings(raw, keys, *what):
    """Refuse ``raw`` unless it maps each of ``keys`` to a mapping."""
    fields = raw if isinstance(raw, dict) else {}
    bad = [k for k in keys if not isinstance(fields.get(k), dict)]
    if bad:
        raise DanglingToken(what + (bad,))


def load_functor(raw):
    keys = ("source", "target", "on_objects", "on_morphisms")
    _require_mappings(raw, keys, "not a functor description")
    src = load_category(raw["source"])
    tgt = load_category(raw["target"])
    _require_hashable(raw["on_objects"].values())
    _require_hashable(raw["on_morphisms"].values())
    return FinFunctor(
        src, tgt, raw["on_objects"], raw["on_morphisms"]
    ).check()


def load_set_diagram(raw):
    keys = ("shape", "sets", "functions")
    _require_mappings(raw, keys, "not a set-diagram description")
    shape = load_category(raw["shape"])
    objects = set(shape.objects)
    for a in raw["sets"]:
        if a not in objects:
            raise DanglingToken(("set for undeclared object", a))
    for a in shape.objects:
        if a not in raw["sets"]:
            raise ShapeMismatch(("missing set", a))
    for m in raw["functions"]:
        if not shape.has_mor(m):
            raise DanglingToken(("function for undeclared morphism", m))
    for a, v in raw["sets"].items():
        if not isinstance(v, list):
            raise DanglingToken(("set is not a list", a))
        _require_hashable(v)
    sets = {a: FinSet(tuple(v)) for a, v in raw["sets"].items()}
    functions = {}
    for m, mapping in raw["functions"].items():
        try:
            functions[m] = FinFunction(
                sets[shape.dom(m)], sets[shape.cod(m)], mapping
            )
        except (TypeError, ValueError):
            raise DanglingToken(("function is not a mapping", m)) from None
    for m in shape.mor_tokens:
        if shape.is_identity(m) and m not in functions:
            a = shape.dom(m)
            functions[m] = FinFunction(
                sets[a], sets[a], {e: e for e in sets[a]}
            )
    return SetDiagram(shape, sets, functions).check()


def set_diagram_to_json(x):
    return {
        "format": "fibrelab/1",
        "shape": x.shape.to_dict(),
        "sets": {a: list(x.sets[a]) for a in x.shape.objects},
        "functions": {
            m: dict(x.functions[m].mapping)
            for m in x.shape.mor_tokens
            if not x.shape.is_identity(m)
        },
    }


def load_cat_diagram(raw):
    _require_mappings(raw, ("base", "fibres"), "not a cat-diagram description")
    specs = raw.get("transitions", {})
    if not isinstance(specs, dict):
        raise DanglingToken(("not a cat-diagram description", ["transitions"]))
    base = load_category(raw["base"])
    objects = set(base.objects)
    for a in raw["fibres"]:
        if a not in objects:
            raise DanglingToken(("fibre for undeclared object", a))
    fibres = {a: load_category(v) for a, v in raw["fibres"].items()}
    for a in base.objects:
        if a not in fibres:
            raise NonFunctorialDiagram(("missing fibre", a))
    variance = raw.get("variance", "covariant")
    transitions = {}
    for u, spec in specs.items():
        if not base.has_mor(u):
            raise DanglingToken(("transition for undeclared morphism", u))
        if spec == "id":
            transitions[u] = "id"
            continue
        keys = ("on_objects", "on_morphisms")
        _require_mappings(spec, keys, "not a transition description", u)
        _require_hashable(spec["on_objects"].values())
        _require_hashable(spec["on_morphisms"].values())
        src, tgt = (
            (base.dom(u), base.cod(u))
            if variance == "covariant"
            else (base.cod(u), base.dom(u))
        )
        transitions[u] = FinFunctor(
            fibres[src], fibres[tgt], spec["on_objects"], spec["on_morphisms"]
        )
    return CatDiagram(base, fibres, transitions, variance).check()


def cat_diagram_to_json(phi):
    out = {
        "format": "fibrelab/1",
        "kind": "cat-diagram",
        "base": phi.shape.to_dict(),
        "variance": phi.variance,
        "fibres": {a: phi.fibres[a].to_dict() for a in phi.shape.objects},
        "transitions": {},
    }
    for u in phi.shape.mor_tokens:
        if phi.shape.is_identity(u):
            continue
        t = phi.transition(u)
        out["transitions"][u] = {
            "on_objects": dict(t.on_objects),
            "on_morphisms": dict(t.on_morphisms),
        }
    return out


# -- output ------------------------------------------------------------------

def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refusal(check_name, exc):
    """The report of an engine error that ends a check."""
    witness = {"error": str(exc)}
    if isinstance(exc, BoundExceeded):
        witness["trace"] = exc.trace
    return VerificationReport(check_name, exc.status, witness)


def _named(args, report):
    """``report`` under the name of the command that made it."""
    report.check_name = args.command
    return report


# -- commands ----------------------------------------------------------------

def _cmd_validate(args):
    c = load_category(_load(args.path))
    return passed("validate", objects=len(c.objects), morphisms=len(c.morphisms))


def _cmd_opposite(args):
    return opposite(load_category(_load(args.path))).to_dict()


def _cmd_product(args):
    a = load_category(_load(args.left))
    b = load_category(_load(args.right))
    return product(a, b).to_dict()


def _cmd_comma(args):
    f = load_functor(_load(args.left))
    g = load_functor(_load(args.right))
    return comma(f, g).category.to_dict()


def _cmd_colimit_set(args):
    x = load_set_diagram(_load(args.path))
    if args.dual:
        name, cone = "limit-set", limit_set(x)
    else:
        name, cone = "colimit-set", colimit_set(x)
    witness = {
        "apex": list(cone.apex),
        "legs": {a: dict(cone.legs[a].mapping) for a in x.shape.objects},
    }
    return passed(name, witness=witness, size=len(cone.apex))


def _cmd_kan(args):
    f = load_functor(_load(args.functor))
    x = load_set_diagram(_load(args.diagram))
    result = ran(f, x) if args.dual else lan(f, x)
    return passed(
        "ran" if args.dual else "lan",
        witness={"extension": set_diagram_to_json(result.extension)},
        sizes=sum(len(s) for s in result.extension.sets.values()),
    )


def _cmd_colimit_cat(args):
    res = colimit_cat(load_cat_diagram(_load(args.phi)), bound=args.bound)
    return passed(
        "colimit-cat",
        witness={"colimit": res.colimit.to_dict()},
        **res.saturation_stats,
    )


def _cmd_grothendieck(args):
    phi = load_cat_diagram(_load(args.phi))
    return (groth_contra(phi) if args.dual else groth_co(phi)).total.to_dict()


def _guitart_round_trip(phi, t):
    """Whether check∘hat is the identity on the set diagram ``t`` over ∫Φ."""
    back = guitart_check(guitart_hat(phi, t))
    if back.sets != t.sets or any(
        back.functions[m] != t.functions[m] for m in t.shape.mor_tokens
    ):
        return failed("guitart", {"round_trip": "check∘hat ≠ id"})
    return passed("guitart", members=len(phi.shape.objects))


def _cmd_guitart(args):
    phi = load_cat_diagram(_load(args.phi))
    return _guitart_round_trip(phi, load_set_diagram(_load(args.t)))


def _cmd_check_fibration(args):
    direction = args.command[len("check-"):]
    data = search_cleavage(load_functor(_load(args.path)), direction)
    if data is None:
        return failed(args.command, {"missing_liftings": True})
    verify = (
        verify_split_fibration
        if direction == "fibration"
        else verify_split_cofibration
    )
    return _named(args, verify(data)[0])


def _cmd_bifibration(args):
    """``bifibration``, and ``lift-limit``, which also lifts the limit of
    ``--f`` along the bifibration."""
    phi = load_cat_diagram(_load(args.phi))
    f = load_functor(_load(args.f)) if args.command == "lift-limit" else None
    gr = groth_co(phi)
    delta = cleavage_from_groth(gr)
    theta = search_cleavage(gr.projection, "fibration")
    if theta is None:
        return failed(args.command, {"no_cartesian_liftings": True})
    if f is None:
        witness = bifibration_check(theta, delta)
        return passed(
            "bifibration", units=len(witness.units), counits=len(witness.counits)
        )
    cone, report = lift_limit(theta, delta, f)
    report.witness = report.witness or {"apex": cone.apex}
    return _named(args, report)


def _cmd_free_cofibration(args):
    free = free_cofibration(load_functor(_load(args.path)))
    report, _ = verify_split_cofibration(cleavage_from_groth(free.result))
    report.stats["total_objects"] = len(free.result.total.objects)
    report.stats["total_morphisms"] = len(free.result.total.morphisms)
    return _named(args, report)


def _cmd_strictify(args):
    x = load_functor(_load(args.x))
    y = load_functor(_load(args.y))
    dx = DiagObject(x.source, x, "cat")
    dy = DiagObject(y.source, y, "cat")
    return _named(args, strict_hom_bijection(dx, dy))


def _cmd_comparison_q(args):
    phi = load_cat_diagram(_load(args.phi))
    q = comparison_q(phi, colimit_cat(phi, bound=args.bound))
    return _named(args, certify_cofinal_quotient(q))


def _cmd_check_cdf(args):
    phi = load_cat_diagram(_load(args.phi))
    x = load_set_diagram(_load(args.x))
    check = check_limit_recomposition if args.dual else check_cdf
    return _named(args, check(phi, x, args.bound))


def _cmd_check_tfcf(args):
    phi = load_cat_diagram(_load(args.phi))
    t = load_set_diagram(_load(args.t))
    check = check_twisted_limit if args.dual else check_tfcf
    return _named(args, check(phi, t))


def _cmd_check_fubini(args):
    d_cat = load_category(_load(args.d))
    e_cat = load_category(_load(args.e))
    t = load_set_diagram(_load(args.t))
    return _named(args, check_fubini(d_cat, e_cat, t))


def _cmd_check_general_cdf(args):
    phi = load_cat_diagram(_load(args.phi))
    t = load_set_diagram(_load(args.t))
    if args.dual:
        fam = backward_hat(phi, t)
        return _named(args, check_general_limit_recomposition(fam, args.bound))
    return _named(args, check_general_cdf(guitart_hat(phi, t), args.bound))


# -- corpus ------------------------------------------------------------------

def _corpus_cat_diagram(name, phi, args, results):
    if phi.variance != "covariant":
        return
    gr = groth_co(phi)
    rep = reconstitute(cleavage_from_groth(gr))
    results.append(("grothendieck-round-trip", name, rep))
    t = random_set_diagram(random.Random(args.seed), gr.total)
    results.append(("guitart-round-trip", name, _guitart_round_trip(phi, t)))
    try:
        res = colimit_cat(phi, bound=args.bound)
    except BoundExceeded as exc:
        results.append(("colimit-cat", name, _refusal("colimit-cat", exc)))
        return
    results.append(("colimit-cat", name, passed("colimit-cat")))
    q = comparison_q(phi, res)
    results.append(("comparison-q", name, certify_cofinal_quotient(q)))
    rng = random.Random(args.seed)
    for _ in range(max(args.cases, 1)):
        x = random_set_diagram(rng, res.colimit)
        results.append(("check-cdf", name, check_cdf(phi, x, kres=res)))


def _cmd_corpus(args):
    started = time.time()
    results = []
    if args.dir:
        if not os.path.isdir(args.dir):
            return invalid_input("corpus", {"missing_directory": args.dir})
        for fname in sorted(os.listdir(args.dir)):
            if not fname.endswith(".json"):
                continue
            name = os.path.splitext(fname)[0]
            kind = "category"
            # a file that does not load, or whose checks stop with an
            # error, is one row of the matrix; the corpus goes on
            try:
                raw = _load(os.path.join(args.dir, fname))
                if isinstance(raw, dict) and raw.get("kind") == "cat-diagram":
                    kind = "cat-diagram"
                    _corpus_cat_diagram(
                        name, load_cat_diagram(raw), args, results
                    )
                else:
                    load_category(raw)
                    results.append(("validate", name, passed("validate")))
            except FibrelabError as exc:
                results.append((kind, name, _refusal(kind, exc)))
    else:
        for name in fixtures.all_categories():
            results.append(("validate", name, passed("validate")))
        for name, phi in fixtures.all_cat_diagrams().items():
            _corpus_cat_diagram(name, phi, args, results)
    matrix = {}
    for check, name, rep in results:
        matrix.setdefault(check, {})[name] = rep.status
    n_fail = sum(
        1 for _, _, r in results if r.status not in ("pass", "resource_exceeded")
    )
    summary = {
        "format": "fibrelab/1",
        "check_name": "corpus",
        "status": "pass" if n_fail == 0 else "fail",
        "matrix": matrix,
        "counts": {
            "total": len(results),
            "fail": n_fail,
            "resource_exceeded": sum(
                1 for _, _, r in results if r.status == "resource_exceeded"
            ),
        },
        "seed": args.seed,
    }
    if not args.no_timing:
        summary["elapsed_s"] = round(time.time() - started, 3)
    _emit(args, summary)
    return 0 if n_fail == 0 else 1


def _mapping(raw, key):
    value = raw.get(key)
    return value if isinstance(value, dict) else {}


def _cmd_explain(args):
    try:
        raw = _load(args.path)
    except UnreadableInput:
        raw = None
    if not (
        isinstance(raw, dict)
        and "check_name" in raw
        and isinstance(raw.get("status"), str)
    ):
        sys.stdout.write("not a readable report file\n")
        return 2
    status = raw["status"]
    lines = ["%s: %s" % (raw["check_name"], status.upper())]
    stats = _mapping(raw, "stats")
    if stats:
        lines.append(
            "  sizes: "
            + ", ".join("%s=%s" % (k, v) for k, v in sorted(stats.items()))
        )
    if raw.get("seed") is not None:
        lines.append("  seed: %s" % raw["seed"])
    witness = _mapping(raw, "witness")
    if status == "resource_exceeded" and "trace" in witness:
        if "error" in witness:
            lines.append("  refused: %s" % witness["error"])
        lines.append("  growth trace: %s" % witness["trace"])
    elif witness and status != "pass":
        lines.append("  witness:")
        for k, v in sorted(witness.items()):
            lines.append("    %s: %s" % (k, v))
    matrix = _mapping(raw, "matrix")
    for check in sorted(matrix):
        row = _mapping(matrix, check)
        lines.append(
            "  %s: %s"
            % (check, ", ".join("%s=%s" % kv for kv in sorted(row.items())))
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# -- argument parsing --------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="fibrelab",
        description="Finite-category-theory engine: verify decomposition "
        "formulas, fibration structure, and Kan extensions on explicit data.",
    )
    parser.add_argument("--output", help="write the report/result to a file")
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="omit elapsed time for byte-identical reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="validate a category file")
    p.add_argument("path")
    p = add("opposite", _cmd_opposite, help="opposite category")
    p.add_argument("path")
    p = add("product", _cmd_product, help="product of two categories")
    p.add_argument("left")
    p.add_argument("right")
    p = add("comma", _cmd_comma, help="comma category of two functors")
    p.add_argument("left")
    p.add_argument("right")
    p = add("colimit-set", _cmd_colimit_set, help="colimit of a set diagram")
    p.add_argument("path")
    p.add_argument("--dual", action="store_true", help="compute the limit")
    p = add("limit-set", _cmd_colimit_set, help="limit of a set diagram")
    p.add_argument("path")
    p.set_defaults(dual=True)
    p = add("kan", _cmd_kan, help="pointwise Kan extension")
    p.add_argument("--functor", required=True)
    p.add_argument("--diagram", required=True)
    p.add_argument("--dual", action="store_true", help="right Kan extension")
    p = add("colimit-cat", _cmd_colimit_cat, help="colimit of categories")
    p.add_argument("--phi", required=True)
    p.add_argument("--bound", type=int, default=10000)
    p = add("grothendieck", _cmd_grothendieck, help="total category of a diagram")
    p.add_argument("--phi", required=True)
    p.add_argument("--dual", action="store_true", help="contravariant variant")
    p = add("guitart", _cmd_guitart, help="hat/check round trip")
    p.add_argument("--phi", required=True)
    p.add_argument("--t", required=True)
    p = add(
        "check-fibration",
        _cmd_check_fibration,
        help="search a cleavage and verify the split laws",
    )
    p.add_argument("path")
    p = add(
        "check-cofibration",
        _cmd_check_fibration,
        help="search a cocleavage and verify the split laws",
    )
    p.add_argument("path")
    p = add("bifibration", _cmd_bifibration, help="units, counits, hom bijections")
    p.add_argument("--phi", required=True)
    p = add("lift-limit", _cmd_bifibration, help="lift a base limit along a bifibration")
    p.add_argument("--phi", required=True)
    p.add_argument("--f", required=True)
    p = add("free-cofibration", _cmd_free_cofibration, help="free split cofibration")
    p.add_argument("path")
    p = add("strictify", _cmd_strictify, help="strictification hom bijection")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p = add("comparison-q", _cmd_comparison_q, help="cofinal quotient certificate")
    p.add_argument("--phi", required=True)
    p.add_argument("--bound", type=int, default=10000)
    p = add("check-cdf", _cmd_check_cdf, help="colimit decomposition formula")
    p.add_argument("--phi", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--bound", type=int, default=10000)
    p.add_argument("--dual", action="store_true", help="limit recomposition")
    p = add("check-tfcf", _cmd_check_tfcf, help="twisted Fubini formula")
    p.add_argument("--phi", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--dual", action="store_true", help="twisted limit variant")
    p = add("check-fubini", _cmd_check_fubini, help="Fubini over a product shape")
    p.add_argument("--d", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--t", required=True)
    p = add(
        "check-general-cdf",
        _cmd_check_general_cdf,
        help="general decomposition for a family built from a total diagram",
    )
    p.add_argument("--phi", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--bound", type=int, default=10000)
    p.add_argument("--dual", action="store_true", help="general recomposition")
    p = add("corpus", _cmd_corpus, help="run the standard checks over fixtures")
    p.add_argument("dir", nargs="?", help="fixture directory (default: built-in)")
    p.add_argument("--bound", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=3)
    p = add("explain", _cmd_explain, help="render a report file as text")
    p.add_argument("path")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        if getattr(args, "bound", 0) < 0:
            raise FibrelabError(("negative --bound", args.bound))
        result = args.fn(args)
    except FibrelabError as exc:
        result = _refusal(args.command, exc)
    if isinstance(result, int):  # the command wrote its own output
        return result
    if isinstance(result, dict):  # a JSON document, printed as it is
        _emit(args, result)
        return 0
    if not args.no_timing:
        result.stats["elapsed_s"] = round(time.time() - started, 3)
    _emit(args, result.to_dict(include_timing=not args.no_timing))
    return EXIT_CODES[result.status]


if __name__ == "__main__":
    sys.exit(main())
