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

Start-up: a process pays only for the command it runs.  This module
imports the standard library, :mod:`fibrelab.errors` and
:mod:`fibrelab.report`; each command and loader imports the engine names it
uses inside its own body, and a test that replaces an engine function
replaces it in the engine module.  The commands are one table,
:data:`COMMANDS`.  argv that is top-level ``--no-timing``, ``--output X``
or ``--output=X``, then a command name, is parsed by a parser of that one
command; every other argv (help, unknown or abbreviated options, and any
error the one-command parser meets) goes to the parser of every command,
so help texts and usage errors are its own.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import (
    BoundExceeded,
    DanglingToken,
    FibrelabError,
    NonFunctorialDiagram,
    ShapeMismatch,
    UnreadableInput,
)
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
    from .fincat import validate_category

    return validate_category(raw)


def _require_mappings(raw, keys, *what):
    """Refuse ``raw`` unless it maps each of ``keys`` to a mapping."""
    fields = raw if isinstance(raw, dict) else {}
    bad = [k for k in keys if not isinstance(fields.get(k), dict)]
    if bad:
        raise DanglingToken(what + (bad,))


def load_functor(raw):
    from .fincat import FinFunctor, _require_hashable

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
    from .fincat import _require_hashable
    from .finset import FinFunction, FinSet, SetDiagram

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
    from .fincat import FinFunctor, _require_hashable
    from .grothendieck import CatDiagram

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
    from .fincat import opposite

    return opposite(load_category(_load(args.path))).to_dict()


def _cmd_product(args):
    from .fincat import product

    a = load_category(_load(args.left))
    b = load_category(_load(args.right))
    return product(a, b).to_dict()


def _cmd_comma(args):
    from .fincat import comma

    f = load_functor(_load(args.left))
    g = load_functor(_load(args.right))
    return comma(f, g).category.to_dict()


def _cmd_colimit_set(args):
    from .finset import colimit_set, limit_set

    x = load_set_diagram(_load(args.path))
    if args.command == "limit-set" or args.dual:
        name, cone = "limit-set", limit_set(x)
    else:
        name, cone = "colimit-set", colimit_set(x)
    witness = {
        "apex": list(cone.apex),
        "legs": {a: dict(cone.legs[a].mapping) for a in x.shape.objects},
    }
    return passed(name, witness=witness, size=len(cone.apex))


def _cmd_kan(args):
    from .kan import lan, ran

    f = load_functor(_load(args.functor))
    x = load_set_diagram(_load(args.diagram))
    result = ran(f, x) if args.dual else lan(f, x)
    return passed(
        "ran" if args.dual else "lan",
        witness={"extension": set_diagram_to_json(result.extension)},
        sizes=sum(len(s) for s in result.extension.sets.values()),
    )


def _cmd_colimit_cat(args):
    from .catcolim import colimit_cat

    res = colimit_cat(load_cat_diagram(_load(args.phi)), bound=args.bound)
    return passed(
        "colimit-cat",
        witness={"colimit": res.colimit.to_dict()},
        **res.saturation_stats,
    )


def _cmd_grothendieck(args):
    from .grothendieck import groth_co, groth_contra

    phi = load_cat_diagram(_load(args.phi))
    return (groth_contra(phi) if args.dual else groth_co(phi)).total.to_dict()


def _guitart_round_trip(phi, t):
    """Whether check∘hat is the identity on the set diagram ``t`` over ∫Φ."""
    from .grothendieck import guitart_check, guitart_hat

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
    from .fibrations import (
        search_cleavage,
        verify_split_cofibration,
        verify_split_fibration,
    )

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
    from .fibrations import (
        bifibration_check,
        cleavage_from_groth,
        lift_limit,
        search_cleavage,
    )
    from .grothendieck import groth_co

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
    from .fibrations import (
        cleavage_from_groth,
        free_cofibration,
        verify_split_cofibration,
    )

    free = free_cofibration(load_functor(_load(args.path)))
    report, _ = verify_split_cofibration(cleavage_from_groth(free.result))
    report.stats["total_objects"] = len(free.result.total.objects)
    report.stats["total_morphisms"] = len(free.result.total.morphisms)
    return _named(args, report)


def _cmd_strictify(args):
    from .diagcat import DiagObject, strict_hom_bijection

    x = load_functor(_load(args.x))
    y = load_functor(_load(args.y))
    dx = DiagObject(x.source, x, "cat")
    dy = DiagObject(y.source, y, "cat")
    return _named(args, strict_hom_bijection(dx, dy))


def _cmd_comparison_q(args):
    from .catcolim import certify_cofinal_quotient, colimit_cat, comparison_q

    phi = load_cat_diagram(_load(args.phi))
    q = comparison_q(phi, colimit_cat(phi, bound=args.bound))
    return _named(args, certify_cofinal_quotient(q))


def _cmd_check_cdf(args):
    from .formulas import check_cdf, check_limit_recomposition

    phi = load_cat_diagram(_load(args.phi))
    x = load_set_diagram(_load(args.x))
    check = check_limit_recomposition if args.dual else check_cdf
    return _named(args, check(phi, x, args.bound))


def _cmd_check_tfcf(args):
    from .formulas import check_tfcf, check_twisted_limit

    phi = load_cat_diagram(_load(args.phi))
    t = load_set_diagram(_load(args.t))
    check = check_twisted_limit if args.dual else check_tfcf
    return _named(args, check(phi, t))


def _cmd_check_fubini(args):
    from .formulas import check_fubini

    d_cat = load_category(_load(args.d))
    e_cat = load_category(_load(args.e))
    t = load_set_diagram(_load(args.t))
    return _named(args, check_fubini(d_cat, e_cat, t))


def _cmd_check_general_cdf(args):
    from .formulas import (
        backward_hat,
        check_general_cdf,
        check_general_limit_recomposition,
    )
    from .grothendieck import guitart_hat

    phi = load_cat_diagram(_load(args.phi))
    t = load_set_diagram(_load(args.t))
    if args.dual:
        fam = backward_hat(phi, t)
        return _named(args, check_general_limit_recomposition(fam, args.bound))
    return _named(args, check_general_cdf(guitart_hat(phi, t), args.bound))


# -- corpus ------------------------------------------------------------------

def _corpus_cat_diagram(name, phi, args, results):
    import random

    from .catcolim import certify_cofinal_quotient, colimit_cat, comparison_q
    from .fibrations import cleavage_from_groth, reconstitute
    from .formulas import check_cdf
    from .grothendieck import groth_co
    from .randgen import random_set_diagram

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
        from . import fixtures

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

def _arg(*flags, **options):
    return flags, options


_PATH = _arg("path")
_PHI = _arg("--phi", required=True)
_BOUND = _arg("--bound", type=int, default=10000)
_LEFT_RIGHT = [_arg("left"), _arg("right")]

# command -> (function, help, arguments), in the order that help lists them
COMMANDS = {
    "validate": (_cmd_validate, "validate a category file", [_PATH]),
    "opposite": (_cmd_opposite, "opposite category", [_PATH]),
    "product": (_cmd_product, "product of two categories", _LEFT_RIGHT),
    "comma": (_cmd_comma, "comma category of two functors", _LEFT_RIGHT),
    "colimit-set": (
        _cmd_colimit_set,
        "colimit of a set diagram",
        [_PATH, _arg("--dual", action="store_true", help="compute the limit")],
    ),
    "limit-set": (_cmd_colimit_set, "limit of a set diagram", [_PATH]),
    "kan": (
        _cmd_kan,
        "pointwise Kan extension",
        [
            _arg("--functor", required=True),
            _arg("--diagram", required=True),
            _arg("--dual", action="store_true", help="right Kan extension"),
        ],
    ),
    "colimit-cat": (_cmd_colimit_cat, "colimit of categories", [_PHI, _BOUND]),
    "grothendieck": (
        _cmd_grothendieck,
        "total category of a diagram",
        [_PHI, _arg("--dual", action="store_true", help="contravariant variant")],
    ),
    "guitart": (
        _cmd_guitart, "hat/check round trip", [_PHI, _arg("--t", required=True)]
    ),
    "check-fibration": (
        _cmd_check_fibration,
        "search a cleavage and verify the split laws",
        [_PATH],
    ),
    "check-cofibration": (
        _cmd_check_fibration,
        "search a cocleavage and verify the split laws",
        [_PATH],
    ),
    "bifibration": (
        _cmd_bifibration, "units, counits, hom bijections", [_PHI]
    ),
    "lift-limit": (
        _cmd_bifibration,
        "lift a base limit along a bifibration",
        [_PHI, _arg("--f", required=True)],
    ),
    "free-cofibration": (
        _cmd_free_cofibration, "free split cofibration", [_PATH]
    ),
    "strictify": (
        _cmd_strictify,
        "strictification hom bijection",
        [_arg("--x", required=True), _arg("--y", required=True)],
    ),
    "comparison-q": (
        _cmd_comparison_q, "cofinal quotient certificate", [_PHI, _BOUND]
    ),
    "check-cdf": (
        _cmd_check_cdf,
        "colimit decomposition formula",
        [
            _PHI,
            _arg("--x", required=True),
            _BOUND,
            _arg("--dual", action="store_true", help="limit recomposition"),
        ],
    ),
    "check-tfcf": (
        _cmd_check_tfcf,
        "twisted Fubini formula",
        [
            _PHI,
            _arg("--t", required=True),
            _arg("--dual", action="store_true", help="twisted limit variant"),
        ],
    ),
    "check-fubini": (
        _cmd_check_fubini,
        "Fubini over a product shape",
        [
            _arg("--d", required=True),
            _arg("--e", required=True),
            _arg("--t", required=True),
        ],
    ),
    "check-general-cdf": (
        _cmd_check_general_cdf,
        "general decomposition for a family built from a total diagram",
        [
            _PHI,
            _arg("--t", required=True),
            _BOUND,
            _arg("--dual", action="store_true", help="general recomposition"),
        ],
    ),
    "corpus": (
        _cmd_corpus,
        "run the standard checks over fixtures",
        [
            _arg("dir", nargs="?", help="fixture directory (default: built-in)"),
            _BOUND,
            _arg("--seed", type=int, default=0),
            _arg("--cases", type=int, default=3),
        ],
    ),
    "explain": (_cmd_explain, "render a report file as text", [_PATH]),
}


class _FastPathMiss(Exception):
    """argv that the one-command parser does not parse."""


class _OneCommandParser(argparse.ArgumentParser):
    """A parser that raises instead of writing a usage error."""

    def error(self, message):
        raise _FastPathMiss(message)


def build_parser(command=None):
    """The parser of every command, or with ``command`` the fast-path parser
    of that command alone: it has no ``--help`` and raises
    :class:`_FastPathMiss` where the full parser would print an error."""
    cls = argparse.ArgumentParser if command is None else _OneCommandParser
    parser = cls(
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
    for name in COMMANDS if command is None else (command,):
        fn, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text, add_help=command is None)
        p.set_defaults(fn=fn)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def parse_args(argv):
    """``argv`` parsed as the full parser parses it.  argv that is top-level
    ``--no-timing``, ``--output X`` or ``--output=X``, then a command name,
    is parsed by that command's parser alone; anything else, and anything
    that parser refuses, by the full parser."""
    i = 0
    while i < len(argv) and (
        argv[i] in ("--no-timing", "--output") or argv[i].startswith("--output=")
    ):
        i += 2 if argv[i] == "--output" else 1
    if i < len(argv) and argv[i] in COMMANDS:
        try:
            return build_parser(argv[i]).parse_args(argv)
        except _FastPathMiss:
            pass
    return build_parser().parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
