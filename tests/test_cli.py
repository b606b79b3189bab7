import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

from fibrelab import cli, errors, fibrations, finset, fixtures, formulas, grothendieck
from fibrelab.cli import cat_diagram_to_json, main, set_diagram_to_json
from fibrelab.errors import BoundExceeded
from test_golden_reports import COLLISIONS, collision_inputs

FIXDIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_category(tmp_path, name):
    raw = fixtures.all_categories()[name].to_dict()
    p = tmp_path / ("%s.json" % name.lower())
    p.write_text(json.dumps(raw))
    return str(p)


def write_diagram(tmp_path, name):
    raw = cat_diagram_to_json(fixtures.all_cat_diagrams()[name])
    p = tmp_path / ("%s.json" % name)
    p.write_text(json.dumps(raw))
    return str(p)


def test_validate_pass(tmp_path, capsys):
    code, out = run(capsys, "validate", write_category(tmp_path, "S3"))
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert rep["format"] == "fibrelab/1"
    assert rep["stats"]["morphisms"] == 6


def test_validate_broken_table(tmp_path, capsys):
    raw = fixtures.all_categories()["Z2"].to_dict()
    raw["composition"] = [["s", "s", "ghost"]]  # composite token undeclared
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    code, out = run(capsys, "validate", str(p))
    assert code == 2
    assert json.loads(out)["status"] == "invalid_input"


def test_missing_file_exit_code(capsys):
    code, out = run(capsys, "validate", "/nonexistent/cat.json")
    assert code == 2


def test_opposite_writes_category(tmp_path, capsys):
    out_path = tmp_path / "op.json"
    code, _ = run(
        capsys,
        "--output",
        str(out_path),
        "opposite",
        write_category(tmp_path, "SPAN"),
    )
    assert code == 0
    raw = json.loads(out_path.read_text())
    assert sorted(raw["objects"]) == ["l", "r", "s"]
    # le: s -> l became l -> s
    m = {d["id"]: d for d in raw["morphisms"]}
    assert m["le"]["dom"] == "l" and m["le"]["cod"] == "s"


def test_colimit_cat_resource_exit(tmp_path, capsys):
    code, out = run(
        capsys,
        "--no-timing",
        "colimit-cat",
        "--phi",
        write_diagram(tmp_path, "loop-coeq"),
        "--bound",
        "100",
    )
    assert code == 3
    rep = json.loads(out)
    assert rep["status"] == "resource_exceeded"
    assert rep["witness"]["trace"]


def test_colimit_cat_pass(tmp_path, capsys):
    code, out = run(
        capsys, "colimit-cat", "--phi", write_diagram(tmp_path, "span-push3")
    )
    assert code == 0
    rep = json.loads(out)
    assert len(rep["witness"]["colimit"]["objects"]) == 3


def test_reports_are_deterministic(tmp_path, capsys):
    phi = write_diagram(tmp_path, "span-push3")
    _, out1 = run(capsys, "--no-timing", "colimit-cat", "--phi", phi)
    _, out2 = run(capsys, "--no-timing", "colimit-cat", "--phi", phi)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["colimit-cat", "--phi", os.path.join(FIXDIR, "loop-coeq.json"), "--bound", "300"],
        ["colimit-cat", "--phi", os.path.join(FIXDIR, "span-push3.json")],
    ],
)
def test_reports_do_not_depend_on_the_hash_seed(argv):
    src = os.path.join(os.path.dirname(FIXDIR), "src")
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fibrelab.cli", "--no-timing", *argv],
            env=env,
            capture_output=True,
            check=False,
        )
        assert proc.returncode in (0, 3), proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


def _run_cli_process(argv, optimize):
    """Run the CLI in a fresh interpreter, with ``python -O`` if asked."""
    src = os.path.join(os.path.dirname(FIXDIR), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "fibrelab.cli", "--no-timing", *argv],
        env=env,
        capture_output=True,
        check=False,
    )


@pytest.mark.parametrize("optimize", [False, True])
def test_duplicate_set_element_is_refused_with_and_without_asserts(
    tmp_path, optimize
):
    one = fixtures.all_categories()["ONE"].to_dict()
    p = tmp_path / "dup.json"
    p.write_text(json.dumps({"shape": one, "sets": {"*": ["1", "1"]}, "functions": {}}))
    proc = _run_cli_process(["colimit-set", str(p)], optimize)
    assert proc.returncode == 2, proc.stdout
    rep = json.loads(proc.stdout)
    assert rep["status"] == "invalid_input"
    assert rep["witness"]["error"] == str(("duplicate set element", "1"))


@pytest.mark.parametrize("optimize", [False, True])
def test_unknown_variance_is_refused_with_and_without_asserts(tmp_path, optimize):
    raw = json.loads(open(os.path.join(FIXDIR, "span-push3.json")).read())
    raw["variance"] = "sideways"
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(raw))
    proc = _run_cli_process(["colimit-cat", "--phi", str(p)], optimize)
    assert proc.returncode == 2, proc.stdout
    rep = json.loads(proc.stdout)
    assert rep["witness"]["error"] == str(("unknown variance", "sideways"))


def test_corpus_on_shipped_fixtures(capsys):
    assert os.path.isdir(FIXDIR)
    code, out = run(capsys, "--no-timing", "corpus", FIXDIR, "--cases", "1")
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "pass"
    assert summary["counts"]["fail"] == 0
    assert "span-push3" in summary["matrix"]["check-cdf"]


def test_corpus_empty_directory(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    code, out = run(capsys, "--no-timing", "corpus", str(d))
    assert code == 0
    summary = json.loads(out)
    assert summary["counts"]["total"] == 0
    assert summary["matrix"] == {}


def test_corpus_flags_mutated_fixture(tmp_path, capsys):
    d = tmp_path / "mutated"
    d.mkdir()
    raw = json.loads(
        open(os.path.join(FIXDIR, "span-push3.json")).read()
    )
    # corrupt one transition so the diagram no longer validates
    u = next(iter(raw["transitions"]))
    k = next(iter(raw["transitions"][u]["on_objects"]))
    objs = raw["fibres"][raw["base"]["morphisms"][0]["cod"]]["objects"]
    raw["transitions"][u]["on_objects"][k] = "no-such-object"
    (d / "span-push3.json").write_text(json.dumps(raw))
    code, out = run(capsys, "--no-timing", "corpus", str(d))
    assert code == 1
    summary = json.loads(out)
    assert summary["status"] == "fail"
    statuses = [s for row in summary["matrix"].values() for s in row.values()]
    assert "invalid_input" in statuses or "fail" in statuses
    assert any(
        "span-push3" in row for row in summary["matrix"].values()
    )


def test_check_cdf_via_cli(tmp_path, capsys):
    from fibrelab.catcolim import colimit_cat
    import random

    from fibrelab.randgen import random_set_diagram

    phi_path = write_diagram(tmp_path, "span-push3")
    phi = fixtures.all_cat_diagrams()["span-push3"]
    res = colimit_cat(phi)
    x = random_set_diagram(random.Random(0), res.colimit)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps(set_diagram_to_json(x)))
    code, out = run(
        capsys, "--no-timing", "check-cdf", "--phi", phi_path, "--x", str(x_path)
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert rep["stats"]["lhs"] == rep["stats"]["rhs"]


def write_set_diagram(tmp_path, name, x):
    p = tmp_path / name
    p.write_text(json.dumps(set_diagram_to_json(x)))
    return str(p)


def formula_inputs(tmp_path):
    """Seeded inputs for the formula subcommands: a covariant and a
    contravariant diagram over SPAN, set diagrams on their totals and on the
    glued shape, and a set diagram on TWO × SPAN."""
    import random

    from fibrelab.catcolim import colimit_cat
    from fibrelab.fincat import product
    from fibrelab.grothendieck import CatDiagram, groth_co, groth_contra
    from fibrelab.randgen import random_set_diagram

    cats = fixtures.all_categories()
    phi = fixtures.all_cat_diagrams()["span-push3"]
    span = cats["SPAN"]
    contra = CatDiagram(
        span, {d: cats["TWO"] for d in span.objects}, {}, "contravariant"
    ).check()
    contra_path = tmp_path / "contra.json"
    contra_path.write_text(json.dumps(cat_diagram_to_json(contra)))

    def diagram_on(name, shape):
        return write_set_diagram(
            tmp_path, name, random_set_diagram(random.Random(20), shape, 3)
        )

    return {
        "PHI": write_diagram(tmp_path, "span-push3"),
        "CONTRA": str(contra_path),
        "T": diagram_on("t.json", groth_co(phi).total),
        "CT": diagram_on("ct.json", groth_contra(contra).total),
        "X": diagram_on("x.json", colimit_cat(phi).colimit),
        "D": write_category(tmp_path, "TWO"),
        "E": write_category(tmp_path, "SPAN"),
        "FT": diagram_on("ft.json", product(cats["TWO"], span)),
    }


def pass_report(name, **stats):
    lines = ['{', '  "check_name": "%s",' % name, '  "format": "fibrelab/1",']
    lines.append('  "stats": {')
    lines.append(",\n".join('    "%s": %d' % kv for kv in stats.items()))
    lines += ["  },", '  "status": "pass",', '  "witness": null', "}", ""]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "argv, report",
    [
        (
            ["check-tfcf", "--phi", "PHI", "--t", "T"],
            pass_report("check-tfcf", lhs=3, rhs=3),
        ),
        (
            ["check-tfcf", "--dual", "--phi", "CONTRA", "--t", "CT"],
            pass_report("check-tfcf", lhs=3, rhs=3),
        ),
        (
            ["check-fubini", "--d", "D", "--e", "E", "--t", "FT"],
            pass_report("check-fubini", lhs=3, rhs_de=3, rhs_ed=3),
        ),
        (
            ["check-cdf", "--dual", "--phi", "PHI", "--x", "X"],
            pass_report("check-cdf", lhs=3, rhs=3),
        ),
        (
            ["check-general-cdf", "--dual", "--phi", "CONTRA", "--t", "CT"],
            pass_report("check-general-cdf", lhs=3, rhs=3),
        ),
    ],
)
def test_formula_reports_are_pinned(tmp_path, capsys, argv, report):
    paths = formula_inputs(tmp_path)
    code, out = run(capsys, "--no-timing", *[paths.get(a, a) for a in argv])
    assert code == 0
    assert out == report


def bar_token_diagram():
    """chain(2) fibres over TWO whose first object is named "a|b"."""
    from fibrelab.fincat import category
    from fibrelab.grothendieck import CatDiagram
    from fibrelab.randgen import chain

    base = category(
        ["a|b", "c"],
        [("ia", "a|b", "a|b"), ("ic", "c", "c"), ("u", "a|b", "c")],
        {"a|b": "ia", "c": "ic"},
        {("ia", "ia"): "ia", ("ic", "ic"): "ic", ("u", "ia"): "u", ("ic", "u"): "u"},
    )
    return CatDiagram(base, {d: chain(2) for d in base.objects}, {}).check()


def test_check_tfcf_with_a_bar_in_a_base_token(tmp_path, capsys):
    import random

    from fibrelab.grothendieck import groth_co
    from fibrelab.randgen import random_set_diagram

    phi = bar_token_diagram()
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(cat_diagram_to_json(phi)))
    t = random_set_diagram(random.Random(0), groth_co(phi).total)
    t_path = write_set_diagram(tmp_path, "t.json", t)
    for command in ("check-tfcf", "check-general-cdf"):
        code, out = run(
            capsys, "--no-timing", command, "--phi", str(phi_path), "--t", t_path
        )
        assert code == 0
        assert json.loads(out)["status"] == "pass"


def test_comparison_q_with_a_bar_in_a_base_token(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    phi_path = d / "bar.json"
    phi_path.write_text(json.dumps(cat_diagram_to_json(bar_token_diagram())))
    code, out = run(capsys, "--no-timing", "comparison-q", "--phi", str(phi_path))
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out = run(capsys, "--no-timing", "corpus", str(d))
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "pass"
    assert summary["matrix"]["comparison-q"] == {"bar": "pass"}
    assert summary["matrix"]["grothendieck-round-trip"] == {"bar": "pass"}


def test_explain_renders_pass_and_resource(tmp_path, capsys):
    phi = write_diagram(tmp_path, "loop-coeq")
    out_path = tmp_path / "rep.json"
    run(
        capsys,
        "--output",
        str(out_path),
        "--no-timing",
        "colimit-cat",
        "--phi",
        phi,
        "--bound",
        "50",
    )
    code, out = run(capsys, "explain", str(out_path))
    assert code == 0
    assert "RESOURCE_EXCEEDED" in out
    assert "growth trace" in out


def test_explain_shows_why_a_run_was_refused(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _ = run(
        capsys,
        "--output",
        str(out_path),
        "--no-timing",
        "colimit-cat",
        "--phi",
        os.path.join(FIXDIR, "loop-coeq.json"),
    )
    assert code == 3
    error = json.loads(out_path.read_text())["witness"]["error"]
    code, out = run(capsys, "explain", str(out_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "  refused: " + error
    assert lines[2].startswith("  growth trace: ")
    assert "u v^k w" in lines[1] and "v = [q:a]" in lines[1]


def test_explain_rejects_garbage(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("not json at all")
    code, _ = run(capsys, "explain", str(p))
    assert code == 2


@pytest.mark.parametrize(
    "change",
    [
        lambda raw: raw.update(composition=[["s"]]),
        lambda raw: raw.update(composition={"s s s": "e"}),
        lambda raw: raw["morphisms"].append({"id": "t"}),
        lambda raw: raw["morphisms"].append(["t", "*"]),
    ],
    ids=["short entry", "long key", "record without ends", "short record"],
)
def test_malformed_category_records_are_invalid_input(tmp_path, capsys, change):
    raw = fixtures.all_categories()["Z2"].to_dict()
    change(raw)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    for command in ("validate", "opposite"):
        code, out = run(capsys, "--no-timing", command, str(p))
        assert code == 2
        assert "malformed description" in json.loads(out)["witness"]["error"]


def test_validate_rejects_unhashable_token(tmp_path, capsys):
    p = tmp_path / "unhashable.json"
    p.write_text(json.dumps({"objects": [["x"]], "morphisms": [], "identities": {}}))
    code, out = run(capsys, "validate", str(p))
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "invalid_input"
    assert "unhashable" in rep["witness"]["error"]


@pytest.mark.parametrize(
    "key, token, value",
    [
        ("functions", "zz", {"x": "y"}),  # morphism the shape lacks
        ("sets", "q", ["z"]),  # object the shape lacks
        ("sets", "1", None),  # object of the shape left without a set
    ],
)
def test_colimit_set_rejects_undeclared_tokens(tmp_path, capsys, key, token, value):
    raw = {
        "shape": fixtures.all_categories()["TWO"].to_dict(),
        "sets": {"0": ["x"], "1": ["y"]},
        "functions": {"a": {"x": "y"}},
    }
    if value is None:
        del raw[key][token]
    else:
        raw[key][token] = value
    p = tmp_path / "x.json"
    p.write_text(json.dumps(raw))
    code, out = run(capsys, "--no-timing", "colimit-set", str(p))
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "invalid_input"
    assert token in rep["witness"]["error"]


@pytest.mark.parametrize(
    "command",
    [
        ["colimit-cat", "--phi", "PHI"],
        ["comparison-q", "--phi", "PHI"],
        ["check-cdf", "--phi", "PHI", "--x", "PHI"],
        ["check-general-cdf", "--phi", "PHI", "--t", "PHI"],
        ["corpus"],
    ],
)
def test_negative_bound_is_invalid_input(tmp_path, capsys, command):
    phi = write_diagram(tmp_path, "span-push3")
    argv = [phi if a == "PHI" else a for a in command]
    code, out = run(capsys, "--no-timing", *argv, "--bound", "-1")
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "invalid_input"
    assert "bound" in rep["witness"]["error"]


@pytest.mark.parametrize(
    "raw",
    [
        None,  # a cat-diagram file in place of a functor
        {"on_objects": 5, "on_morphisms": {}},
        [1, 2],
    ],
)
def test_free_cofibration_rejects_a_non_functor(tmp_path, capsys, raw):
    if raw is None:
        path = os.path.join(FIXDIR, "semidirect.json")
    else:
        if isinstance(raw, dict):
            one = fixtures.all_categories()["ONE"].to_dict()
            raw.update(source=one, target=one)
        p = tmp_path / "f.json"
        p.write_text(json.dumps(raw))
        path = str(p)
    code, out = run(capsys, "--no-timing", "free-cofibration", path)
    assert code == 2
    assert json.loads(out)["status"] == "invalid_input"


@pytest.mark.parametrize(
    "on_objects, on_morphisms",
    [
        ({"*": ["x"]}, {"1": "1"}),  # a list as an object image
        ({"*": "*"}, {"1": {"a": 1}}),  # a mapping as a morphism image
    ],
)
def test_free_cofibration_rejects_unhashable_image_tokens(
    tmp_path, capsys, on_objects, on_morphisms
):
    one = fixtures.all_categories()["ONE"].to_dict()
    raw = {
        "source": one,
        "target": one,
        "on_objects": on_objects,
        "on_morphisms": on_morphisms,
    }
    p = tmp_path / "f.json"
    p.write_text(json.dumps(raw))
    code, out = run(capsys, "--no-timing", "free-cofibration", str(p))
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "invalid_input"
    assert "unhashable" in rep["witness"]["error"]


def test_free_cofibration_refuses_colliding_slice_tokens(tmp_path, capsys):
    # the slice fibre morphisms (g, u@v, v) and (g@u, v, v) are both "g@u@v>v"
    from test_derived_oracle import _slice_morphism_collision

    p = _slice_morphism_collision()
    raw = {
        "source": p.source.to_dict(),
        "target": p.target.to_dict(),
        "on_objects": dict(p.on_objects),
        "on_morphisms": dict(p.on_morphisms),
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(raw))
    code, out = run(capsys, "--no-timing", "free-cofibration", str(path))
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "invalid_input"
    assert "duplicate morphism token" in json.dumps(rep["witness"])


def test_grothendieck_dual_refuses_colliding_morphism_tokens(tmp_path, capsys):
    # over a: the morphisms (a, b|c, d) and (a, b, c|d) are both "a|b|c|d"
    def discrete(objects):
        return {
            "objects": objects,
            "morphisms": [{"id": "i" + y, "dom": y, "cod": y} for y in objects],
            "identities": {y: "i" + y for y in objects},
        }

    fibre0 = {
        "objects": ["p", "q"],
        "morphisms": [
            {"id": "ip", "dom": "p", "cod": "p"},
            {"id": "iq", "dom": "q", "cod": "q"},
            {"id": "b|c", "dom": "p", "cod": "q"},
            {"id": "b", "dom": "p", "cod": "q"},
        ],
        "identities": {"p": "ip", "q": "iq"},
    }
    raw = {
        "base": fixtures.all_categories()["TWO"].to_dict(),
        "variance": "contravariant",
        "fibres": {"0": fibre0, "1": discrete(["d", "c|d"])},
        "transitions": {
            "a": {
                "on_objects": {"d": "q", "c|d": "q"},
                "on_morphisms": {"id": "iq", "ic|d": "iq"},
            }
        },
    }
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(raw))
    code, out = run(capsys, "--no-timing", "grothendieck", "--dual", "--phi", str(p))
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "invalid_input"
    assert "duplicate morphism token" in json.dumps(rep["witness"])


@pytest.mark.parametrize(
    "change, witness",
    [
        (lambda raw: raw["sets"].update({"0": [["x"]]}), "unhashable token"),
        (lambda raw: raw.pop("sets"), "not a set-diagram description"),
        (lambda raw: raw.pop("functions"), "not a set-diagram description"),
        (lambda raw: raw["sets"].update({"0": 7}), "set is not a list"),
        (lambda raw: raw["functions"].update({"a": 7}), "function is not a mapping"),
    ],
    ids=["list element", "no sets", "no functions", "number set", "number function"],
)
def test_colimit_set_rejects_malformed_set_diagrams(tmp_path, capsys, change, witness):
    raw = {
        "shape": fixtures.all_categories()["TWO"].to_dict(),
        "sets": {"0": ["x"], "1": ["y"]},
        "functions": {"a": {"x": "y"}},
    }
    change(raw)
    p = tmp_path / "x.json"
    p.write_text(json.dumps(raw))
    for argv in (["colimit-set", str(p)], ["colimit-set", "--dual", str(p)]):
        code, out = run(capsys, "--no-timing", *argv)
        assert code == 2
        rep = json.loads(out)
        assert rep["status"] == "invalid_input"
        assert witness in rep["witness"]["error"]


# -- refusals and malformed cat-diagram files ----------------------------------

def _discrete(names):
    return {
        "objects": list(names),
        "morphisms": [{"id": "1" + a, "dom": a, "cod": a} for a in names],
        "identities": {a: "1" + a for a in names},
        "composition": [],
    }


def test_search_refusal_reaching_main_exits_3(tmp_path, capsys, monkeypatch):
    # Ran along abc -> ONE is the product of the three sets: 11**3 nodes
    monkeypatch.setattr(finset, "SEARCH_NODE_CAP", 1000)
    functor = {
        "source": _discrete("abc"),
        "target": _discrete("*"),
        "on_objects": {a: "*" for a in "abc"},
        "on_morphisms": {"1" + a: "1*" for a in "abc"},
    }
    diagram = {
        "shape": _discrete("abc"),
        "sets": {a: [str(i) for i in range(11)] for a in "abc"},
        "functions": {},
    }
    f, x = tmp_path / "f.json", tmp_path / "x.json"
    f.write_text(json.dumps(functor))
    x.write_text(json.dumps(diagram))
    code, out = run(
        capsys, "--no-timing", "kan", "--dual", "--functor", str(f), "--diagram", str(x)
    )
    assert code == 3
    rep = json.loads(out)
    assert rep["status"] == "resource_exceeded"
    assert rep["witness"] == {"error": str(("search nodes", 1001, 1000))}


def test_bound_refusal_reaching_main_exits_3_with_its_trace(
    tmp_path, capsys, monkeypatch
):
    def refuse(phi):
        raise BoundExceeded(("words", 11, 10), trace=[[1, 2], [2, 11]])

    monkeypatch.setattr(grothendieck, "groth_co", refuse)
    phi = write_diagram(tmp_path, "span-push3")
    code, out = run(capsys, "--no-timing", "grothendieck", "--phi", phi)
    assert code == 3
    rep = json.loads(out)
    assert rep["status"] == "resource_exceeded"
    assert rep["witness"] == {
        "error": str(("words", 11, 10)), "trace": [[1, 2], [2, 11]]
    }


@pytest.mark.parametrize("command", ["colimit-cat", "grothendieck"])
def test_a_category_file_is_no_cat_diagram(command):
    proc = _run_cli_process([command, "--phi", os.path.join(FIXDIR, "s3.json")], False)
    assert proc.returncode == 2, proc.stderr
    assert b"Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["status"] == "invalid_input"
    assert rep["witness"]["error"] == str(
        ("not a cat-diagram description", ["base", "fibres"])
    )


def test_a_refusal_made_in_main_honours_output(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    s3 = os.path.join(FIXDIR, "s3.json")
    code, out = run(capsys, "--output", str(out_path), "colimit-cat", "--phi", s3)
    assert code == 2
    assert out == ""
    assert json.loads(out_path.read_text())["status"] == "invalid_input"


@pytest.mark.parametrize(
    "change, witness",
    [
        (lambda raw: raw.update(fibres=["l"]), "not a cat-diagram description"),
        (lambda raw: raw.update(transitions=["le"]), "not a cat-diagram description"),
        (lambda raw: raw["fibres"].pop("l"), "missing fibre"),
        (lambda raw: raw["transitions"].update(ghost="id"), "undeclared morphism"),
        (lambda raw: raw["transitions"].update(le="F"), "not a transition description"),
        (lambda raw: raw["transitions"]["le"].pop("on_objects"),
         "not a transition description"),
    ],
    ids=["list fibres", "list transitions", "no fibre", "ghost transition",
         "string transition", "no object map"],
)
def test_malformed_cat_diagrams_are_invalid_input(tmp_path, capsys, change, witness):
    raw = json.loads(open(os.path.join(FIXDIR, "span-push3.json")).read())
    change(raw)
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(raw))
    for command in ("colimit-cat", "grothendieck"):
        code, out = run(capsys, "--no-timing", command, "--phi", str(p))
        assert code == 2
        rep = json.loads(out)
        assert rep["status"] == "invalid_input"
        assert witness in rep["witness"]["error"]


def test_an_identity_for_an_undeclared_object_is_invalid_input(tmp_path, capsys):
    raw = json.loads(open(os.path.join(FIXDIR, "two.json")).read())
    raw["identities"]["ghost"] = "id0"
    p = tmp_path / "two.json"
    p.write_text(json.dumps(raw))
    for command in ("validate", "opposite"):
        code, out = run(capsys, "--no-timing", command, str(p))
        assert code == 2
        rep = json.loads(out)
        assert rep["status"] == "invalid_input"
        assert rep["witness"]["error"] == str(("identity for undeclared object", "ghost"))


def test_a_fibre_for_an_undeclared_object_is_invalid_input(tmp_path, capsys):
    raw = json.loads(open(os.path.join(FIXDIR, "span-push3.json")).read())
    raw["fibres"]["ghost"] = raw["fibres"]["l"]
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(raw))
    for command in ("grothendieck", "colimit-cat"):
        code, out = run(capsys, "--no-timing", command, "--phi", str(p))
        assert code == 2
        rep = json.loads(out)
        assert rep["status"] == "invalid_input"
        assert rep["witness"]["error"] == str(("fibre for undeclared object", "ghost"))


@pytest.mark.parametrize("variance", ["covariant", "contravariant"])
def test_colliding_total_object_tokens_are_invalid_input(tmp_path, variance):
    # over the discrete base {a, a|b}, the fibre objects b|c over a and c
    # over a|b both give the total object token a|b|c
    from fibrelab.fincat import category
    from fibrelab.grothendieck import CatDiagram

    def discrete(objects):
        ids = {o: "id_" + o for o in objects}
        return category(objects, [(ids[o], o, o) for o in objects], ids, {})

    fibres = {"a": discrete(["b|c"]), "a|b": discrete(["c"])}
    phi = CatDiagram(discrete(["a", "a|b"]), fibres, {}, variance)
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(cat_diagram_to_json(phi)))
    dual = ["--dual"] if variance == "contravariant" else []
    proc = _run_cli_process(["grothendieck", *dual, "--phi", str(p)], False)
    assert proc.returncode == 2, proc.stderr
    assert b"Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["status"] == "invalid_input"
    assert rep["witness"]["error"] == str(
        ("duplicate object token", ("a|b|c", "a|b|c"))
    )


@pytest.mark.parametrize(
    "command, error", COLLISIONS, ids=[command[0] for command, _ in COLLISIONS]
)
def test_colliding_class_and_family_tokens_are_refused(tmp_path, command, error):
    # a colimit-cat object, a colimit-set element and a ran family that
    # would each have merged two things into one token
    for name, raw in collision_inputs().items():
        (tmp_path / name).write_text(json.dumps(raw))
    argv = [a if a.startswith("--") or a in ("colimit-cat", "colimit-set", "kan")
            else str(tmp_path / (a + ".json")) for a in command]
    proc = _run_cli_process(argv, False)
    assert proc.returncode == 2, proc.stdout
    assert b"Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["status"] == "invalid_input"
    assert rep["witness"]["error"] == str(error)


# -- bifibration and lift-limit: failures, input errors and refusals ----------


def _halving_two(tmp_path):
    """A TWO-based halving bifibration with chain(3) fibres, and its total."""
    from fibrelab.grothendieck import groth_co
    from test_golden_reports import halving_bifibration

    phi = halving_bifibration("TWO", 3)
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(cat_diagram_to_json(phi)))
    return str(p), groth_co(phi).total


def _write_functor(tmp_path, name, f):
    from test_golden_reports import functor_to_json

    p = tmp_path / name
    p.write_text(json.dumps(functor_to_json(f)))
    return str(p)


def test_lift_limit_of_a_functor_into_another_category_is_invalid_input(
    tmp_path, capsys
):
    from fibrelab.fincat import constant_functor

    phi, _ = _halving_two(tmp_path)
    cats = fixtures.all_categories()
    f = _write_functor(tmp_path, "f.json", constant_functor(cats["ONE"], cats["S3"], "*"))
    code, out = run(capsys, "--no-timing", "lift-limit", "--phi", phi, "--f", f)
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "invalid_input"
    assert rep["witness"] == {
        "error": str(("functor composition", "middle category differs"))
    }


def test_lift_limit_search_refusal_exits_3(tmp_path, capsys, monkeypatch):
    from fibrelab.fincat import constant_functor

    phi, total = _halving_two(tmp_path)
    one = fixtures.all_categories()["ONE"]
    f = _write_functor(tmp_path, "f.json", constant_functor(one, total, "0|c1"))
    # the first search is the one for the cones over P∘F
    monkeypatch.setattr(finset, "SEARCH_NODE_CAP", 0)
    code, out = run(capsys, "--no-timing", "lift-limit", "--phi", phi, "--f", f)
    assert code == 3
    rep = json.loads(out)
    assert rep["status"] == "resource_exceeded"
    assert rep["witness"] == {"error": str(("search nodes", 1, 0))}


@pytest.mark.parametrize(
    "error, code, status",
    [
        (errors.TriangleViolation(("a", "unit", "0|c0", [])), 1, "fail"),
        (errors.HomBijectionFailure(("a", "0|c0", "1|c0")), 1, "fail"),
        (errors.UnverifiedCleavage(("fibration", {})), 1, "fail"),
        (errors.ShapeMismatch(("cleavages over different P",)), 2, "invalid_input"),
        (errors.DanglingToken(("ghost",)), 2, "invalid_input"),
        (errors.ResourceExceeded(("search nodes", 2, 1)), 3, "resource_exceeded"),
        (errors.BoundExceeded(("words", 11, 10)), 3, "resource_exceeded"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_bifibration_exit_code_follows_the_error_kind(
    tmp_path, capsys, monkeypatch, error, code, status
):
    def raise_it(theta, delta):
        raise error

    monkeypatch.setattr(fibrations, "bifibration_check", raise_it)
    phi, _ = _halving_two(tmp_path)
    got, out = run(capsys, "--no-timing", "bifibration", "--phi", phi)
    assert got == code
    rep = json.loads(out)
    assert rep["status"] == status
    assert rep["witness"]["error"] == str(error)


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.NoBaseLimit(("no terminal cone over P∘F", 0)), 1),
        (errors.NoFibreLimit(("1",)), 1),
        (errors.TerminalityFailure(("projection mismatch",)), 1),
        (errors.ShapeMismatch(("functor composition", "middle category differs")), 2),
        (errors.ResourceExceeded(("search nodes", 2, 1)), 3),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_lift_limit_exit_code_follows_the_error_kind(
    tmp_path, capsys, monkeypatch, error, code
):
    from fibrelab.fincat import constant_functor

    def raise_it(theta, delta, f):
        raise error

    monkeypatch.setattr(fibrations, "lift_limit", raise_it)
    phi, total = _halving_two(tmp_path)
    one = fixtures.all_categories()["ONE"]
    f = _write_functor(tmp_path, "f.json", constant_functor(one, total, "0|c1"))
    got, out = run(capsys, "--no-timing", "lift-limit", "--phi", phi, "--f", f)
    assert got == code
    assert json.loads(out)["witness"]["error"] == str(error)


# -- unreadable input files and engine faults ---------------------------------


# subcommand -> its argument parser
SUBCOMMANDS = next(
    a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


def _with_every_file(command, path):
    """``command``'s argv with ``path`` for each of its input files."""
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if action.option_strings:
            if action.required:
                argv += [action.option_strings[0], path]
        elif action.nargs != "?":
            argv.append(path)
    return argv


def _unreadable(tmp_path, how):
    if how == "missing":
        return str(tmp_path / "missing.json")
    if how == "directory":
        (tmp_path / "dir.json").mkdir()
        return str(tmp_path / "dir.json")
    (tmp_path / "junk.json").write_text("not json at all")
    return str(tmp_path / "junk.json")


@pytest.mark.parametrize("how", ["missing", "directory", "not json"])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_an_unreadable_input_file_is_invalid_input(tmp_path, capsys, command, how):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = _unreadable(corpus, how)
    if command == "corpus":
        # a missing directory is refused; an unreadable file is one row
        argv = ["corpus", path if how == "missing" else str(corpus)]
    else:
        argv = _with_every_file(command, path)
    code, out = run(capsys, "--no-timing", *argv)
    if command == "explain":
        assert (code, out) == (2, "not a readable report file\n")
        return
    rep = json.loads(out)
    if command == "corpus" and how != "missing":
        assert code == 1
        name = os.path.splitext(os.path.basename(path))[0]
        assert rep["matrix"] == {"category": {name: "invalid_input"}}
        return
    assert code == 2
    assert rep["status"] == "invalid_input"
    assert rep["check_name"] == command
    assert rep["stats"] == {}


def test_an_unreadable_input_file_gives_no_traceback(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{bad")
    proc = _run_cli_process(["colimit-cat", "--phi", str(p)], False)
    assert proc.returncode == 2, proc.stderr
    assert b"Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["witness"]["error"].startswith("('unreadable input file'")


@pytest.mark.parametrize(
    "raw", [[1, 2], "report", {"check_name": "x", "status": 5}], ids=repr
)
def test_explain_refuses_json_that_is_no_report(tmp_path, capsys, raw):
    p = tmp_path / "report.json"
    p.write_text(json.dumps(raw))
    assert run(capsys, "explain", str(p)) == (2, "not a readable report file\n")


def test_explain_skips_parts_of_a_report_that_are_no_mappings(tmp_path, capsys):
    p = tmp_path / "report.json"
    raw = {"check_name": "x", "status": "fail", "stats": [1], "witness": [2]}
    p.write_text(json.dumps(dict(raw, matrix={"validate": 3, "guitart": {"a": "pass"}})))
    code, out = run(capsys, "explain", str(p))
    assert code == 0
    assert out == "x: FAIL\n  guitart: a=pass\n  validate: \n"


ENGINE_FAULTS = [
    errors.CertificateFailure(("joint-Kan mediator must be the identity", "k")),
    errors.MissingWitness(("failure without a witness", "check_cdf")),
]


@pytest.mark.parametrize("error", ENGINE_FAULTS, ids=lambda e: type(e).__name__)
def test_an_engine_fault_is_an_internal_error(tmp_path, capsys, monkeypatch, error):
    def fault(*args, **kwargs):
        raise error

    monkeypatch.setattr(formulas, "check_cdf", fault)
    paths = formula_inputs(tmp_path)
    out_path = tmp_path / "report.json"
    code, _ = run(
        capsys, "--no-timing", "--output", str(out_path),
        "check-cdf", "--phi", paths["PHI"], "--x", paths["X"],
    )
    assert code == 4
    rep = json.loads(out_path.read_text())
    assert rep["status"] == "internal_error"
    assert rep["witness"] == {"error": str(error)}
    code, out = run(capsys, "explain", str(out_path))
    assert code == 0
    assert out.splitlines() == [
        "check-cdf: INTERNAL_ERROR",
        "  witness:",
        "    error: " + str(error),
    ]


@pytest.mark.parametrize("error", ENGINE_FAULTS, ids=lambda e: type(e).__name__)
def test_corpus_rows_record_the_status_of_their_error(tmp_path, capsys, monkeypatch, error):
    def fault(*args, **kwargs):
        raise error

    monkeypatch.setattr(formulas, "check_cdf", fault)
    d = tmp_path / "corpus"
    d.mkdir()
    shutil.copy(os.path.join(FIXDIR, "span-push3.json"), str(d))
    code, out = run(capsys, "--no-timing", "corpus", str(d))
    assert code == 1
    summary = json.loads(out)
    assert summary["matrix"]["cat-diagram"] == {"span-push3": "internal_error"}
    assert summary["counts"]["fail"] == 1
    # without a directory the fault ends the corpus run in main
    code, out = run(capsys, "--no-timing", "corpus")
    assert code == 4
    assert json.loads(out)["status"] == "internal_error"
