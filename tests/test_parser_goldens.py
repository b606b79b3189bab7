"""Golden help texts and usage errors of the argument parser.

``fibrelab --help``, ``fibrelab <command> --help`` for every subcommand,
and a set of usage errors must write the stored stdout and stderr, byte for
byte, and exit with the stored code.  Help is formatted for 80 columns.  The
tests also pin which parsers are built: a plain command line builds only
its command's parser; help, abbreviations and errors build the full one.

``python tests/test_parser_goldens.py`` writes the goldens from the current
parser into ``tests/golden/parser/``.
"""
import contextlib
import io
import json
import os
import sys

import pytest

from fibrelab import cli
from fibrelab.cli import main

PARSER_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "parser")
FIXDIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fixtures")

COMMANDS = (
    "validate", "opposite", "product", "comma", "colimit-set", "limit-set",
    "kan", "colimit-cat", "grothendieck", "guitart", "check-fibration",
    "check-cofibration", "bifibration", "lift-limit", "free-cofibration",
    "strictify", "comparison-q", "check-cdf", "check-tfcf", "check-fubini",
    "check-general-cdf", "corpus", "explain",
)

TWO = os.path.join(FIXDIR, "two.json")
SPAN_PUSH3 = os.path.join(FIXDIR, "span-push3.json")

# case name -> argv
CASES = {"help": ["--help"]}
CASES.update(("%s--help" % c, [c, "--help"]) for c in COMMANDS)
CASES.update({
    "unknown-command": ["frobnicate", TWO],
    "missing-phi": ["--no-timing", "colimit-cat"],
    "output-without-value": ["--output"],
    "abbreviated-no-timing": ["--no-t", "validate", TWO],
    "unrecognized-extra-argument": ["--no-timing", "validate", TWO, "extra"],
    "negative-bound": ["--no-timing", "colimit-cat", "--phi", SPAN_PUSH3, "--bound", "-1"],
})


def run_parser_case(argv):
    """stdout, stderr and exit code of ``main(argv)``, as a process has them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.mark.parametrize("name", sorted(CASES))
def test_parser_output_matches_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with open(os.path.join(PARSER_GOLDEN, name + ".json")) as fh:
        golden = json.load(fh)
    assert run_parser_case(CASES[name]) == golden


def _parsers_built(monkeypatch):
    """The ``command`` argument of every ``build_parser`` call from now on."""
    calls = []
    build = cli.build_parser

    def counted(command=None):
        calls.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", counted)
    return calls


@pytest.mark.parametrize(
    "name, built",
    [
        ("abbreviated-no-timing", [None]),
        ("unrecognized-extra-argument", ["validate", None]),
        ("validate--help", ["validate", None]),
        ("negative-bound", ["colimit-cat"]),
        ("help", [None]),
    ],
)
def test_only_a_plain_command_line_skips_the_full_parser(name, built, monkeypatch):
    calls = _parsers_built(monkeypatch)
    run_parser_case(CASES[name])
    assert calls == built


@pytest.mark.parametrize("prefix", [["--output", "OUT"], ["--output=OUT"]])
def test_output_before_the_command_takes_the_fast_path(prefix, tmp_path, monkeypatch):
    calls = _parsers_built(monkeypatch)
    out = str(tmp_path / "report.json")
    argv = [a.replace("OUT", out) for a in prefix] + ["--no-timing", "validate", TWO]
    assert main(argv) == 0
    with open(out) as fh:
        assert json.load(fh)["status"] == "pass"
    assert calls == ["validate"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.makedirs(PARSER_GOLDEN, exist_ok=True)
    for name, argv in CASES.items():
        with open(os.path.join(PARSER_GOLDEN, name + ".json"), "w") as fh:
            json.dump(run_parser_case(argv), fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.exit(0)
