"""What a glue command imports: a fresh ``python -m fibrelab.cli`` process
loads only the engine modules that the command it runs needs.

``colimit-cat`` and ``comparison-q`` need ``catcolim`` (and ``grothendieck``
for Q), not the fibration, formula, Diag or Kan layers, the random
generators or the fixtures.  ``check-cdf`` needs ``formulas`` and what it
imports, but not the fibration layer or the random generators.  The loaded
modules are read from ``-X importtime``.
"""
import json
import os
import random
import subprocess
import sys

import pytest

from fibrelab import fixtures
from fibrelab.catcolim import colimit_cat
from fibrelab.cli import set_diagram_to_json
from fibrelab.randgen import random_set_diagram

ROOT = os.path.dirname(os.path.dirname(__file__))
SPAN_PUSH3 = os.path.join(ROOT, "fixtures", "span-push3.json")

GLUE_ONLY = {"fibrations", "formulas", "diagcat", "kan", "randgen", "fixtures"}
BUDGETS = {
    "colimit-cat": GLUE_ONLY,
    "comparison-q": GLUE_ONLY,
    "check-cdf": {"fibrations", "randgen"},
}


def loaded_modules(argv):
    """The ``fibrelab`` modules that ``python -m fibrelab.cli argv`` imports."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fibrelab.cli", "--no-timing"] + argv,
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("fibrelab."):
                names.add(name[len("fibrelab."):])
    return names


@pytest.fixture(scope="module")
def x_path(tmp_path_factory):
    """A set diagram on colim Φ of the span-push3 fixture."""
    colimit = colimit_cat(fixtures.span_push3_diagram()).colimit
    path = tmp_path_factory.mktemp("budget") / "span-push3-x.json"
    x = random_set_diagram(random.Random(41), colimit)
    path.write_text(json.dumps(set_diagram_to_json(x)))
    return str(path)


@pytest.mark.parametrize("command", sorted(BUDGETS))
def test_a_glue_command_loads_only_the_engine_it_runs(command, x_path):
    argv = [command, "--phi", SPAN_PUSH3]
    if command == "check-cdf":
        argv += ["--x", x_path]
    loaded = loaded_modules(argv)
    assert "catcolim" in loaded  # the probe sees the engine
    assert not loaded & BUDGETS[command], sorted(loaded & BUDGETS[command])
