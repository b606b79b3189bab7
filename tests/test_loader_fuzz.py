"""Fuzzing of every input loader through ``cli.main``.

Each loader reads a fixture-built JSON document that hypothesis mutates:
keys and list elements dropped, values retyped, lists and mappings swapped,
tokens made unhashable, reserved characters (``| . , ( ) @ ;``) put into
tokens and keys, and tokens renamed onto other tokens of the document.
Whatever the mutation, the command must end with an exit code in
{0, 1, 2, 3}: a malformed input is refused with a typed error, never by a
traceback, and never as an engine fault (exit 4).
"""
import copy
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.cli import cat_diagram_to_json, main, set_diagram_to_json
from fibrelab.fincat import FinFunctor
from fibrelab.randgen import random_set_diagram
from test_golden_reports import functor_to_json

RESERVED = "|.,()@;"
SCALARS = [0, 1.5, True, None, "", "x"]


def documents():
    """(command, document) per loader; the command reads the document."""
    cats = fixtures.all_categories()
    span, two = cats["SPAN"], cats["TWO"]
    to_two = FinFunctor(
        span,
        two,
        {"s": "0", "l": "1", "r": "1"},
        {"ids": "id0", "idl": "id1", "idr": "id1", "le": "a", "ri": "a"},
    )
    return {
        "category": ("validate", cats["PUSH3"].to_dict()),
        "functor": ("check-cofibration", functor_to_json(to_two)),
        "set-diagram": (
            "colimit-set",
            set_diagram_to_json(random_set_diagram(random.Random(5), span)),
        ),
        "cat-diagram": (
            "grothendieck",
            cat_diagram_to_json(fixtures.all_cat_diagrams()["span-push3"]),
        ),
    }


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k in doc:
            yield from _nodes(doc[k], path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _strings(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, dict):
        for k, v in doc.items():
            yield k
            yield from _strings(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _strings(v)


def _with_reserved(draw, s):
    s = str(s)
    at = draw(st.integers(0, len(s)))
    return s[:at] + draw(st.sampled_from(RESERVED)) + s[at:]


def mutate(draw, doc):
    """One mutation of ``doc`` at a node that ``draw`` picks."""
    path = draw(st.sampled_from(list(_nodes(doc))))
    parent, value = None, doc
    for key in path:
        parent, value = value, value[key]
    kind = draw(
        st.sampled_from(["drop", "retype", "swap", "unhashable", "reserved", "alias"])
    )
    if kind == "drop":
        if parent is None:
            return doc
        del parent[path[-1]]
        return doc
    if kind == "retype":
        new = draw(st.sampled_from(SCALARS))
    elif kind == "swap":
        if isinstance(value, list):
            new = {str(i): v for i, v in enumerate(value)}
        elif isinstance(value, dict):
            new = [[k, v] for k, v in value.items()]
        else:
            new = [value]
    elif kind == "unhashable":
        new = draw(st.sampled_from([[value], {"k": value}]))
    elif kind == "reserved":
        if isinstance(value, dict) and value:
            key = draw(st.sampled_from(sorted(value)))
            value[_with_reserved(draw, key)] = value.pop(key)
            return doc
        new = _with_reserved(draw, value)
    else:
        new = draw(st.sampled_from(sorted(set(_strings(doc))) or ["x"]))
    if parent is None:
        return new
    parent[path[-1]] = new
    return doc


DOCUMENTS = documents()


@pytest.mark.parametrize("loader", sorted(DOCUMENTS))
@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_mutated_input_never_crashes_a_loader(tmp_path, loader, data):
    command, doc = DOCUMENTS[loader]
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(data.draw, doc)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = ["--no-timing", "--output", str(tmp_path / "report.json"), command]
    if command == "grothendieck":
        argv.append("--phi")
    assert main(argv + [str(path)]) in (0, 1, 2, 3)
