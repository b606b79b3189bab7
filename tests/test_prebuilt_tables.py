"""Opposites and the fibres of a ∫Φ projection are built from tables the
engine already holds; the rebuilds they replaced are the oracles here.

- ``FinCategory.op`` swaps the dom and cod maps and the by-dom and by-cod
  indexes and reverses the hom keys, instead of running ``__init__`` on
  the swapped records.  Every table and index must equal that rebuild,
  dict order included, and ``c.op.op is c``.
- ``fibrations.fibres`` of a ∫Φ projection renames Φa through J_a, and
  that of a contravariant total's projection reads the opposites; both
  must equal the extraction from the total (``_extracted_fibres``),
  tokens, morphism order and composition-entry order included.
"""
import random

import pytest

from fibrelab import fibrations, fixtures
from fibrelab.fibrations import fibres, free_cofibration
from fibrelab.fincat import FinCategory, FinFunctor, product
from fibrelab.grothendieck import groth_co, groth_contra, opposed_fibres
from test_derived_oracle import (
    SMALL,
    fresh,
    random_category,
    random_diagram,
    random_functor,
)

CATS = fixtures.all_categories()
SEEDS = range(16)


def rebuilt_op(c):
    """The opposite through ``__init__``, as ``op`` built it before."""
    op = FinCategory(
        c.objects,
        [(t, cod, dom) for t, dom, cod in c.morphisms],
        c.identities,
        {(f, g): gf for (g, f), gf in c._composition.items()},
        name=(c.name + "^op") if c.name else "",
    )
    op._checked = c._checked
    op._generators = c._generators
    op._shares_generators = c._checked
    op._op = c
    return op


def tables(c):
    """Every attribute of c but its opposite, with mappings as item lists,
    so that order counts."""
    out = {}
    for name, value in vars(c).items():
        if name == "_op":
            continue
        if hasattr(value, "items"):
            value = list(value.items())
        out[name] = value
    return out


# what a check records, which a check of either side changes after ``op``
STATE = ("_checked", "_generators", "_shares_generators", "_factorization")


def assert_op_as_rebuilt(c):
    built_here = c._op is None
    op = c.op
    assert op.op is c
    got, want = tables(op), tables(rebuilt_op(c))
    if not built_here:
        for name in STATE:
            got.pop(name), want.pop(name)
    assert got == want


def categories(seed):
    """A fixture or random category and an unchecked copy, a product, ∫Φ
    totals of both variances, and the fibres of a projection."""
    rng = random.Random(seed)
    c, d = random_category(rng), random_category(rng)
    phi = random_diagram(rng)
    gr = groth_co(phi)
    return [
        c,
        fresh(c),
        product(c, d),
        gr.total,
        fresh(gr.total),
        groth_contra(opposed_fibres(phi)).total,
        *fibres(gr.projection).values(),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_op_equals_the_rebuild_in_every_table_and_index(seed):
    for c in categories(seed):
        assert_op_as_rebuilt(c)


@pytest.mark.parametrize("name", sorted(CATS))
def test_op_of_fixtures_before_and_after_the_check(name):
    c = fresh(CATS[name])
    assert_op_as_rebuilt(c)
    # a check after the opposite was built marks both, sharing generators
    c.check()
    assert c.op._checked and c.op.generators is c.generators
    d = fresh(CATS[name]).check()
    assert_op_as_rebuilt(d)
    assert d.op.generators == d.generators


def fibre_fields(cats):
    return [
        (
            a,
            c.objects,
            c.morphisms,
            list(c.identities.items()),
            list(c.composition.items()),
            c._checked,
            c.name,
        )
        for a, c in cats.items()
    ]


def projections(seed):
    """Covariant and contravariant ∫Φ projections, and the free
    cofibration's, on fresh totals."""
    rng = random.Random(seed)
    phi = random_diagram(rng)
    p = random_functor(rng, CATS[rng.choice(SMALL)], CATS[rng.choice(SMALL)])
    return [
        groth_co(phi).projection,
        groth_contra(opposed_fibres(phi)).projection,
        free_cofibration(p).result.projection,
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_handed_over_fibres_equal_extraction(seed, monkeypatch):
    extracted = [fibrations._extracted_fibres(p) for p in projections(seed)]

    def refuse(p):
        raise AssertionError("a ∫Φ projection's fibres were extracted")

    monkeypatch.setattr(fibrations, "_extracted_fibres", refuse)
    for p, want in zip(projections(seed), extracted):
        assert fibre_fields(fibres(p)) == fibre_fields(want)


def test_the_hand_off_is_lazy_and_other_functors_extract(monkeypatch):
    gr = groth_co(fixtures.all_cat_diagrams()["span-push3"])
    # groth_co builds no fibre until one is asked for
    assert gr.projection._fibres is None and gr.projection._fibre_source is not None
    calls = []
    real = fibrations._extracted_fibres
    monkeypatch.setattr(
        fibrations, "_extracted_fibres", lambda p: calls.append(p) or real(p)
    )
    handed = fibres(gr.projection)
    assert fibres(gr.projection) is handed
    assert calls == []
    # the same maps in a functor that no construction built are extracted
    p = gr.projection
    other = FinFunctor(p.source, p.target, p.on_objects, p.on_morphisms).check()
    assert fibre_fields(fibres(other)) == fibre_fields(handed)
    assert calls == [other]
