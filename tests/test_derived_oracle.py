"""Derived certificates against the full check.

``product``, ``comma`` (and ``slice_over`` and ``strict_category``, which
are commas), the Grothendieck totals of ``groth_co`` and ``groth_contra``,
``fibres`` and the slice fibres of ``free_cofibration`` build categories
that are categories by a theorem.  They record a pass after only the
checks of ``FinCategory.check()`` that are linear in the objects and
morphisms.  Each such category is compared here with a fresh, unchecked
copy of its tables on which the full ``check()`` runs: both pass, with the
same thinness, generating set and factorization, and the opposites agree
in state.  The projection and fibre injections of a total, which are
marked checked, pass a full functor check on fresh copies.

Inputs come from ``randgen`` and the fixtures, with non-thin fibres and
bases (S3, Z2, Z3, PAIR).  Token collisions are refused with the error
class and witness that the full check gave, and ``product`` refuses an
unchecked, broken factor, and ``groth_co`` and ``groth_contra`` an
unchecked, broken shape, with that input's own error.
"""
import random

import pytest

from fibrelab import fixtures
from fibrelab.diagcat import DiagObject, strict_category
from fibrelab.errors import AssociativityViolation, DanglingToken, IdentityViolation
from fibrelab.fibrations import enumerate_functors, fibres, free_cofibration
from fibrelab.fincat import (
    FinCategory,
    FinFunctor,
    category,
    comma,
    constant_functor,
    product,
    slice_over,
)
from fibrelab.grothendieck import CatDiagram, groth_co, groth_contra, opposed_fibres
from fibrelab.randgen import chain, random_cat_diagram, random_poset

CATS = fixtures.all_categories()
NON_THIN = ("S3", "Z2", "Z3", "PAIR")
SMALL = ("ONE", "TWO", "SPAN", "PAIR", "PUSH3", "Z2", "Z3", "S3")
SEEDS = range(12)


def fresh(c):
    """An unchecked copy of the tables of ``c``."""
    return FinCategory(c.objects, c.morphisms, c.identities, c.composition)


def assert_as_checked(c, op_first=False):
    """``c`` has passed, and a full check of its tables passes with the
    same thinness, generating set, factorization and opposite."""
    assert c._checked
    full = fresh(c).check()
    if op_first:
        lazy = c._generators is None
        # building the opposite does not choose the generating set
        c.op
        assert (c._generators is None) == lazy
    assert c._thin == full._thin
    assert c.generators == full.generators
    assert c.factorization == full.factorization
    op, full_op = c.op, full.op
    assert (op._checked, op._thin) == (full_op._checked, full_op._thin)
    assert (op._checked, op._thin) == (True, c._thin)
    assert op.generators is c.generators
    assert op.factorization == full_op.factorization


def assert_lazy(c):
    """No full check ran: it would have chosen the generating set."""
    assert c._checked and c._generators is None


def assert_functor(f):
    """A functor marked checked passes a full check on fresh copies."""
    assert f._checked
    FinFunctor(fresh(f.source), fresh(f.target), f.on_objects, f.on_morphisms).check()


def random_category(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return CATS[rng.choice(SMALL)]
    if kind == 1:
        return random_poset(rng, 3)
    return chain(rng.randint(1, 3))


def random_functor(rng, source, target):
    """A random functor source -> target; there is one, as every small
    input has a constant functor."""
    return rng.choice(enumerate_functors(source, target))


def random_diagram(rng):
    """A strict covariant diagram: poset fibres over a fixture base, one
    non-thin fibre with identity transitions over any small base, random
    functors between non-thin fibres over TWO, SPAN or PAIR (no composite
    of non-identities to respect), or a fixture diagram."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_cat_diagram(rng, 3)
    if kind == 1:
        base = CATS[rng.choice(NON_THIN + ("TWO", "SPAN"))]
        fibre = CATS[rng.choice(NON_THIN)]
        return CatDiagram(base, {d: fibre for d in base.objects}, {}, "covariant")
    if kind == 2:
        base = CATS[rng.choice(("TWO", "SPAN", "PAIR"))]
        parts = {d: CATS[rng.choice(NON_THIN + ("TWO",))] for d in base.objects}
        transitions = {
            u: random_functor(rng, parts[d], parts[e])
            for u, d, e in base.morphisms
            if not base.is_identity(u)
        }
        return CatDiagram(base, parts, transitions, "covariant")
    return rng.choice(list(fixtures.all_cat_diagrams().values()))


# -- constructions --------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_product(seed):
    rng = random.Random(seed)
    c, d = random_category(rng), random_category(rng)
    prod = product(c, d)
    assert_lazy(prod)
    assert_as_checked(prod, op_first=seed % 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_comma_and_slice(seed):
    rng = random.Random(seed)
    a, b, c = (CATS[rng.choice(SMALL)] for _ in range(3))
    cc = comma(random_functor(rng, a, c), random_functor(rng, b, c))
    assert_as_checked(cc.category, op_first=seed % 2)
    for f in (cc.left_projection, cc.right_projection):
        f.check()
    base = random_category(rng)
    assert_as_checked(slice_over(base, rng.choice(base.objects)).category)


@pytest.mark.parametrize("seed", SEEDS)
def test_strict_category(seed):
    rng = random.Random(seed)
    i, ambient = CATS[rng.choice(SMALL)], random_category(rng)
    x = random_functor(rng, i, ambient)
    assert_as_checked(strict_category(DiagObject(i, x, "cat")).category)


@pytest.mark.parametrize("seed", SEEDS)
def test_grothendieck_totals(seed):
    rng = random.Random(seed)
    phi = random_diagram(rng)
    gr = groth_co(phi)
    assert_lazy(gr.total)
    assert_as_checked(gr.total, op_first=seed % 2)
    for f in (gr.projection, *gr.injections.values()):
        assert_functor(f)
    contra = groth_contra(opposed_fibres(phi))
    assert_as_checked(contra.total)
    for f in (contra.projection, *contra.injections.values()):
        assert_functor(f)


@pytest.mark.parametrize("seed", SEEDS)
def test_fibres(seed):
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        p = groth_co(random_diagram(rng)).projection
    elif kind == 1:
        p = random_functor(rng, CATS[rng.choice(SMALL)], CATS[rng.choice(SMALL)])
    else:
        c, d = random_category(rng), random_category(rng)
        prod = product(c, d)
        p = FinFunctor(
            prod,
            c,
            {"(%s,%s)" % (a, b): a for a in c.objects for b in d.objects},
            {"(%s,%s)" % (f, g): f for f in c.mor_tokens for g in d.mor_tokens},
        )
    for fibre in fibres(p).values():
        assert_as_checked(fibre, op_first=seed % 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_free_cofibration(seed):
    rng = random.Random(seed)
    p = random_functor(rng, CATS[rng.choice(SMALL)], CATS[rng.choice(SMALL)])
    gr = free_cofibration(p).result
    for a in gr.diagram.shape.objects:
        assert_as_checked(gr.diagram.fibre(a))
    assert_as_checked(gr.total, op_first=seed % 2)
    for f in (gr.projection, *gr.injections.values()):
        assert_functor(f)


# -- collisions and unchecked inputs -----------------------------------------------


def discrete(objects, ids=None):
    ids = ids or ["id_" + o for o in objects]
    return category(
        objects, [(i, o, o) for o, i in zip(objects, ids)], dict(zip(objects, ids)), {}
    )


def _twisted_transition():
    """TWO -> Cat with p and p|q over 0 both sent to z: the morphisms
    (a, p, q|s) and (a, p|q, s) of the total have one token."""
    f0 = discrete(["p", "p|q"], ["ip", "ipq"])
    f1 = category(
        ["z", "w"],
        [("s", "z", "z"), ("iw", "w", "w"), ("q|s", "z", "w")],
        {"z": "s", "w": "iw"},
        {},
    )
    t = FinFunctor(f0, f1, {"p": "z", "p|q": "z"}, {"ip": "s", "ipq": "s"})
    return CatDiagram(CATS["TWO"], {"0": f0, "1": f1}, {"a": t})


def _slice_collision():
    """(x@y, z) and (x, y@z) over * give one slice fibre token x@y@z."""
    base = category(
        ["b", "*"],
        [("idb", "b", "b"), ("z", "*", "*"), ("y@z", "b", "*")],
        {"b": "idb", "*": "z"},
        {},
    )
    e = discrete(["x@y", "x"])
    return FinFunctor(e, base, {"x@y": "*", "x": "b"}, {"id_x@y": "z", "id_x": "idb"})


# name -> (the construction, the error class and witness of the full check)
COLLISIONS = {
    "product objects": (
        lambda: product(discrete(["a,b", "a"]), discrete(["c", "b,c"])),
        DanglingToken,
        ("duplicate object token", ("(a,b,c)", "(a,b,b,c)", "(a,c)", "(a,b,c)")),
    ),
    "product morphisms": (
        lambda: product(
            discrete(["o1", "o2"], ["a,b", "a"]), discrete(["p1", "p2"], ["c", "b,c"])
        ),
        DanglingToken,
        ("duplicate morphism token", ("(a,b,c)", "(a,b,b,c)", "(a,c)", "(a,b,c)")),
    ),
    "comma objects": (
        lambda: comma(
            constant_functor(discrete(["x,y", "x"]), CATS["ONE"], "*"),
            constant_functor(discrete(["z", "y,z"]), CATS["ONE"], "*"),
        ),
        DanglingToken,
        (
            "duplicate object token",
            ("(x,y,z,1)", "(x,y,y,z,1)", "(x,z,1)", "(x,y,z,1)"),
        ),
    ),
    "groth_co morphisms": (
        lambda: groth_co(_twisted_transition()),
        DanglingToken,
        (
            "duplicate morphism token",
            (
                "id0|p|ip",
                "id0|p|q|ipq",
                "id1|z|s",
                "id1|z|q|s",
                "id1|w|iw",
                "a|p|s",
                "a|p|q|s",
                "a|p|q|s",
                "a|p|q|q|s",
            ),
        ),
    ),
    "slice fibre objects": (
        lambda: free_cofibration(_slice_collision()),
        DanglingToken,
        ("duplicate object token", ("x@y@z", "x@y@z")),
    ),
    # two total objects with one token: refused before the composition
    # table is keyed by the token
    "groth_co objects": (
        lambda: groth_co(
            CatDiagram(
                discrete(["a", "a|b"]),
                {"a": discrete(["b|c"]), "a|b": discrete(["c"])},
                {},
            )
        ),
        DanglingToken,
        ("duplicate object token", ("a|b|c", "a|b|c")),
    ),
    "groth_contra morphisms": (
        lambda: groth_contra(
            CatDiagram(
                discrete(["a"], ["i"]),
                {"a": discrete(["p", "r|p"], ["q|r", "q"])},
                {},
                "contravariant",
            )
        ),
        DanglingToken,
        ("duplicate morphism token", ("i|q|r|p", "i|q|r|p")),
    ),
}


@pytest.mark.parametrize("name", sorted(COLLISIONS))
def test_token_collisions_are_refused_as_by_the_full_check(name):
    build, cls, witness = COLLISIONS[name]
    with pytest.raises(cls) as err:
        build()
    assert err.value.args == (witness,)


def test_product_refuses_an_unchecked_factor_with_its_own_error():
    c = chain(3)
    table = dict(c.composition)
    table[("c1<c2", "c0<c1")] = "c0<c1"
    witness = ("dom/cod of composite", "c1<c2", "c0<c1", "c0<c1")
    with pytest.raises(IdentityViolation) as err:
        FinCategory(c.objects, c.morphisms, c.identities, table).check()
    assert err.value.args == (witness,)
    for factors in ((0, 1), (1, 0)):
        broken = FinCategory(c.objects, c.morphisms, c.identities, table)
        pair = (broken, CATS["TWO"])
        with pytest.raises(IdentityViolation) as err:
            product(pair[factors[0]], pair[factors[1]])
        assert err.value.args == (witness,)


def _one_object_shape(table):
    """An unchecked shape on one object * with identity i and the
    non-identities of ``table``, composed by ``table`` besides i."""
    mors = sorted({m for pair in table for m in pair} - {"i"})
    composition = dict(table)
    for m in ["i"] + mors:
        composition.setdefault(("i", m), m)
        composition.setdefault((m, "i"), m)
    return FinCategory(
        ["*"], [(m, "*", "*") for m in ["i"] + mors], {"*": "i"}, composition
    )


BROKEN_SHAPES = {
    # i∘e = i breaks the left identity law
    "identity law": {("i", "e"): "i", ("e", "e"): "e"},
    # (a∘a)∘b = b∘b = a but a∘(a∘b) = a∘a = b
    "associativity": {
        ("a", "a"): "b",
        ("a", "b"): "a",
        ("b", "a"): "b",
        ("b", "b"): "a",
    },
}


@pytest.mark.parametrize("name", sorted(BROKEN_SHAPES))
@pytest.mark.parametrize("variance", ["covariant", "contravariant"])
def test_grothendieck_refuses_an_unchecked_shape_with_its_own_error(name, variance):
    """Strictness holds trivially for constant ONE fibres with identity
    transitions, so only the shape's own check refuses the diagram."""
    table = BROKEN_SHAPES[name]
    with pytest.raises(Exception) as full:
        _one_object_shape(table).check()
    assert isinstance(full.value, (IdentityViolation, AssociativityViolation))
    shape = _one_object_shape(table)
    phi = CatDiagram(shape, {"*": CATS["ONE"]}, {}, variance)
    build = groth_co if variance == "covariant" else groth_contra
    with pytest.raises(type(full.value)) as err:
        build(phi)
    assert err.value.args == full.value.args
    assert not phi._checked
