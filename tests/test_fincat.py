import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.errors import (
    AssociativityViolation,
    DanglingToken,
    FibrelabError,
    IdentityViolation,
    MissingComposite,
)
from fibrelab.fincat import (
    FinCategory,
    FinFunctor,
    category,
    comma,
    compose_functor,
    identity_functor,
    is_final,
    opposite,
    product,
    slice_over,
    validate_category,
)


CATS = fixtures.all_categories()


def test_fixture_sizes():
    # object/morphism counts of every shipped fixture
    expected = {
        "ONE": (1, 1),
        "TWO": (2, 3),
        "SPAN": (3, 5),
        "PAIR": (2, 4),
        "PUSH3": (3, 6),
        "Z2": (1, 2),
        "Z3": (1, 3),
        "S3": (1, 6),
    }
    for name, (n_ob, n_mor) in expected.items():
        c = CATS[name]
        assert len(c.objects) == n_ob, name
        assert len(c.morphisms) == n_mor, name
        c.check()


def test_category_fills_identity_composites():
    c = category(
        ["x"], [("i", "x", "x"), ("e", "x", "x")], {"x": "i"}, {("e", "e"): "i"}
    )
    assert c.compose("e", "i") == "e"
    assert c.compose("i", "e") == "e"


def test_missing_composite_rejected():
    with pytest.raises(MissingComposite):
        category(
            ["x"],
            [("i", "x", "x"), ("e", "x", "x")],
            {"x": "i"},
            {},
        ).check()


def test_dangling_token_rejected():
    with pytest.raises((DanglingToken, FibrelabError)):
        category(["x"], [("f", "x", "y")], {"x": "idx"}, {}).check()


def test_associativity_enforced():
    # e*e = i but (e*e)*e recorded as e while e*(e*e) would need e*i = e; force
    # a genuinely non-associative table on three parallel endos
    with pytest.raises((AssociativityViolation, MissingComposite)):
        category(
            ["x"],
            [("i", "x", "x"), ("e", "x", "x"), ("f", "x", "x")],
            {"x": "i"},
            {
                ("e", "e"): "f",
                ("e", "f"): "i",
                ("f", "e"): "e",
                ("f", "f"): "f",
            },
        ).check()


def test_validate_category_roundtrip():
    for c in CATS.values():
        again = validate_category(c.to_dict())
        assert again == c


def test_s3_is_a_group():
    s3 = CATS["S3"]
    e = s3.id_of("*")
    for f in s3.mor_tokens:
        assert any(s3.compose(g, f) == e for g in s3.mor_tokens), f
        assert any(s3.compose(f, g) == e for g in s3.mor_tokens), f
    # non-abelian: transposition and 3-cycle do not commute
    assert s3.compose("p021", "p120") != s3.compose("p120", "p021")


def test_opposite_involution():
    for c in CATS.values():
        assert opposite(opposite(c)) == c


def test_opposite_swaps_endpoints():
    span = CATS["SPAN"]
    op = opposite(span)
    assert op.dom("le") == span.cod("le")
    assert op.cod("le") == span.dom("le")
    assert op.compose("le", "idl") == "le"


def test_product_sizes():
    p = product(CATS["TWO"], CATS["SPAN"])
    assert len(p.objects) == 6
    assert len(p.morphisms) == 15
    p.check()


def test_product_componentwise_composition():
    p = product(CATS["TWO"], CATS["PUSH3"])
    # (a, b)∘(id0, a) composes componentwise to (a, ba)
    lhs = p.compose("(a,b)", "(id0,a)")
    assert lhs == "(a,ba)"


def test_comma_identity_identity_is_arrow_like():
    span = CATS["SPAN"]
    cc = comma(identity_functor(span), identity_functor(span))
    # objects of Id↓Id are the morphisms; morphisms are commuting squares
    assert len(cc.category.objects) == len(span.morphisms)
    squares = 0
    for f in span.mor_tokens:
        for g in span.mor_tokens:
            for h in span.hom(span.dom(f), span.dom(g)):
                for k in span.hom(span.cod(f), span.cod(g)):
                    if span.compose(g, h) == span.compose(k, f):
                        squares += 1
    assert squares == 11
    assert len(cc.category.morphisms) == squares
    cc.category.check()


def test_slice_over_push3():
    sl = slice_over(CATS["PUSH3"], "2")
    assert len(sl.category.objects) == 3
    assert len(sl.category.morphisms) == 6


def test_functor_check_rejects_bad_image():
    two, span = CATS["TWO"], CATS["SPAN"]
    with pytest.raises(FibrelabError):
        FinFunctor(
            two, span, {"0": "l", "1": "s"}, {"id0": "idl", "id1": "ids", "a": "le"}
        ).check()


def test_functor_compose_associative_on_fixture_chain():
    two, span = CATS["TWO"], CATS["SPAN"]
    f = FinFunctor(
        two, span, {"0": "s", "1": "l"}, {"id0": "ids", "id1": "idl", "a": "le"}
    ).check()
    g = identity_functor(span)
    assert compose_functor(g, f).on_morphisms == f.on_morphisms


def test_is_final_terminal_object_inclusion():
    two = CATS["TWO"]
    one = CATS["ONE"]
    incl = FinFunctor(one, two, {"*": "1"}, {"1": "id1"}).check()
    assert is_final(incl)
    incl0 = FinFunctor(one, two, {"*": "0"}, {"1": "id0"}).check()
    assert not is_final(incl0)


@st.composite
def poset_pairs(draw):
    from fibrelab.randgen import random_poset

    import random as _random

    seed = draw(st.integers(0, 10**6))
    rng = _random.Random(seed)
    return random_poset(rng), random_poset(rng, prefix="q")


@given(poset_pairs())
@settings(max_examples=40, deadline=None)
def test_product_hom_counts_multiply(pair):
    a, b = pair
    p = product(a, b)
    p.check()
    assert len(p.morphisms) == len(a.morphisms) * len(b.morphisms)
    # hom sets multiply pointwise too
    for x1 in a.objects:
        for x2 in a.objects:
            for y1 in b.objects:
                for y2 in b.objects:
                    assert len(
                        p.hom("(%s,%s)" % (x1, y1), "(%s,%s)" % (x2, y2))
                    ) == len(a.hom(x1, x2)) * len(b.hom(y1, y2))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_posets_are_valid_categories(seed):
    import random as _random

    from fibrelab.randgen import _is_poset, random_poset

    c = random_poset(_random.Random(seed))
    c.check()
    assert _is_poset(c)
    assert opposite(opposite(c)) == c


# -- the brute-force core, kept as the oracle for the indexed one ----------


def oracle_hom(c, a, b):
    return [t for t, d, e in c.morphisms if d == a and e == b]


def oracle_composable_pairs(c):
    for g in c.mor_tokens:
        for f in c.mor_tokens:
            if c.cod(f) == c.dom(g):
                yield g, f


def oracle_check(c):
    """Validation by scanning every morphism pair and triple."""
    objset = set(c.objects)
    if len(objset) != len(c.objects):
        raise DanglingToken(("duplicate object token", c.objects))
    morset = set(c.mor_tokens)
    if len(morset) != len(c.morphisms):
        raise DanglingToken(("duplicate morphism token", c.mor_tokens))
    for t, d, e in c.morphisms:
        if d not in objset or e not in objset:
            raise DanglingToken(("morphism endpoints undeclared", t, d, e))
    for a in c.objects:
        i = c.identities.get(a)
        if i is None or i not in morset:
            raise DanglingToken(("missing identity", a))
        if c.dom(i) != a or c.cod(i) != a:
            raise IdentityViolation(("identity endpoints", a, i))
    for (g, f), gf in c.composition.items():
        if g not in morset or f not in morset or gf not in morset:
            raise DanglingToken(("composition entry", g, f, gf))
        if c.cod(f) != c.dom(g):
            raise DanglingToken(("entry for non-composable pair", g, f))
        if c.dom(gf) != c.dom(f) or c.cod(gf) != c.cod(g):
            raise IdentityViolation(("dom/cod of composite", g, f, gf))
    for g, f in oracle_composable_pairs(c):
        if (g, f) not in c.composition:
            raise MissingComposite((g, f))
    for f in c.mor_tokens:
        if c.compose(c.id_of(c.cod(f)), f) != f:
            raise IdentityViolation(("left identity", f))
        if c.compose(f, c.id_of(c.dom(f))) != f:
            raise IdentityViolation(("right identity", f))
    for h in c.mor_tokens:
        for g in c.mor_tokens:
            if c.cod(g) != c.dom(h):
                continue
            for f in c.mor_tokens:
                if c.cod(f) != c.dom(g):
                    continue
                if c.compose(h, c.compose(g, f)) != c.compose(c.compose(h, g), f):
                    raise AssociativityViolation((h, g, f))
    return c


def _random_category(rng):
    """A valid category from randgen or the fixtures, products included so
    that hom-sets with several morphisms occur."""
    from fibrelab.grothendieck import groth_co
    from fibrelab.randgen import random_cat_diagram, random_poset

    kind = rng.randrange(4)
    if kind == 0:
        return random_poset(rng)
    if kind == 1:
        return product(CATS[rng.choice(sorted(CATS))], random_poset(rng, 3, "q"))
    if kind == 2:
        return product(CATS[rng.choice(sorted(CATS))], CATS[rng.choice(sorted(CATS))])
    return groth_co(random_cat_diagram(rng, 3)).total


def _corrupt(rng, c):
    """The tables of ``c`` with at most one composition entry damaged."""
    table = dict(c.composition)
    key = rng.choice(list(table))
    kind = rng.randrange(5)
    if kind == 1:  # another composite with the right endpoints
        parallel = [
            (g, f)
            for g, f in table
            if len(c.hom(c.dom(f), c.cod(g))) > 1
            and not c.is_identity(g)
            and not c.is_identity(f)
        ]
        key = rng.choice(parallel or [key])
        hom = c.hom(c.dom(key[1]), c.cod(key[0]))
        table[key] = rng.choice([m for m in hom if m != table[key]] or hom)
    elif kind == 2:  # any morphism at all
        table[key] = rng.choice(c.mor_tokens)
    elif kind == 3:
        del table[key]
    elif kind == 4:  # an entry for a pair that does not compose
        g, f = rng.choice(c.mor_tokens), rng.choice(c.mor_tokens)
        if c.cod(f) != c.dom(g):
            table[(g, f)] = g
    return FinCategory(c.objects, c.morphisms, c.identities, table)


def _outcome(check, c):
    try:
        check(c)
    except FibrelabError as exc:
        return type(exc), exc.args
    return None


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_indexed_core_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    c = _corrupt(rng, _random_category(rng))
    # a fresh instance per check, since check() remembers a pass
    fresh = FinCategory(c.objects, c.morphisms, c.identities, c.composition)
    assert _outcome(FinCategory.check, c) == _outcome(oracle_check, fresh)
    assert list(c.composable_pairs()) == list(oracle_composable_pairs(c))
    for a in c.objects:
        assert list(c.out_of(a)) == [t for t, d, _ in c.morphisms if d == a]
        assert list(c.into(a)) == [t for t, _, e in c.morphisms if e == a]
        for b in c.objects:
            assert list(c.hom(a, b)) == oracle_hom(c, a, b)


def test_check_memo_and_frozen_tables():
    s3 = CATS["S3"]
    assert s3.check() is s3
    with pytest.raises(TypeError):
        s3.composition[("p021", "p021")] = "p021"
    with pytest.raises(TypeError):
        s3.identities["*"] = "p021"
    # a failed check records nothing: it fails again
    bad = FinCategory(["x"], [("i", "x", "x")], {"x": "i"}, {})
    for _ in range(2):
        with pytest.raises(MissingComposite):
            bad.check()
