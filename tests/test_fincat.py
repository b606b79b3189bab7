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
from fibrelab.randgen import random_poset

# at module level: an import inside a @given body would run that module's
# own @given decorators there, which Hypothesis refuses as nested
from test_thin_oracle import oracle_is_poset


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
    c = random_poset(random.Random(seed))
    c.check()
    assert oracle_is_poset(c)
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


# -- the generator certificate of associativity ---------------------------------
#
# check() proves associativity by Light's test over a generating set and runs
# the full triple loop above only to name a witness.  The greedy choice of
# that set is re-derived here by brute force, the closure is recomputed to a
# fixpoint, and oracle_check stays the judge of every corrupted table.


def oracle_closure(c, gens):
    """The identities and ``gens``, closed under m -> a∘m for a in gens."""
    reached = {c.id_of(a) for a in c.objects} | set(gens)
    while True:
        new = {
            c.compose(a, m) for a in gens for m in reached if c.cod(m) == c.dom(a)
        } - reached
        if not new:
            return reached
        reached |= new


def oracle_generating_set(c):
    """Indecomposable non-identities in declaration order, then each
    morphism, in declaration order, that the closure so far misses."""
    ids = {c.id_of(a) for a in c.objects}
    composites = {
        c.compose(g, f)
        for g, f in oracle_composable_pairs(c)
        if g not in ids and f not in ids
    }
    gens = [m for m in c.mor_tokens if m not in ids and m not in composites]
    reached = oracle_closure(c, gens)
    for m in c.mor_tokens:
        if m not in reached:
            gens.append(m)
            reached = oracle_closure(c, gens)
    return tuple(gens)


def _fresh(c):
    return FinCategory(c.objects, c.morphisms, c.identities, c.composition)


def _assert_generating_set(c):
    fresh = _fresh(c)
    gens = fresh.generators
    assert gens == oracle_generating_set(c)
    assert oracle_closure(c, gens) == set(c.mor_tokens)
    # the opposite shares the set, and the set generates it too
    assert fresh.op.generators is gens
    assert oracle_closure(fresh.op, gens) == set(c.mor_tokens)
    return gens


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_generating_set_matches_the_oracle_and_generates(seed):
    _assert_generating_set(_random_category(random.Random(seed)))


@pytest.mark.parametrize("name", sorted(CATS))
def test_fixture_generating_sets(name):
    _assert_generating_set(CATS[name])


def test_generating_sets_beyond_indecomposables():
    from fibrelab.randgen import chain

    # a group has no indecomposables; S3 is not cyclic, so it needs two
    s3 = CATS["S3"]
    gens = _assert_generating_set(s3)
    assert len(gens) == 2 and gens[0] == next(
        m for m in s3.mor_tokens if not s3.is_identity(m)
    )
    # an idempotent is decomposable (e = e∘e) and generates only itself
    idem = category(["*"], [("1", "*", "*"), ("e", "*", "*")], {"*": "1"},
                    {("e", "e"): "e"})
    assert _assert_generating_set(idem) == ("e",)
    # a chain is generated by its successor arrows, a product of chains by
    # the arrows that move one coordinate one step
    c5 = chain(5)
    assert _assert_generating_set(c5) == tuple(
        t for t, d, e in c5.morphisms if int(e[1:]) == int(d[1:]) + 1
    )
    assert len(_assert_generating_set(product(chain(3), chain(4)))) == 2 * 4 + 3 * 3


def test_op_built_before_check_receives_the_generating_set():
    c = _fresh(CATS["S3"])
    op = c.op
    assert op._generators is None
    c.check()
    assert op.generators is c.generators
    # and checking the opposite first hands the set back
    d = _fresh(CATS["PUSH3"])
    assert d.op.generators is d.generators


def _parallel_composites(c):
    """Composable pairs of non-identities whose composite has a parallel."""
    return [
        (g, f)
        for g, f in c.composition
        if not c.is_identity(g)
        and not c.is_identity(f)
        and len(c.hom(c.dom(f), c.cod(g))) > 1
    ]


def _break_associativity(rng, c):
    """An unchecked copy of ``c`` with one composite of two non-identities
    moved to a parallel morphism: endpoints and identity laws still hold, so
    only associativity can fail."""
    table = dict(c.composition)
    g, f = rng.choice(_parallel_composites(c))
    table[(g, f)] = rng.choice(
        [m for m in c.hom(c.dom(f), c.cod(g)) if m != table[(g, f)]]
    )
    return FinCategory(c.objects, c.morphisms, c.identities, table)


def _with_parallel_composites(rng):
    from fibrelab.grothendieck import groth_co

    cats = [
        CATS["S3"],
        CATS["Z3"],
        product(CATS["Z2"], CATS["Z3"]),
        product(CATS["S3"], CATS["TWO"]),
        groth_co(fixtures.all_cat_diagrams()["semidirect"]).total,
    ]
    c = _random_category(rng)
    return c if _parallel_composites(c) else rng.choice(cats)


def _associativity_outcomes(seed):
    rng = random.Random(seed)
    c = _break_associativity(rng, _with_parallel_composites(rng))
    new, old = _outcome(FinCategory.check, c), _outcome(oracle_check, _fresh(c))
    assert new == old
    # Light's test alone decides: it fails exactly when some triple does
    light = _fresh(c)._associative_at(oracle_generating_set(c))
    assert light == (old is None)
    return new


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_associativity_corruptions_agree_with_brute_force(seed):
    _associativity_outcomes(seed)


def test_associativity_corruptions_are_caught():
    outcomes = [_associativity_outcomes(seed) for seed in range(60)]
    violations = [o for o in outcomes if o is not None]
    assert len(violations) >= 30
    assert all(cls is AssociativityViolation for cls, _ in violations)


def test_check_work_grows_with_the_generators_not_the_triples(monkeypatch):
    """On chain(n) the composable triples grow as n**4 / 24 and Light's
    test over the n - 1 successor arrows as n**3 / 6: doubling n multiplies
    the composition lookups of a check by about 8, not 16."""
    from fibrelab.randgen import chain

    class CountingTable(dict):
        lookups = 0

        def __getitem__(self, key):
            self.lookups += 1
            return dict.__getitem__(self, key)

    def lookups(n):
        c = _fresh(chain(n))
        table = CountingTable(c._composition)
        monkeypatch.setattr(c, "_composition", table)
        c.check()
        return table.lookups

    small, large = lookups(12), lookups(24)
    assert large / small < 11
