import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.errors import (
    DanglingToken,
    NonUnique,
    NotACoconeError,
    ResourceExceeded,
)
from fibrelab.finset import (
    FinFunction,
    FinSet,
    SetDiagram,
    SetNat,
    colimit_set,
    constant_diagram,
    identity_function,
    is_bijection,
    limit_set,
    mediate,
    restrict,
)
from fibrelab.fincat import FinFunctor, category

CATS = fixtures.all_categories()


def coeq_diagram():
    """a,b,c ⇉ 0,1 with fst = (a,b ↦ 0, c ↦ 1) and snd = (a ↦ 0, b,c ↦ 1)."""
    p, q = FinSet(("a", "b", "c")), FinSet(("0", "1"))
    return SetDiagram(
        CATS["PAIR"],
        {"p": p, "q": q},
        {
            "idp": identity_function(p),
            "idq": identity_function(q),
            "fst": FinFunction(p, q, {"a": "0", "b": "0", "c": "1"}),
            "snd": FinFunction(p, q, {"a": "0", "b": "1", "c": "1"}),
        },
    ).check()


def test_coequalizer_collapses_chain():
    # 0 ~ a ~ 0, 0 ~ b ~ 1, 1 ~ c ~ 1 chains everything together
    co = colimit_set(coeq_diagram())
    assert len(co.apex) == 1
    co.check()


def test_equalizer_picks_agreeing_elements():
    li = limit_set(coeq_diagram())
    assert sorted(li.apex) == ["(p.a,q.0)", "(p.c,q.1)"]
    li.check()


def test_coequalizer_brute_force_oracle():
    # independent union-find over the relation fst(e) ~ snd(e)
    x = coeq_diagram()
    parent = {("p", e): ("p", e) for e in x.sets["p"]}
    parent.update({("q", e): ("q", e) for e in x.sets["q"]})

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for m in ("fst", "snd"):
        for e in x.sets["p"]:
            parent[find(("p", e))] = find(("q", x.fn(m)(e)))
    classes = {find(k) for k in parent}
    co = colimit_set(x)
    assert len(co.apex) == len(classes)
    # legs respect exactly the computed partition
    for k1 in parent:
        for k2 in parent:
            same = find(k1) == find(k2)
            assert (co.classify[k1] == co.classify[k2]) == same


def test_colimit_of_representable_is_singleton():
    # Lan of Hom(c, -) collapses: the colimit of a representable is a point
    from fibrelab.randgen import representable_diagram

    for name in ("TWO", "SPAN", "PUSH3"):
        shape = CATS[name]
        for c in shape.objects:
            co = colimit_set(representable_diagram(shape, c))
            assert len(co.apex) == 1, (name, c)


def test_limit_of_constant_diagram_over_connected_shape():
    for name in ("TWO", "SPAN", "PUSH3"):
        s = FinSet(("u", "v"))
        li = limit_set(constant_diagram(CATS[name], s))
        assert len(li.apex) == 2, name


def test_mediate_unique_and_rejects_non_cocones():
    x = coeq_diagram()
    co = colimit_set(x)
    h = mediate(co, co)
    assert is_bijection(h)
    # a non-cocone: send everything at p to a fresh point that q disagrees with
    bad_apex = FinSet(("u", "v"))
    legs = {
        "p": FinFunction(x.sets["p"], bad_apex, {e: "u" for e in x.sets["p"]}),
        "q": FinFunction(x.sets["q"], bad_apex, {"0": "u", "1": "v"}),
    }
    from fibrelab.finset import SetCocone

    other = SetCocone(x, bad_apex, legs, {})
    with pytest.raises(NotACoconeError):
        mediate(co, other)


def test_restrict_along_inclusion():
    x = coeq_diagram()
    one, pair = CATS["ONE"], CATS["PAIR"]
    incl = FinFunctor(one, pair, {"*": "q"}, {"1": "idq"}).check()
    r = restrict(x, incl)
    assert r.sets["*"] == x.sets["q"]


def test_is_bijection_detects_collapse():
    a, b = FinSet(("x", "y")), FinSet(("z",))
    assert not is_bijection(FinFunction(a, b, {"x": "z", "y": "z"}))
    assert is_bijection(identity_function(a))


@st.composite
def random_diagrams(draw):
    import random as _random

    from fibrelab.randgen import random_set_diagram

    seed = draw(st.integers(0, 10**6))
    name = draw(st.sampled_from(("TWO", "SPAN", "PAIR", "PUSH3")))
    return random_set_diagram(_random.Random(seed), CATS[name])


@given(random_diagrams())
@settings(max_examples=50, deadline=None)
def test_colimit_is_a_cocone_with_jointly_surjective_legs(x):
    co = colimit_set(x)
    co.check()
    hit = set()
    for d in x.shape.objects:
        for e in x.sets[d]:
            hit.add(co.legs[d](e))
    assert hit == set(co.apex.elements)


@given(random_diagrams())
@settings(max_examples=50, deadline=None)
def test_mediating_map_from_colimit_to_itself_is_identity(x):
    co = colimit_set(x)
    h = mediate(co, co)
    assert all(h(e) == e for e in co.apex)


def brute_force_limit(x):
    """The product-then-filter limit: every tuple of the product of the
    object sets in order, kept when each non-identity morphism agrees."""
    objs = list(x.shape.objects)
    non_id = [(f, d, c) for f, d, c in x.shape.morphisms if not x.shape.is_identity(f)]
    members, families = [], {}
    for combo in itertools.product(*(x.sets[a] for a in objs)):
        fam = dict(zip(objs, combo))
        if all(x.fn(f)(fam[d]) == fam[c] for f, d, c in non_id):
            tok = "(%s)" % ",".join("%s.%s" % (a, fam[a]) for a in objs)
            members.append(tok)
            families[tok] = fam
    return members, families


@st.composite
def random_free_diagrams(draw):
    """Random sets and arbitrary functions on a shape with no composites, so
    every choice is a diagram and most tuples fail some morphism."""
    shape = CATS[draw(st.sampled_from(("ONE", "TWO", "SPAN", "PAIR")))]
    sizes = {a: draw(st.integers(0, 4)) for a in shape.objects}
    for f, d, c in shape.morphisms:
        if not sizes[c]:
            sizes[d] = 0  # nothing maps into the empty set
    sets = {
        a: FinSet(tuple("%s%d" % (a, n) for n in range(sizes[a])))
        for a in shape.objects
    }
    functions = {}
    for f, d, c in shape.morphisms:
        if shape.is_identity(f):
            functions[f] = identity_function(sets[d])
        else:
            images = [draw(st.sampled_from(sets[c].elements)) for _ in sets[d]]
            functions[f] = FinFunction(sets[d], sets[c], dict(zip(sets[d], images)))
    return SetDiagram(shape, sets, functions).check()


@given(st.one_of(random_diagrams(), random_free_diagrams()))
@settings(max_examples=150, deadline=None)
def test_limit_families_are_exactly_the_compatible_tuples(x):
    li = limit_set(x)
    members, families = brute_force_limit(x)
    assert list(li.apex) == members
    assert list(li.families.items()) == list(families.items())
    for a in x.shape.objects:
        assert li.legs[a].mapping == {t: families[t][a] for t in members}


def test_limit_of_long_chain_is_found_not_refused():
    # 4**10 tuples in the product, but only the 4 families through c0
    from fibrelab.randgen import chain, coproduct_diagrams, representable_diagram

    shape = chain(10)
    x = coproduct_diagrams(shape, [representable_diagram(shape, "c0")] * 4)
    assert len(limit_set(x).apex) == 4


def test_huge_limit_is_refused():
    # a discrete shape on two objects: 1001 * 1000 families, more than the
    # search may visit
    shape = category(
        ["p", "q"],
        [("1p", "p", "p"), ("1q", "q", "q")],
        {"p": "1p", "q": "1q"},
        {},
    )
    sets = {
        "p": FinSet(tuple("p%d" % n for n in range(1001))),
        "q": FinSet(tuple("q%d" % n for n in range(1000))),
    }
    x = SetDiagram(
        shape,
        sets,
        {"1p": identity_function(sets["p"]), "1q": identity_function(sets["q"])},
    )
    with pytest.raises(ResourceExceeded):
        limit_set(x)


def _discrete_diagram(sizes):
    names = ["d%d" % i for i in range(len(sizes))]
    shape = category(
        names, [("1" + a, a, a) for a in names], {a: "1" + a for a in names}, {}
    )
    sets = {
        a: FinSet(tuple("%s.%d" % (a, n) for n in range(k)))
        for a, k in zip(names, sizes)
    }
    return SetDiagram(
        shape, sets, {"1" + a: identity_function(sets[a]) for a in names}
    )


def test_constraint_free_limit_is_refused_before_any_search(monkeypatch):
    from fibrelab import finset

    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(finset, "search", no_search)
    with pytest.raises(ResourceExceeded) as exc:
        limit_set(_discrete_diagram([1001, 1000]))
    assert exc.value.args[0] == ("search nodes", 10**6 + 1, 10**6)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=4), st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_constraint_free_refusal_matches_the_search(sizes, cap):
    # the early refusal raises exactly when, and as, the search would
    from fibrelab import finset

    x = _discrete_diagram(sizes)
    pools = [x.sets[a] for a in x.shape.objects]
    saved = finset.SEARCH_NODE_CAP
    finset.SEARCH_NODE_CAP = cap
    try:
        try:
            found = finset.search(list(range(len(pools))), lambda v, _: pools[v])
            want = ("found", len(found))
        except ResourceExceeded as exc:
            want = ("refused", exc.args)
        try:
            got = ("found", len(limit_set(x).apex))
        except ResourceExceeded as exc:
            got = ("refused", exc.args)
    finally:
        finset.SEARCH_NODE_CAP = saved
    assert got == want


class _CountedToken:
    """A set element whose equality tests are counted."""

    comparisons = 0

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        return hash(self.n)

    def __eq__(self, other):
        _CountedToken.comparisons += 1
        return isinstance(other, _CountedToken) and self.n == other.n


def _comparisons_to_check(n):
    """Equality tests made by checking a function on n elements whose images
    are equal copies (not the same objects) of the target's last element."""
    elements = FinSet(tuple(_CountedToken(i) for i in range(n)))
    fn = FinFunction(elements, elements, {x: _CountedToken(n - 1) for x in elements})
    _CountedToken.comparisons = 0
    fn.check()
    return _CountedToken.comparisons


def test_function_check_is_linear_in_the_set_size():
    # a membership scan of the elements would make this ratio 16
    small, large = _comparisons_to_check(200), _comparisons_to_check(800)
    assert small >= 200
    assert large / small <= 5


def test_function_mapping_is_frozen():
    from fibrelab.randgen import random_set_diagram
    import random

    x = random_set_diagram(random.Random(1), CATS["TWO"]).check()
    fn = x.fn("a")
    k = next(iter(fn.source))
    before = fn(k)
    with pytest.raises(TypeError):
        fn.mapping[k] = "ghost"
    with pytest.raises(TypeError):
        del fn.mapping[k]
    assert x.check() is x and x.fn("a")(k) == before


def test_membership_of_an_unhashable_value_is_false():
    assert ["x"] not in FinSet(("x",))
    with pytest.raises(Exception) as info:
        FinFunction(FinSet(("x",)), FinSet(("y",)), {"x": ["y"]}).check()
    assert info.value.args == (("image outside target", "x", ["y"]),)


def test_set_nat_missing_component_is_a_dangling_token():
    s = FinSet(("x",))
    x = constant_diagram(CATS["TWO"], s)
    with pytest.raises(DanglingToken) as err:
        SetNat(x, x, {"0": identity_function(s)}).check()
    assert err.value.args == (("missing component", "1"),)
