"""Cocones, cones, transformations, strict Cat diagrams and set colimits
are certified over the shape's generators once their inputs are checked;
the every-morphism code they replaced lives on here as oracles.

- ``SetCocone.check``, ``SetCone.check``, ``SetNat.check`` and
  ``NatTransformation.check`` try the squares at the identities and the
  generators first; the oracles check the square at every morphism.
- ``CatDiagram.check`` tries strictness at the pairs with a generator
  outside; the oracle checks every composable pair.
- ``colimit_set`` unions along the generators; the oracle along every
  morphism.

The tests require the same outcome (pass, or the same error and witness),
the same apex order, legs and classify, on thin shapes (fixtures, random
posets, chains, opposites) and on shapes whose generators the closure
chooses (S3, Z2, Z3, an idempotent, products with a group), with corrupted
legs and components (wrong values, partial, extra keys, other sources and
targets, unhashable values, missing objects) and non-strict transitions.
They also pin which squares are visited: every morphism for an unchecked
input, the identities and generators for a checked one.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import finset, fixtures, grothendieck
from fibrelab.errors import (
    DanglingToken,
    NonFunctorialDiagram,
    NotACoconeError,
    ShapeMismatch,
)
from fibrelab.fibrations import enumerate_functors
from fibrelab.fincat import (
    FinCategory,
    FinFunctor,
    NatTransformation,
    category,
    compose_functor,
    identity_functor,
    product,
)
from fibrelab.finset import (
    FinFunction,
    FinSet,
    SetCocone,
    SetCone,
    SetDiagram,
    SetNat,
    UnionFind,
    colimit_set,
    constant_diagram,
    element_token,
    limit_set,
    restrict,
)
from fibrelab.grothendieck import CatDiagram, groth_co, opposed_fibres
from fibrelab.kan import lan
from fibrelab.randgen import (
    chain,
    coproduct_diagrams,
    random_cat_diagram,
    random_poset,
    random_set_diagram,
    representable_diagram,
)
from test_join_oracle import functor_pairs, outcome

CATS = fixtures.all_categories()


# -- the replaced code, kept as oracles -----------------------------------------


def _oracle_is_composite(f, g, h):
    """Whether ``f.then(g) == h``, by lookups in the mappings."""
    fm, gm, hm = f._mapping, g._mapping, h._mapping
    values = [gm[fm[x]] for x in f.source]
    return (
        f.source == h.source
        and g.target == h.target
        and len(hm) == len(values)
        and values == [hm.get(x, KeyError) for x in f.source]
    )


def oracle_cocone_check(cocone):
    for f, d, c in cocone.diagram.shape.morphisms:
        legs = cocone.legs
        if not _oracle_is_composite(cocone.diagram.fn(f), legs[c], legs[d]):
            raise NotACoconeError((f,))
    return cocone


def oracle_cone_check(cone):
    for f, d, c in cone.diagram.shape.morphisms:
        if not _oracle_is_composite(cone.legs[d], cone.diagram.fn(f), cone.legs[c]):
            raise NotACoconeError((f,))
    return cone


def _values(f, g):
    fm, gm = f._mapping, g._mapping
    return [gm[fm[x]] for x in f.source]


def oracle_set_nat_check(nat):
    if nat.source.shape != nat.target.shape:
        raise ShapeMismatch(("transformation across shapes",))
    for a in nat.source.shape.objects:
        c = nat.components.get(a)
        if c is None:
            raise DanglingToken(("missing component", a))
        if c.source != nat.source.sets[a] or c.target != nat.target.sets[a]:
            raise ShapeMismatch(("component endpoints", a))
    for f, d, c in nat.source.shape.morphisms:
        top, right = nat.source.fn(f), nat.components[c]
        upper = _values(top, right)
        left, bottom = nat.components[d], nat.target.fn(f)
        if not (
            upper == _values(left, bottom)
            and top.source == left.source
            and right.target == bottom.target
        ):
            raise ShapeMismatch(("naturality", f))
    return nat


def oracle_nat_check(nat):
    f, g = nat.source, nat.target
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatch(("transformation between non-parallel functors",))
    cat = f.target
    for i in f.source.objects:
        c = nat.components.get(i)
        if c is None or not cat.has_mor(c):
            raise DanglingToken(("missing component", i))
        if cat.dom(c) != f.ob(i) or cat.cod(c) != g.ob(i):
            raise ShapeMismatch(("component endpoints", i, c))
    for m, d, c in f.source.morphisms:
        left = cat.compose(nat.components[c], f.mor(m))
        right = cat.compose(g.mor(m), nat.components[d])
        if left != right:
            raise ShapeMismatch(("naturality square", m, left, right))
    return nat


def oracle_cat_diagram_check(phi):
    """CatDiagram.check with strictness at every composable pair, and no
    memo."""
    sh, fibres, transitions = phi.shape.check(), phi.fibres, phi.transitions
    for a in sh.objects:
        if a not in fibres:
            raise NonFunctorialDiagram(("missing fibre", a))
        fibres[a].check()
    for u, d, c in sh.morphisms:
        t = transitions.get(u)
        if t is None:
            raise NonFunctorialDiagram(("missing transition", u))
        src, tgt = (d, c) if phi.variance == "covariant" else (c, d)
        if t.source != fibres[src] or t.target != fibres[tgt]:
            raise NonFunctorialDiagram(("transition endpoints", u))
        t.check()
    for a in sh.objects:
        if transitions[sh.id_of(a)] != identity_functor(fibres[a]):
            raise NonFunctorialDiagram(("identity transition", a))
    for g, f in sh.composable_pairs():
        gf = sh.compose(g, f)
        if phi.variance == "covariant":
            expect = compose_functor(transitions[g], transitions[f])
        else:
            expect = compose_functor(transitions[f], transitions[g])
        if transitions[gf] != expect:
            raise NonFunctorialDiagram(("strictness", g, f))
    return phi


def oracle_colimit_set(x):
    """colimit_set with a union along every morphism."""
    uf = UnionFind()
    for a in x.shape.objects:
        for e in x.sets[a]:
            uf.find(element_token(a, e))
    for f, d, c in x.shape.morphisms:
        fn = x.fn(f)
        for e in x.sets[d]:
            uf.union(element_token(d, e), element_token(c, fn(e)))
    seen, order = set(), []
    for a in x.shape.objects:
        for e in x.sets[a]:
            root = uf.find(element_token(a, e))
            if root not in seen:
                seen.add(root)
                order.append(root)
    apex = FinSet(tuple(order))
    classify, legs = {}, {}
    for a in x.shape.objects:
        mapping = {}
        for e in x.sets[a]:
            rep = uf.find(element_token(a, e))
            mapping[e] = rep
            classify[(a, e)] = rep
        legs[a] = FinFunction(x.sets[a], apex, mapping)
    return oracle_cocone_check(SetCocone(x, apex, legs, classify))


# -- shapes and inputs ----------------------------------------------------------


def idempotent():
    """One object with e∘e = e: e is decomposable, so the closure chooses it."""
    return category(
        ["*"], [("1", "*", "*"), ("e", "*", "*")], {"*": "1"}, {("e", "e"): "e"},
        name="IDEM",
    )


def thin_shape(rng):
    kind = rng.randrange(3)
    if kind == 0:
        c = CATS[rng.choice(["ONE", "TWO", "SPAN", "PUSH3"])]
    elif kind == 1:
        c = random_poset(rng, 4)
    else:
        c = chain(rng.randint(2, 4))
    return c.op if rng.random() < 0.5 else c


def non_thin_shape(rng):
    """A shape whose generating set the closure chooses (groups, an
    idempotent, products with a group), or the non-thin PAIR."""
    kind = rng.randrange(7)
    if kind < 3:
        c = CATS[("S3", "Z2", "Z3")[kind]]
    elif kind == 3:
        c = idempotent()
    elif kind == 4:
        c = product(CATS[rng.choice(["Z2", "Z3"])], CATS[rng.choice(["TWO", "SPAN"])])
    elif kind == 5:
        c = groth_co(fixtures.semidirect_diagram()).total
    else:
        c = CATS["PAIR"]
    return c.op if rng.random() < 0.5 else c


def shape(rng):
    return thin_shape(rng) if rng.random() < 0.4 else non_thin_shape(rng)


def unchecked_copy(c):
    """The same tables in a category that has not been checked."""
    return FinCategory(c.objects, c.morphisms, c.identities, c.composition)


def diagram(rng, sh):
    """A random set diagram on ``sh``: checked, an unchecked copy on a
    checked or an unchecked shape, or an unchecked copy with one value of
    one function moved inside its target (no functor, in general), so both
    paths of every check run."""
    x = random_set_diagram(rng, sh, 3)
    kind = rng.randrange(5)
    if kind == 0:
        return SetDiagram(x.shape, x.sets, x.functions)
    if kind == 1:
        return SetDiagram(unchecked_copy(x.shape), x.sets, x.functions)
    moves = [m for m in sh.mor_tokens if not sh.is_identity(m)]
    if kind == 2 and moves:
        functions = dict(x.functions)
        m = rng.choice(moves)
        fn = functions[m]
        if len(fn.source) and len(fn.target) > 1:
            mapping = dict(fn.mapping)
            mapping[rng.choice(list(fn.source))] = rng.choice(list(fn.target))
            functions[m] = FinFunction(fn.source, fn.target, mapping)
        return SetDiagram(x.shape, x.sets, functions)
    return x


def corrupted(rng, fn, sets):
    """A copy of ``fn`` with one change: a value inside or outside its
    target, a missing or extra key, an unhashable value, or another source
    or target."""
    mapping = dict(fn.mapping)
    kind = rng.randrange(7)
    keys = list(mapping)
    if kind == 0 and keys:
        mapping[rng.choice(keys)] = rng.choice(list(fn.target) or ["?"])
    elif kind == 1 and keys:
        mapping[rng.choice(keys)] = "?"
    elif kind == 2 and keys:
        del mapping[rng.choice(keys)]
    elif kind == 3 and keys:
        mapping[rng.choice(keys)] = ["unhashable"]
    elif kind == 4:
        mapping["extra"] = rng.choice(list(fn.target) or ["?"])
    elif kind == 5:
        return FinFunction(rng.choice(sets), fn.target, mapping)
    else:
        return FinFunction(fn.source, rng.choice(sets), mapping)
    return FinFunction(fn.source, fn.target, mapping)


def corrupt_map(rng, maps, sets):
    """Change one or two entries of ``maps``, or drop one."""
    out = dict(maps)
    for _ in range(rng.randint(1, 2)):
        k = rng.choice(list(out))
        if rng.random() < 0.1:
            del out[k]
            if not out:
                break
        else:
            out[k] = corrupted(rng, out[k], sets)
    return out


def cocone_fields(cocone):
    return (
        list(cocone.apex),
        {a: (leg.source, leg.target, list(leg.mapping.items()))
         for a, leg in cocone.legs.items()},
        list(cocone.classify.items()),
    )


# -- colimit_set ----------------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_colimit_set_matches_the_union_along_every_morphism(seed):
    rng = random.Random(seed)
    x = diagram(rng, shape(rng))
    assert cocone_fields(colimit_set(x)) == cocone_fields(oracle_colimit_set(x))


def test_a_z3_orbit_is_joined_along_its_one_generator():
    """On Z3 the only generator is r, and its unions alone join the orbit."""
    z3 = CATS["Z3"]
    orbit = FinSet(("a", "b", "c"))
    rot = {"a": "b", "b": "c", "c": "a"}
    x = SetDiagram(
        z3,
        {"*": orbit},
        {
            "e": FinFunction(orbit, orbit, {v: v for v in orbit}),
            "r": FinFunction(orbit, orbit, rot),
            "rr": FinFunction(orbit, orbit, {v: rot[rot[v]] for v in orbit}),
        },
    ).check()
    assert z3.generators == ("r",)
    assert cocone_fields(colimit_set(x)) == cocone_fields(oracle_colimit_set(x))
    assert list(colimit_set(x).apex) == ["*.a"]


# -- cocones and cones ------------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_corrupted_cocones_and_cones_give_the_oracles_witness(seed):
    rng = random.Random(seed)
    x = diagram(rng, shape(rng))
    cone, cocone = limit_set(x), colimit_set(x)
    assert outcome(cone.check) == outcome(lambda: oracle_cone_check(cone)) == ("ok",)
    sets = [cone.apex, cocone.apex, FinSet(("?",)), *x.sets.values()]
    for _ in range(3):
        bad = SetCone(x, cone.apex, corrupt_map(rng, cone.legs, sets))
        assert outcome(bad.check) == outcome(lambda: oracle_cone_check(bad))
        bad = SetCocone(x, cocone.apex, corrupt_map(rng, cocone.legs, sets))
        assert outcome(bad.check) == outcome(lambda: oracle_cocone_check(bad))


def test_a_failed_generator_square_reports_the_loops_first_witness():
    """On chain(3), c0<c2 is declared before the generator c1<c2; a wrong
    leg at c2 breaks both squares, and the loop names c0<c2."""
    c = chain(3)
    x = coproduct_diagrams(
        c, [representable_diagram(c, "c0"), representable_diagram(c, "c1")]
    )
    cocone = colimit_set(x)
    leg = cocone.legs["c2"]
    first = next(iter(leg.mapping))
    others = [v for v in cocone.apex if v != leg(first)]
    legs = dict(cocone.legs)
    legs["c2"] = FinFunction(leg.source, leg.target, {**leg.mapping, first: others[0]})
    bad = SetCocone(x, cocone.apex, legs)
    assert "c0<c2" not in c.generators
    assert outcome(bad.check) == outcome(lambda: oracle_cocone_check(bad))
    assert outcome(bad.check) == ("NotACoconeError", (("c0<c2",),))


def test_a_partial_leg_raises_the_loops_key_error():
    x = random_set_diagram(random.Random(5), CATS["SPAN"], 2)
    cone = limit_set(x)
    legs = dict(cone.legs)
    del legs["l"]  # the leg at an object that is the target of le
    bad = SetCone(x, cone.apex, legs)
    assert outcome(bad.check) == outcome(lambda: oracle_cone_check(bad))
    assert outcome(bad.check)[0] == "KeyError"


# -- transformations of set diagrams --------------------------------------------


def identities(x):
    return {a: finset.identity_function(x.sets[a]) for a in x.shape.objects}


def set_transformations(rng):
    """Natural transformations of set diagrams: identities, the colimit legs
    X ⇒ Δ(colim X), the limit legs Δ(lim X) ⇒ X, and the unit of a left
    Kan extension X ⇒ Lan_F X ∘ F (whose target ``restrict`` builds)."""
    kind = rng.randrange(4)
    if kind == 3:
        f = functor_pairs(rng)
        x = random_set_diagram(rng, f.source, 3)
        res = lan(f, x)
        return SetNat(x, restrict(res.extension, f), res.unit_or_counit)
    x = diagram(rng, shape(rng))
    if kind == 0:
        return SetNat(x, x, identities(x))
    if kind == 1:
        cocone = colimit_set(x)
        apex = constant_diagram(x.shape, cocone.apex)
        return SetNat(x, apex.check() if rng.random() < 0.5 else apex, cocone.legs)
    cone = limit_set(x)
    apex = constant_diagram(x.shape, cone.apex)
    return SetNat(apex.check() if rng.random() < 0.5 else apex, x, cone.legs)


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_corrupted_set_transformations_give_the_oracles_witness(seed):
    rng = random.Random(seed)
    nat = set_transformations(rng)
    assert outcome(nat.check) == outcome(lambda: oracle_set_nat_check(nat)) == ("ok",)
    sets = [FinSet(("?",)), *nat.source.sets.values(), *nat.target.sets.values()]
    for _ in range(3):
        bad = SetNat(nat.source, nat.target, corrupt_map(rng, nat.components, sets))
        assert outcome(bad.check) == outcome(lambda: oracle_set_nat_check(bad))


# -- transformations of functors ------------------------------------------------


SMALL = ["ONE", "TWO", "SPAN", "PAIR", "Z2", "Z3", "S3", "IDEM"]


def small(name):
    return idempotent() if name == "IDEM" else CATS[name]


def fresh_functor(rng, f):
    """The same maps in a functor that has not been checked, on unchecked
    copies of its source and target half of the time."""
    src, tgt = f.source, f.target
    if rng.random() < 0.5:
        src, tgt = unchecked_copy(src), unchecked_copy(tgt)
    return FinFunctor(src, tgt, f.on_objects, f.on_morphisms)


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_functor_transformations_give_the_oracles_witness(seed):
    rng = random.Random(seed)
    c, d = small(rng.choice(SMALL)), small(rng.choice(SMALL))
    functors = enumerate_functors(c, d)
    f, g = rng.choice(functors), rng.choice(functors)
    if rng.random() < 0.3:
        f, g = fresh_functor(rng, f), fresh_functor(rng, g)
    homs = [d.hom(f.ob(i), g.ob(i)) for i in c.objects]
    families = list(itertools.islice(itertools.product(*homs), 64))
    others = list(d.mor_tokens) + ["?"]
    for comps in families:
        components = dict(zip(c.objects, comps))
        if rng.random() < 0.2:  # a component from another hom-set, or none
            i = rng.choice(c.objects)
            components[i] = rng.choice(others)
            if rng.random() < 0.3:
                del components[i]
        nat = NatTransformation(f, g, components)
        assert outcome(nat.check) == outcome(lambda: oracle_nat_check(nat))


def test_groups_have_natural_and_unnatural_families():
    """The families above reach both outcomes on S3: for the identity
    functor the natural components are the centre, which is trivial."""
    s3 = CATS["S3"]
    ident = identity_functor(s3).check()
    verdicts = [
        outcome(NatTransformation(ident, ident, {"*": m}).check)[0]
        for m in s3.mor_tokens
    ]
    assert verdicts.count("ok") == 1 and verdicts.count("ShapeMismatch") == 5


# -- strict Cat diagrams -----------------------------------------------------------


def discrete(objects):
    return category(objects, [("1:%s" % x, x, x) for x in objects],
                    {x: "1:%s" % x for x in objects}, {})


def object_map(src, tgt, on_objects):
    """The functor between discrete categories with this object map."""
    return FinFunctor(
        src, tgt, on_objects, {"1:%s" % x: "1:%s" % y for x, y in on_objects.items()}
    )


def arrows_into(sh):
    """c ↦ the discrete category on the morphisms into c, and m ↦ (x ↦ m∘x):
    a strict diagram on any shape."""
    fibres = {c: discrete(sh.into(c)) for c in sh.objects}
    transitions = {
        m: object_map(fibres[d], fibres[c], {x: sh.compose(m, x) for x in sh.into(d)})
        for m, d, c in sh.morphisms
    }
    return CatDiagram(sh, fibres, transitions)


def cat_diagram(rng):
    """A strict diagram, and whether its fibres are the discrete ones of
    :func:`arrows_into`."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_cat_diagram(rng, 3), False
    if kind == 1:
        name = rng.choice(["span-push3", "semidirect"])
        return fixtures.all_cat_diagrams()[name], False
    phi = arrows_into(non_thin_shape(rng) if kind == 2 else thin_shape(rng))
    return (opposed_fibres(phi) if rng.random() < 0.5 else phi), True


def non_strict(rng, phi, discrete_fibres):
    """``phi`` with the transition of one non-identity morphism replaced by
    another functor between the same fibres: a random object map between
    discrete fibres, any functor otherwise."""
    sh = phi.shape
    moves = [u for u in sh.mor_tokens if not sh.is_identity(u)]
    transitions = dict(phi.transitions)
    if moves:
        u = rng.choice(moves)
        t = transitions[u]
        if discrete_fibres:
            transitions[u] = object_map(
                t.source, t.target,
                {x: rng.choice(t.target.objects) for x in t.source.objects},
            )
        else:
            transitions[u] = rng.choice(enumerate_functors(t.source, t.target))
    return CatDiagram(sh, phi.fibres, transitions, phi.variance)


def copy_of(phi):
    return CatDiagram(phi.shape, phi.fibres, phi.transitions, phi.variance)


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_non_strict_cat_diagrams_give_the_oracles_witness(seed):
    rng = random.Random(seed)
    phi, discrete_fibres = cat_diagram(rng)
    assert outcome(copy_of(phi).check) == outcome(
        lambda: oracle_cat_diagram_check(copy_of(phi))
    ) == ("ok",)
    for _ in range(3):
        bad = non_strict(rng, phi, discrete_fibres)
        assert outcome(copy_of(bad).check) == outcome(
            lambda: oracle_cat_diagram_check(copy_of(bad))
        )


def test_non_strict_diagrams_on_groups_are_refused():
    """The corruption reaches strictness failures on closure-chosen shapes."""
    failures = 0
    for seed in range(40):
        rng = random.Random(seed)
        phi = arrows_into(CATS[rng.choice(["S3", "Z3", "Z2"])])
        bad = non_strict(rng, phi, True)
        got = outcome(copy_of(bad).check)
        assert got == outcome(lambda: oracle_cat_diagram_check(copy_of(bad)))
        failures += got[0] == "NonFunctorialDiagram"
    assert failures >= 20


# -- which squares are visited ----------------------------------------------------


def _counting(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _chain_diagram(checked_shape=True, checked=True):
    sh = chain(4) if checked_shape else unchecked_copy(chain(4))
    x = random_set_diagram(random.Random(1), chain(4), 2)
    x = SetDiagram(sh, x.sets, x.functions)
    return x.check() if checked else x


@pytest.mark.parametrize(
    "checked_shape, checked", [(True, True), (True, False), (False, True)],
    ids=["checked", "unchecked diagram", "unchecked shape"],
)
@pytest.mark.parametrize("kind", ["cocone", "cone"])
def test_cone_and_cocone_squares_visited(monkeypatch, kind, checked_shape, checked):
    x = _chain_diagram(checked_shape, checked)
    sh = x.shape
    cone = colimit_set(x) if kind == "cocone" else limit_set(x)
    calls = _counting(monkeypatch, finset, "_is_composite")
    cone.check()
    if checked_shape and checked:
        assert len(sh.generators) == 3
        assert len(calls) == len(sh.objects) + 3 == 7
    else:
        assert len(calls) == len(sh.morphisms) == 10


@pytest.mark.parametrize(
    "checked_shape, checked, target_checked",
    [(True, True, True), (True, False, True), (False, True, True),
     (True, True, False)],
    ids=["checked", "unchecked source", "unchecked shape", "unchecked target"],
)
def test_set_transformation_squares_visited(
    monkeypatch, checked_shape, checked, target_checked
):
    x = _chain_diagram(checked_shape, checked)
    y = x if target_checked else SetDiagram(x.shape, x.sets, x.functions)
    nat = SetNat(x, y, identities(x))
    calls = _counting(monkeypatch, finset, "_composite")
    nat.check()
    squares = 4 + 3 if checked_shape and checked and target_checked else 10
    assert len(calls) == 2 * squares


@pytest.mark.parametrize(
    "unchecked", ["none", "functor", "source", "target"],
)
def test_functor_transformation_squares_visited(monkeypatch, unchecked):
    """A checked functor does not make its source checked: a functor on an
    unchecked copy of S3 passes its own check by the loop over every pair,
    and the transformation then checks every square too."""
    s3 = CATS["S3"]
    src = unchecked_copy(s3) if unchecked == "source" else s3
    tgt = unchecked_copy(s3) if unchecked == "target" else s3
    f = FinFunctor(src, tgt, {"*": "*"}, {m: m for m in s3.mor_tokens})
    if unchecked != "functor":
        f.check()
    assert src._checked == (unchecked != "source")
    nat = NatTransformation(f, f, {"*": "p012"})
    calls = _counting(monkeypatch, FinCategory, "compose")
    nat.check()
    squares = 1 + len(s3.generators) if unchecked == "none" else len(s3.mor_tokens)
    assert len(calls) == 2 * squares


def test_strictness_pairs_visited(monkeypatch):
    """A strict diagram on PUSH3 tries the pairs with a generator outside
    and no identity inside; one that breaks strictness at a generator pair
    tries every such pair."""
    sh = CATS["PUSH3"]
    phi = arrows_into(sh)

    def pairs(outer):
        return sum(
            not sh.is_identity(f) for g in outer for f in sh.into(sh.dom(g))
        )

    gens, every = pairs(sh.generators), pairs(sh.mor_tokens)
    assert (gens, every) == (1, 4)
    calls = _counting(monkeypatch, grothendieck, "compose_functor")
    copy_of(phi).check()
    assert len(calls) == gens
    del calls[:]
    transitions = dict(phi.transitions)
    t = transitions["ba"]
    to_id2 = {x: "id2" for x in t.source.objects}
    transitions["ba"] = object_map(t.source, t.target, to_id2)
    bad = CatDiagram(sh, phi.fibres, transitions)
    assert outcome(bad.check) == ("NonFunctorialDiagram", (("strictness", "b", "a"),))
    # the generator pairs up to (b, a), then every pair up to (b, a)
    assert len(calls) == 1 + 4


def test_colimit_unions_visited(monkeypatch):
    calls = _counting(monkeypatch, UnionFind, "union")
    checked = _chain_diagram()
    sh = checked.shape
    colimit_set(checked)
    assert len(calls) == sum(len(checked.sets[sh.dom(g)]) for g in sh.generators)
    del calls[:]
    colimit_set(_chain_diagram(checked=False))
    assert len(calls) == sum(len(checked.sets[d]) for _, d, _ in sh.morphisms)


@pytest.mark.parametrize("x_checked", [True, False])
@pytest.mark.parametrize("f_checked", [True, False])
def test_restrict_records_a_pass_only_for_checked_inputs(x_checked, f_checked):
    x = _chain_diagram(checked=x_checked)
    f = FinFunctor(CATS["TWO"], x.shape, {"0": "c1", "1": "c3"},
                   {"id0": "idc1", "id1": "idc3", "a": "c1<c3"})
    if f_checked:
        f.check()
    xf = restrict(x, f)
    assert xf._checked == (x_checked and f_checked)
    assert xf.check() is xf


@pytest.mark.parametrize("g_checked", [True, False])
@pytest.mark.parametrize("f_checked", [True, False])
def test_compose_functor_records_a_pass_only_for_checked_factors(f_checked, g_checked):
    f = FinFunctor(CATS["TWO"], chain(4), {"0": "c1", "1": "c3"},
                   {"id0": "idc1", "id1": "idc3", "a": "c1<c3"})
    g = identity_functor(chain(4))
    if f_checked:
        f.check()
    if g_checked:
        g.check()
    gf = compose_functor(g, f)
    assert gf._checked == (f_checked and g_checked)
    assert gf.check() is gf


def test_cat_valued_forward_morphisms_take_the_generator_squares(monkeypatch):
    """enumerate_forward's naturality checks run no loop over every
    morphism: its target Y∘F composes two checked functors."""
    from fibrelab import fincat
    from fibrelab.diagcat import DiagObject, enumerate_forward

    incl = FinFunctor(chain(4), chain(5), {"c%d" % i: "c%d" % i for i in range(4)},
                      {m: m for m in chain(4).mor_tokens}).check()
    dx = DiagObject(chain(4), incl, "cat")
    dy = DiagObject(chain(4), incl, "cat")
    calls = []
    orig = fincat.first_witness

    def counted(shape, witness, fast, identities=True):
        calls.append(fast and shape._checked)
        return orig(shape, witness, fast, identities)

    monkeypatch.setattr(fincat, "first_witness", counted)
    after = enumerate_forward(dx, dy)
    assert len(calls) == len(after) == 14
    assert calls.count(False) == 0
