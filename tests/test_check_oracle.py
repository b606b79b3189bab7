"""Differential tests of the functor and diagram checks against the checks
they replaced, and of the contract they now share with FinCategory.

``FinFunctor.check``, ``SetDiagram.check`` and ``CatDiagram.check`` used to
run in full on every call and to build a composite (a ``compose`` call, a
``FinFunction`` or a ``FinFunctor``) for every composable pair.  Those
versions live on below as oracles.  On randgen, fixture and Grothendieck
inputs with one corruption each, old and new must both pass, or both raise
the same exception class with the same witness.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import fixtures, grothendieck
from fibrelab.errors import DanglingToken, NonFunctorialDiagram, ShapeMismatch
from fibrelab.fibrations import enumerate_functors
from fibrelab.fincat import (
    FinCategory,
    FinFunctor,
    compose_functor,
    constant_functor,
    identity_functor,
    product,
)
from fibrelab.finset import FinFunction, SetDiagram
from fibrelab.grothendieck import CatDiagram, groth_co, opposed_fibres
from fibrelab.randgen import (
    chain,
    random_cat_diagram,
    random_monotone_functor,
    random_poset,
    random_set_diagram,
)
from test_fincat import oracle_generating_set
from test_thin_oracle import oracle_is_thin

CATS = fixtures.all_categories()
DIAGS = fixtures.all_cat_diagrams()


# -- the checks before memoisation and flat loops, kept as oracles ------------

def oracle_functor_check(fun):
    target_objects = set(fun.target.objects)
    for a in fun.source.objects:
        if a not in fun.on_objects:
            raise DanglingToken(("functor misses object", a))
        if fun.on_objects[a] not in target_objects:
            raise DanglingToken(("functor image object undeclared", a))
    for f, d, c in fun.source.morphisms:
        if f not in fun.on_morphisms:
            raise DanglingToken(("functor misses morphism", f))
        ff = fun.on_morphisms[f]
        if not fun.target.has_mor(ff):
            raise DanglingToken(("functor image morphism undeclared", f))
        if fun.target.dom(ff) != fun.on_objects[d]:
            raise ShapeMismatch(("dom not preserved", f))
        if fun.target.cod(ff) != fun.on_objects[c]:
            raise ShapeMismatch(("cod not preserved", f))
    for a in fun.source.objects:
        if fun.mor(fun.source.id_of(a)) != fun.target.id_of(fun.ob(a)):
            raise ShapeMismatch(("identity not preserved", a))
    for g, f in fun.source.composable_pairs():
        if fun.mor(fun.source.compose(g, f)) != fun.target.compose(
            fun.mor(g), fun.mor(f)
        ):
            raise ShapeMismatch(("composition not preserved", g, f))
    return fun


def oracle_set_diagram_check(x):
    for a in x.shape.objects:
        if a not in x.sets:
            raise ShapeMismatch(("missing set", a))
    for f, d, c in x.shape.morphisms:
        fn = x.functions.get(f)
        if fn is None:
            raise ShapeMismatch(("missing function", f))
        if fn.source != x.sets[d] or fn.target != x.sets[c]:
            raise ShapeMismatch(("function endpoints", f))
        fn.check()
    for a in x.shape.objects:
        if x.functions[x.shape.id_of(a)].mapping != {e: e for e in x.sets[a]}:
            raise ShapeMismatch(("identity not preserved", a))
    for g, f in x.shape.composable_pairs():
        gf = x.shape.compose(g, f)
        if x.functions[gf] != x.functions[f].then(x.functions[g]):
            raise ShapeMismatch(("composition not preserved", g, f))
    return x


def oracle_cat_diagram_check(phi):
    sh = phi.shape
    for a in sh.objects:
        if a not in phi.fibres:
            raise NonFunctorialDiagram(("missing fibre", a))
        phi.fibres[a].check()
    for u, d, c in sh.morphisms:
        t = phi.transitions.get(u)
        if t is None:
            raise NonFunctorialDiagram(("missing transition", u))
        src, tgt = (d, c) if phi.variance == "covariant" else (c, d)
        if t.source != phi.fibres[src] or t.target != phi.fibres[tgt]:
            raise NonFunctorialDiagram(("transition endpoints", u))
        oracle_functor_check(t)
    for a in sh.objects:
        if phi.transitions[sh.id_of(a)] != identity_functor(phi.fibres[a]):
            raise NonFunctorialDiagram(("identity transition", a))
    for g, f in sh.composable_pairs():
        gf = sh.compose(g, f)
        if phi.variance == "covariant":
            expect = compose_functor(phi.transitions[g], phi.transitions[f])
        else:
            expect = compose_functor(phi.transitions[f], phi.transitions[g])
        if phi.transitions[gf] != expect:
            raise NonFunctorialDiagram(("strictness", g, f))
    return phi


def outcome(check, obj):
    """("pass",) or the exception class with its witness."""
    try:
        check(obj)
    except Exception as exc:  # the oracle may fail with any exception
        return type(exc), exc.args
    return ("pass",)


# -- inputs -------------------------------------------------------------------

def fresh_functor(fun, on_morphisms=None):
    """An unchecked copy of ``fun``, with some morphism images replaced."""
    return FinFunctor(
        fun.source,
        fun.target,
        fun.on_objects,
        dict(fun.on_morphisms) if on_morphisms is None else on_morphisms,
    )


def random_cat_diagram_any_variance(rng):
    phi = random_cat_diagram(rng, max_fibre_objects=3)
    return opposed_fibres(phi) if rng.random() < 0.3 else phi


def fixture_diagram(rng):
    return DIAGS[rng.choice(sorted(DIAGS))]


def grothendieck_base(rng):
    """A diagram to take ∫ of: random poset fibres, or Z2 acting on Z3."""
    phi = random_cat_diagram(rng, max_fibre_objects=3)
    return rng.choice((phi, DIAGS["semidirect"]))


def functor_input(rng):
    kind = rng.choice(("randgen", "fixture", "grothendieck"))
    if kind == "randgen":
        src, tgt = random_poset(rng, 4, "s"), random_poset(rng, 4, "t")
        return random_monotone_functor(rng, src, tgt)
    if kind == "fixture":
        phi = fixture_diagram(rng)
        return phi.transition(rng.choice(phi.shape.mor_tokens))
    phi = grothendieck_base(rng)
    gr = groth_co(phi)
    return rng.choice([gr.projection, *gr.injections.values()])


def set_diagram_input(rng):
    kind = rng.choice(("randgen", "fixture", "grothendieck"))
    if kind == "randgen":
        shape = rng.choice((random_poset(rng, 4), product(chain(2), chain(3))))
    elif kind == "fixture":
        shape = CATS[rng.choice(sorted(CATS))]
    else:
        phi = grothendieck_base(rng)
        shape = groth_co(phi).total
    return random_set_diagram(rng, shape)


def cat_diagram_input(rng):
    kind = rng.choice(("randgen", "fixture", "grothendieck"))
    if kind == "randgen":
        return random_cat_diagram_any_variance(rng)
    if kind == "fixture":
        return fixture_diagram(rng)
    # a Grothendieck projection ∫Φ -> B as the one transition over TWO
    phi = grothendieck_base(rng)
    gr = groth_co(phi)
    return CatDiagram(
        CATS["TWO"], {"0": gr.total, "1": phi.shape}, {"a": gr.projection}
    )


# -- corruptions: each returns a new object with one defect (or none) --------

def _changed_image(rng, fun):
    f = rng.choice(fun.source.mor_tokens)
    return fresh_functor(
        fun, {**fun.on_morphisms, f: rng.choice(fun.target.mor_tokens)}
    )


def _wrong_identity_image(rng, fun):
    a = rng.choice(fun.source.objects)
    fa = fun.ob(a)
    endos = [m for m in fun.target.hom(fa, fa) if m != fun.target.id_of(fa)]
    image = rng.choice(endos or list(fun.target.mor_tokens))
    return fresh_functor(fun, {**fun.on_morphisms, fun.source.id_of(a): image})


def _missing_image(rng, fun):
    mors = dict(fun.on_morphisms)
    del mors[rng.choice(fun.source.mor_tokens)]
    return fresh_functor(fun, mors)


FUNCTOR_CORRUPTIONS = {
    "none": lambda rng, fun: fresh_functor(fun),
    "changed on_morphisms entry": _changed_image,
    "wrong identity": _wrong_identity_image,
    "missing morphism image": _missing_image,
}


def _with_function(x, m, mapping):
    fn = x.fn(m)
    return SetDiagram(
        x.shape, x.sets, {**x.functions, m: FinFunction(fn.source, fn.target, mapping)}
    )


def _changed_entry(rng, x):
    candidates = [m for m in x.shape.mor_tokens if len(x.fn(m).source)]
    if not candidates:
        return _extra_key(rng, x)
    m = rng.choice(candidates)
    fn = x.fn(m)
    e = rng.choice(fn.source.elements)
    return _with_function(x, m, {**fn.mapping, e: rng.choice(fn.target.elements)})


def _extra_key(rng, x):
    m = rng.choice(x.shape.mor_tokens)
    fn = x.fn(m)
    value = rng.choice(fn.target.elements) if len(fn.target) else "ghost"
    return _with_function(x, m, {**fn.mapping, "ghost": value})


def _missing_function(rng, x):
    functions = dict(x.functions)
    del functions[rng.choice(x.shape.mor_tokens)]
    return SetDiagram(x.shape, x.sets, functions)


def _wrong_identity_function(rng, x):
    a = rng.choice(x.shape.objects)
    elements = list(x.sets[a])
    if len(elements) > 1:
        k = rng.randrange(1, len(elements))
        mapping = dict(zip(elements, elements[k:] + elements[:k]))
    else:
        mapping = {e: "ghost" for e in elements} or {"ghost": "ghost"}
    return _with_function(x, x.shape.id_of(a), mapping)


SET_DIAGRAM_CORRUPTIONS = {
    "none": lambda rng, x: SetDiagram(x.shape, x.sets, x.functions),
    "changed mapping entry": _changed_entry,
    "extra mapping key": _extra_key,
    "missing function": _missing_function,
    "wrong identity": _wrong_identity_function,
}


def _with_transition(phi, u, t):
    return CatDiagram(
        phi.shape, phi.fibres, {**phi.transitions, u: t}, phi.variance
    )


def _non_identity(phi):
    return [u for u in phi.shape.mor_tokens if not phi.shape.is_identity(u)]


def _changed_transition_entry(rng, phi):
    u = rng.choice(_non_identity(phi) or list(phi.shape.mor_tokens))
    return _with_transition(phi, u, _changed_image(rng, phi.transition(u)))


def _other_functor(rng, t):
    """A functor with the endpoints of ``t``: constant at a random object."""
    return constant_functor(t.source, t.target, rng.choice(t.target.objects))


def _wrong_identity_transition(rng, phi):
    u = phi.shape.id_of(rng.choice(phi.shape.objects))
    return _with_transition(phi, u, _other_functor(rng, phi.transition(u)))


def _non_strict_transition(rng, phi):
    """Replace a transition that a composite of non-identities involves."""
    sh = phi.shape
    involved = [
        u
        for g, f in sh.composable_pairs()
        if not sh.is_identity(g) and not sh.is_identity(f)
        for u in (g, f, sh.compose(g, f))
    ]
    u = rng.choice(involved or list(sh.mor_tokens))
    return _with_transition(phi, u, _other_functor(rng, phi.transition(u)))


CAT_DIAGRAM_CORRUPTIONS = {
    "none": lambda rng, phi: CatDiagram(
        phi.shape, phi.fibres, phi.transitions, phi.variance
    ),
    "changed on_morphisms entry": _changed_transition_entry,
    "wrong identity": _wrong_identity_transition,
    "non-strict transition": _non_strict_transition,
}

KINDS = {
    "functor": (
        functor_input, FUNCTOR_CORRUPTIONS, oracle_functor_check,
    ),
    "set diagram": (
        set_diagram_input, SET_DIAGRAM_CORRUPTIONS, oracle_set_diagram_check,
    ),
    "cat diagram": (
        cat_diagram_input, CAT_DIAGRAM_CORRUPTIONS, oracle_cat_diagram_check,
    ),
}


def _compare(kind, corruption, seed):
    make, corruptions, oracle = KINDS[kind]
    rng = random.Random(seed)
    obj = corruptions[corruption](rng, make(rng))
    fresh = corruptions["none"](rng, obj)  # a second unchecked copy
    new, old = outcome(lambda o: o.check(), obj), outcome(oracle, fresh)
    assert new == old, (kind, corruption, seed)
    return new


CASES = [(kind, c) for kind, (_, cs, _) in KINDS.items() for c in cs]


@pytest.mark.parametrize("kind, corruption", CASES)
@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_check_agrees_with_oracle(kind, corruption, seed):
    _compare(kind, corruption, seed)


@pytest.mark.parametrize("kind, corruption", CASES)
def test_every_corruption_is_caught_and_every_input_passes(kind, corruption):
    outcomes = [_compare(kind, corruption, seed) for seed in range(40)]
    if corruption == "none":
        assert all(o == ("pass",) for o in outcomes)
    else:
        assert sum(o != ("pass",) for o in outcomes) >= 10


def test_extra_key_outside_the_source_is_refused():
    x = random_set_diagram(random.Random(1), CATS["TWO"])
    bad = _with_function(x, "a", {**x.fn("a").mapping, "ghost": "ghost"})
    expected = (ShapeMismatch, (("composition not preserved", "id1", "a"),))
    assert outcome(lambda o: o.check(), bad) == expected
    assert outcome(oracle_set_diagram_check, bad) == expected


# -- validated at most once ---------------------------------------------------

class CountingTable(dict):
    """A composition table that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


def _count_lookups(monkeypatch, cats):
    tables = []
    for c in {id(c): c for c in cats}.values():
        table = CountingTable(c._composition)
        monkeypatch.setattr(c, "_composition", table)
        tables.append(table)
    return tables


def _count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _work(tables, *call_lists):
    return sum(t.lookups for t in tables) + sum(len(c) for c in call_lists)


def test_second_functor_check_does_no_composition_work(monkeypatch):
    gr = groth_co(DIAGS["semidirect"])
    fun = fresh_functor(gr.projection)
    tables = _count_lookups(monkeypatch, [fun.source, fun.target])
    composes = _count_calls(monkeypatch, FinCategory, "compose")
    assert fun.check() is fun
    first = _work(tables, composes)
    assert first > 0
    assert fun.check() is fun
    assert _work(tables, composes) == first
    assert composes == []


def test_second_check_of_an_enumerated_functor_does_no_work(monkeypatch):
    src, tgt = groth_co(DIAGS["semidirect"]).total, CATS["S3"]
    found = enumerate_functors(src, tgt)
    assert found
    tables = _count_lookups(monkeypatch, [src, tgt])
    composes = _count_calls(monkeypatch, FinCategory, "compose")
    assert all(f.check() is f for f in found)
    assert _work(tables, composes) == 0


def test_second_set_diagram_check_does_no_composition_work(monkeypatch):
    x = random_set_diagram(random.Random(3), CATS["S3"])
    x = SetDiagram(x.shape, x.sets, x.functions)
    tables = _count_lookups(monkeypatch, [x.shape])
    composes = _count_calls(monkeypatch, FinCategory, "compose")
    fn_checks = _count_calls(monkeypatch, FinFunction, "check")
    thens = _count_calls(monkeypatch, FinFunction, "then")
    assert x.check() is x
    first = _work(tables, composes, fn_checks, thens)
    assert first > 0
    assert thens == []  # the flat loop builds no composite functions
    assert x.check() is x
    assert _work(tables, composes, fn_checks, thens) == first


def test_second_cat_diagram_check_does_no_composition_work(monkeypatch):
    phi = DIAGS["semidirect"]
    phi = CatDiagram(phi.shape, phi.fibres, phi.transitions, phi.variance)
    tables = _count_lookups(monkeypatch, [phi.shape, *phi.fibres.values()])
    composes = _count_calls(monkeypatch, FinCategory, "compose")
    functor_checks = _count_calls(monkeypatch, FinFunctor, "check")
    composites = _count_calls(monkeypatch, grothendieck, "compose_functor")
    assert phi.check() is phi
    first = _work(tables, composes, functor_checks, composites)
    assert first > 0
    assert phi.check() is phi
    assert _work(tables, composes, functor_checks, composites) == first


def test_maps_are_frozen():
    phi = DIAGS["span-push3"]
    fun = phi.transition("le")
    x = random_set_diagram(random.Random(0), CATS["TWO"])
    for view, key, value in [
        (fun.on_objects, "*", "0"),
        (fun.on_morphisms, "1", "id0"),
        (x.sets, "0", x.sets["1"]),
        (x.functions, "a", x.fn("id0")),
        (phi.fibres, "s", phi.fibre("l")),
        (phi.transitions, "le", phi.transition("ri")),
    ]:
        with pytest.raises(TypeError):
            view[key] = value
        with pytest.raises(TypeError):
            del view[key]


# -- the generator certificate ------------------------------------------------
#
# Over checked categories the new checks compare a∘f only for the generators
# a of the source (or shape).  Over an unchecked source they must run every
# pair, since Light's induction needs associativity, and keep the old witness.

def _non_associative_copy(rng, c):
    """An unchecked copy of ``c`` with one composite of two non-identities
    moved to a parallel morphism (so only associativity can fail)."""
    pairs = [
        (g, f)
        for g, f in c.composition
        if not c.is_identity(g)
        and not c.is_identity(f)
        and len(c.hom(c.dom(f), c.cod(g))) > 1
    ]
    table = dict(c.composition)
    g, f = rng.choice(pairs)
    table[(g, f)] = rng.choice(
        [m for m in c.hom(c.dom(f), c.cod(g)) if m != table[(g, f)]]
    )
    return FinCategory(c.objects, c.morphisms, c.identities, table)


def _with_parallel_composites(rng):
    return rng.choice([
        CATS["S3"],
        CATS["Z3"],
        product(CATS["Z2"], CATS["Z3"]),
        product(CATS["S3"], CATS["TWO"]),
        groth_co(DIAGS["semidirect"]).total,
    ])


def _functor_from_a_non_associative_source(rng):
    c = _with_parallel_composites(rng)
    broken = _non_associative_copy(rng, c)
    fun = rng.choice([
        identity_functor(c),
        constant_functor(c, CATS["ONE"], "*"),
        *([groth_co(DIAGS["semidirect"]).projection]
          if c.objects == groth_co(DIAGS["semidirect"]).total.objects else []),
    ])
    return FinFunctor(broken, fun.target, fun.on_objects, fun.on_morphisms)


def _set_diagram_on_a_non_associative_shape(rng):
    c = _with_parallel_composites(rng)
    x = random_set_diagram(rng, c)
    return SetDiagram(_non_associative_copy(rng, c), x.sets, x.functions)


def _outer_loops(monkeypatch, owner):
    """The ``outer`` argument of every _unpreserved call, as a tuple."""
    calls = _count_calls(monkeypatch, owner, "_unpreserved")
    return lambda: [tuple(args[1]) for args in calls]


@pytest.mark.parametrize(
    "make, owner, oracle",
    [
        (_functor_from_a_non_associative_source, FinFunctor, oracle_functor_check),
        (_set_diagram_on_a_non_associative_shape, SetDiagram,
         oracle_set_diagram_check),
    ],
    ids=["functor", "set diagram"],
)
def test_a_non_associative_source_takes_the_full_loop(
    monkeypatch, make, owner, oracle
):
    outers = _outer_loops(monkeypatch, owner)
    failures = 0
    for seed in range(40):
        obj = make(random.Random(seed))
        source = obj.source if owner is FinFunctor else obj.shape
        fresh = (fresh_functor(obj) if owner is FinFunctor
                 else SetDiagram(obj.shape, obj.sets, obj.functions))
        before = len(outers())
        new, old = outcome(lambda o: o.check(), obj), outcome(oracle, fresh)
        assert new == old, seed
        failures += new != ("pass",)
        assert outers()[before:] == [source.mor_tokens], seed
    assert failures >= 10


def test_generators_alone_would_miss_a_non_associative_source():
    """Why the certificate needs a checked source: on broken S3 tables the
    pairs with a generator outside can all be preserved while another pair
    is not, and only the full loop finds it."""
    missed = 0
    for seed in range(40):
        rng = random.Random(seed)
        s3 = CATS["S3"]
        broken = _non_associative_copy(rng, s3)
        fun = FinFunctor(broken, s3, {"*": "*"}, {m: m for m in s3.mor_tokens})
        bad = fun._unpreserved(broken.mor_tokens)
        assert bad is not None  # the moved composite is not preserved
        missed += fun._unpreserved(oracle_generating_set(broken)) is None
        assert outcome(lambda o: o.check(), fun) == (
            ShapeMismatch, (("composition not preserved",) + bad,)
        )
    assert missed >= 5


@pytest.mark.parametrize("kind", ["functor", "set diagram"])
def test_checked_sources_take_the_generator_loop_only(monkeypatch, kind):
    """Between checked categories a functor into a non-thin target runs the
    generator loop only, and one into a thin target runs no loop: there
    F(g∘f) and F(g)∘F(f) lie in one hom-set of at most one morphism.  A set
    diagram always runs the generator loop."""
    owner = FinFunctor if kind == "functor" else SetDiagram
    outers = _outer_loops(monkeypatch, owner)
    make = functor_input if kind == "functor" else set_diagram_input
    thin_targets = 0
    for seed in range(60):
        obj = make(random.Random(seed))
        obj = (fresh_functor(obj) if kind == "functor"
               else SetDiagram(obj.shape, obj.sets, obj.functions))
        source = obj.source if kind == "functor" else obj.shape
        thin = kind == "functor" and oracle_is_thin(obj.target)
        thin_targets += thin
        before = len(outers())
        assert obj.check() is obj
        assert outers()[before:] == ([] if thin else [source.generators]), seed
    if kind == "functor":
        assert 10 <= thin_targets <= 50


def _twisted_chain_functor():
    """chain(4) -> chain(4) x Z2, ci<cj |-> (ci<cj, s) for c1<c3 and
    (ci<cj, e) otherwise: the pair (c1<c3, c0<c1) comes first in the full
    loop and breaks, but c1<c3 is no generator."""
    c, z2 = chain(4), CATS["Z2"]
    t = product(c, z2)
    return FinFunctor(
        c,
        t,
        {a: "(%s,*)" % a for a in c.objects},
        {m: "(%s,%s)" % (m, "s" if m == "c1<c3" else "e") for m in c.mor_tokens},
    )


def _changed_mapping_diagram():
    rng = random.Random(86)
    return SET_DIAGRAM_CORRUPTIONS["changed mapping entry"](rng, set_diagram_input(rng))


@pytest.mark.parametrize(
    "make, oracle",
    [
        (_twisted_chain_functor, oracle_functor_check),
        (_changed_mapping_diagram, oracle_set_diagram_check),
    ],
    ids=["functor", "set diagram"],
)
def test_a_failed_generator_test_reports_the_full_loops_first_pair(make, oracle):
    obj = make()
    source = obj.source if isinstance(obj, FinFunctor) else obj.shape
    first = obj._unpreserved(source.mor_tokens)
    # the generator loop breaks too, but at another pair
    assert obj._unpreserved(source.generators) not in (None, first)
    expected = (ShapeMismatch, (("composition not preserved",) + first,))
    assert outcome(lambda o: o.check(), make()) == expected
    assert outcome(oracle, make()) == expected
