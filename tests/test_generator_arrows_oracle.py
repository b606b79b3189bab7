"""The compatible-family enumerators constrain along generators and keep
what they built; the code they replaced lives on as oracles.

- ``limit_set`` and ``kan.ran`` constrained every non-identity morphism
  (``ran`` every morphism, identities included); over checked inputs they
  now constrain the morphisms that ``constrained_morphisms`` lists.  The
  every-morphism oracles are those of ``test_join_oracle``.  ``ran``'s
  extension was fully checked; over a checked J it now has a derived
  certificate.
- ``natural_families`` tests every non-identity square; under its
  ``functorial`` promise it tests the listed ones.
- ``enumerate_functors`` kept a candidate iff ``FinFunctor.certified()``
  passed; it now runs the generator test alone.

The tests require the same apex tokens, legs, counits, families and
functors, in order, on fixture, loop, group, permuted, product and
Grothendieck shapes and their opposites; the same candidate lists at every
search node, so the same node counts and refusals; the old path for
unchecked inputs; and the node counts of the smallest limits-ladder
inputs, counted by wrapping the ``candidates`` that each search is given.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import catcolim, fibrations, finset, fixtures, formulas, kan
from fibrelab.errors import DanglingToken
from fibrelab.fibrations import enumerate_functors, natural_families
from fibrelab.fincat import FinCategory, FinFunctor, category, product
from fibrelab.finset import (
    FinFunction,
    FinSet,
    SetDiagram,
    constant_diagram,
    constrained_morphisms,
    forward_check,
    limit_set,
    search,
)
from fibrelab.grothendieck import groth_co
from fibrelab.kan import ran
from fibrelab.randgen import (
    chain,
    coproduct_diagrams,
    random_cat_diagram,
    random_poset,
    random_set_diagram,
    representable_diagram,
)
from test_enumerate_oracle import category_pairs, tables
from test_golden_reports import glued_chains
from test_join_oracle import (
    cone_fields,
    oracle_limit_set,
    oracle_ran,
    outcome,
    ran_fields,
    recording,
)

CATS = fixtures.all_categories()


# -- the replaced code, kept as oracles -----------------------------------------


def every_morphism_natural_families(e, shape, pools, top, bottom, run=search):
    """natural_families with one test per non-identity morphism."""
    if not all(pools.values()):
        return []
    objs = list(shape.objects)
    constraints = []
    for m in shape.mor_tokens:
        if shape.is_identity(m):
            continue
        t, b = top(m), bottom(m)
        constraints.append(
            (
                (shape.dom(m), shape.cod(m)),
                lambda ci, cj, t=t, b=b: e.compose(cj, t) == e.compose(b, ci),
            )
        )
    natural = forward_check(pools, constraints)
    return [dict(zip(objs, combo)) for combo in run(objs, natural)]


def certified_enumerate_functors(i_cat, j_cat, run=search):
    """enumerate_functors keeping a candidate iff ``certified()`` passes,
    after reading each object's image off its variable."""
    i_cat.check()
    j_cat.check()
    objs = i_cat.objects
    position = {a: n for n, a in enumerate(objs)}
    image_var, lead = {}, {}
    after = {a: [] for a in objs}
    for g in i_cat.generators:
        d, c = i_cat.dom(g), i_cat.cod(g)
        later, earlier = (c, d) if position[d] < position[c] else (d, c)
        if later != earlier and later not in lead:
            lead[later] = (2, g) if later == c else (3, g)
        else:
            after[later].append((1, g))
    variables = []
    for a in objs:
        var = lead.get(a, (0, a))
        image_var[a] = var
        variables.append(var)
        variables.extend(after[a])

    def image(var, value):
        kind = var[0]
        if kind == 0:
            return value
        return j_cat.cod(value) if kind == 2 else j_cat.dom(value)

    def ob(a, partial):
        var = image_var[a]
        return image(var, partial[var])

    def candidates(var, partial):
        kind, x = var
        if kind == 0:
            return j_cat.objects
        if kind == 2:
            return j_cat.out_of(ob(i_cat.dom(x), partial))
        if kind == 3:
            return j_cat.into(ob(i_cat.cod(x), partial))
        return j_cat.hom(ob(i_cat.dom(x), partial), ob(i_cat.cod(x), partial))

    non_ids = [m for m in i_cat.mor_tokens if not i_cat.is_identity(m)]
    ids = [i_cat.id_of(a) for a in objs]
    j_ids, j_comp = j_cat.identities, j_cat.composition
    ob_pos = {b: n for n, b in enumerate(j_cat.objects)}
    hom_pos = {}
    for t, d, c in j_cat.morphisms:
        if t not in hom_pos:
            hom_pos.update((m, n) for n, m in enumerate(j_cat.hom(d, c)))
    keyed = []
    for combo in run(variables, candidates):
        on_objects = {
            a: image(image_var[a], combo[variables.index(image_var[a])])
            for a in objs
        }
        images = {x: v for (kind, x), v in zip(variables, combo) if kind}
        for a, i in zip(objs, ids):
            images[i] = j_ids[on_objects[a]]
        for m, a, r in i_cat.factorization:
            images[m] = j_comp[(images[a], images[r])]
        on_morphisms = {m: images[m] for m in non_ids + ids}
        fun = FinFunctor(i_cat, j_cat, on_objects, on_morphisms)
        if fun.certified():
            key = [ob_pos[on_objects[a]] for a in objs]
            key += [hom_pos[images[m]] for m in non_ids]
            keyed.append((key, fun))
    keyed.sort(key=lambda kf: kf[0])
    return [fun for _, fun in keyed]


def recorded(module, call):
    """The candidate lists of every search that ``call`` runs through
    ``module.search``, in order."""
    lists = []
    saved = module.search
    module.search = recording(lists)
    try:
        call()
    finally:
        module.search = saved
    return lists


# -- shapes -----------------------------------------------------------------------


def idempotent_loop():
    """a -> b with an idempotent loop e on a: hom(a, b) = {f, f∘e}."""
    return category(
        ["a", "b"],
        [("ia", "a", "a"), ("ib", "b", "b"), ("e", "a", "a"), ("f", "a", "b"),
         ("fe", "a", "b")],
        {"a": "ia", "b": "ib"},
        {("e", "e"): "e", ("f", "e"): "fe", ("fe", "e"): "fe"},
        name="LOOP",
    )


def permuted(c, rng):
    """The same tables with the objects listed in a random order, so that a
    composite's middle object can come after both of its ends."""
    objects = list(c.objects)
    rng.shuffle(objects)
    return FinCategory(objects, c.morphisms, c.identities, c.composition).check()


def shape(rng):
    """A fixture (groups among them), a loop, a random poset, a product with
    a group, or a Grothendieck total; permuted or opposed at random."""
    kind = rng.randrange(5)
    if kind == 0:
        c = rng.choice(list(CATS.values()))
    elif kind == 1:
        c = idempotent_loop()
    elif kind == 2:
        c = random_poset(rng, 4)
    elif kind == 3:
        c = product(rng.choice([CATS["Z2"], CATS["Z3"], chain(2)]), CATS["SPAN"])
    else:
        c = groth_co(random_cat_diagram(rng, 3)).total
    if rng.random() < 0.5:
        c = permuted(c, rng)
    return c.op if rng.random() < 0.5 else c


def functor(rng):
    """A checked functor from a fixture, a loop or a permuted chain into a
    fixture, a loop or an opposite chain."""
    names = ["ONE", "TWO", "SPAN", "PAIR", "Z2", "Z3", "S3", "PUSH3"]
    sources = [CATS[n] for n in names] + [idempotent_loop(), permuted(chain(3), rng)]
    targets = [CATS[n] for n in names[:6]] + [idempotent_loop(), chain(3).op]
    found = enumerate_functors(rng.choice(sources), rng.choice(targets))
    if found:
        return rng.choice(found)
    return enumerate_functors(CATS["ONE"], CATS["ONE"])[0]


# -- constrained_morphisms ---------------------------------------------------------


def test_forward_generators_list_themselves_only():
    c = chain(5)
    records, tied = constrained_morphisms(c, {a: n for n, a in enumerate(c.objects)})
    assert [f for f, _, _ in records] == list(c.generators) and tied == {}


def test_a_middle_after_both_ends_is_listed():
    # c0 -> c1 -> c2 listed as c0, c2, c1: the middle of c0 -> c2 is last
    c = chain(3)
    position = {"c0": 0, "c2": 1, "c1": 2}
    records, tied = constrained_morphisms(c, position)
    composite = c.compose("c1<c2", "c0<c1")
    assert [f for f, _, _ in records] == [
        f for f in c.mor_tokens if f in {*c.generators, composite}
    ]
    assert tied == {}


def test_a_group_ties_every_composite_to_its_one_object():
    z3 = CATS["Z3"]
    records, tied = constrained_morphisms(z3, {"*": 0})
    assert [f for f, _, _ in records] == list(z3.generators)
    assert set(tied) == {m for m, _, _ in z3.factorization}


# -- limit_set ------------------------------------------------------------------------


@given(st.integers(0, 10**6), st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_limit_set_matches_the_every_morphism_search(seed, cap):
    rng = random.Random(seed)
    x = random_set_diagram(rng, shape(rng), 3)
    new, old = [], []
    saved = finset.SEARCH_NODE_CAP
    finset.SEARCH_NODE_CAP = cap
    try:
        got = outcome(lambda: new.append(limit_set(x)))
        want = outcome(lambda: old.append(oracle_limit_set(x)))
    finally:
        finset.SEARCH_NODE_CAP = saved
    assert got == want
    if new:
        assert cone_fields(new[0]) == cone_fields(old[0])


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_limit_set_lists_the_candidates_of_the_every_morphism_search(seed):
    rng = random.Random(seed)
    x = random_set_diagram(rng, shape(rng), 3)
    old = []
    oracle_limit_set(x, recording(old))
    assert recorded(finset, lambda: limit_set(x)) == old


# -- ran -------------------------------------------------------------------------------


@given(st.integers(0, 10**6), st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_ran_matches_the_every_morphism_search(seed, cap):
    rng = random.Random(seed)
    f = functor(rng)
    x = random_set_diagram(rng, f.source, 3)
    new, old = [], []
    saved = finset.SEARCH_NODE_CAP
    finset.SEARCH_NODE_CAP = cap
    try:
        got = outcome(lambda: new.append(ran(f, x)))
        want = outcome(lambda: old.append(oracle_ran(f, x)))
    finally:
        finset.SEARCH_NODE_CAP = saved
    assert got == want
    if new:
        assert ran_fields(new[0]) == old[0]
        ext = new[0].extension
        assert ext._checked
        # the derived certificate holds: a fresh copy passes the full check
        SetDiagram(ext.shape, ext.sets, ext.functions).check()


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_ran_lists_the_candidates_of_the_every_morphism_search(seed):
    rng = random.Random(seed)
    f = functor(rng)
    x = random_set_diagram(rng, f.source, 3)
    old = []
    oracle_ran(f, x, recording(old))
    assert recorded(kan, lambda: ran(f, x)) == old


def test_ran_with_colliding_family_tokens_is_refused():
    # (p,i2|1.q ; r) and (p ; q,i2|1.r) render as one family token (the
    # string tokens of ROADMAP item 1); merging them would give 3 elements
    # instead of 4, on which a full check passes, so ran refuses
    two = category(["i1", "i2"], [("1i1", "i1", "i1"), ("1i2", "i2", "i2")],
                   {"i1": "1i1", "i2": "1i2"}, {})
    one = CATS["ONE"]
    to_one = FinFunctor(two, one, {"i1": "*", "i2": "*"}, {"1i1": "1", "1i2": "1"})
    sets = {"i1": FinSet(("p,i2|1.q", "p")), "i2": FinSet(("r", "q,i2|1.r"))}
    x = SetDiagram(two, sets, {
        "1i1": FinFunction(sets["i1"], sets["i1"], {e: e for e in sets["i1"]}),
        "1i2": FinFunction(sets["i2"], sets["i2"], {e: e for e in sets["i2"]}),
    })
    with pytest.raises(DanglingToken) as exc:
        ran(to_one.check(), x)
    assert exc.value.args[0] == (
        "colliding family tokens",
        "*",
        "(i1|1.p,i2|1.q,i2|1.r)",
        ("p,i2|1.q", "r"),
        ("p", "q,i2|1.r"),
    )


# -- natural_families ---------------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_natural_families_match_the_every_morphism_search(seed):
    # the cones over a functor F: D -> C, apex by apex, as enumerate_cones
    # asks for them
    rng = random.Random(seed)
    f = functor(rng)
    d_cat, c_cat = f.source, f.target
    for apex in c_cat.objects:
        pools = {d: c_cat.hom(apex, f.ob(d)) for d in d_cat.objects}
        at_apex = lambda m: c_cat.id_of(apex)
        found = []
        new = recorded(
            fibrations,
            lambda: found.extend(
                natural_families(c_cat, d_cat, pools, at_apex, f.mor, True)
            ),
        )
        old = []
        expected = every_morphism_natural_families(
            c_cat, d_cat, pools, at_apex, f.mor, recording(old)
        )
        assert found == expected
        assert new == old


def test_natural_families_without_the_promise_test_every_square():
    # top sends c0 -> c2 to t∘s = p, bottom to q: no functor, so the
    # square at c0 -> c2 fails although those at the generators hold
    e = category(
        ["x0", "x1", "x2"],
        [("i0", "x0", "x0"), ("i1", "x1", "x1"), ("i2", "x2", "x2"),
         ("s", "x0", "x1"), ("t", "x1", "x2"), ("p", "x0", "x2"), ("q", "x0", "x2")],
        {"x0": "i0", "x1": "i1", "x2": "i2"},
        {("t", "s"): "p"},
    )
    c = chain(3)
    pools = {"c0": ("i0",), "c1": ("i1",), "c2": ("i2",)}
    top = {"c0<c1": "s", "c1<c2": "t", "c0<c2": "p"}.__getitem__
    bottom = {"c0<c1": "s", "c1<c2": "t", "c0<c2": "q"}.__getitem__
    assert every_morphism_natural_families(e, c, pools, top, bottom) == []
    assert natural_families(e, c, pools, top, bottom) == []
    # a broken promise is believed: only the generators' squares are tested
    assert natural_families(e, c, pools, top, bottom, True) == [
        {"c0": "i0", "c1": "i1", "c2": "i2"}
    ]


# -- enumerate_functors ------------------------------------------------------------


@given(category_pairs())
@settings(max_examples=150, deadline=None)
def test_enumerate_functors_matches_the_certified_path(pair):
    src, tgt = pair
    found = []
    new = recorded(fibrations, lambda: found.extend(enumerate_functors(src, tgt)))
    old = []
    expected = certified_enumerate_functors(src, tgt, recording(old))
    assert tables(found) == tables(expected)
    assert all(f._checked for f in found)
    assert new == old


@pytest.mark.parametrize(
    "src, tgt", [("S3", "S3"), ("Z3", "S3"), ("Z2", "Z3"), ("PAIR", "Z2")]
)
def test_enumerate_functors_between_groups_matches_the_certified_path(src, tgt):
    found = enumerate_functors(CATS[src], CATS[tgt])
    assert tables(found) == tables(certified_enumerate_functors(CATS[src], CATS[tgt]))


# -- unchecked inputs take the every-morphism path ------------------------------------


def bent_chain_diagram():
    """An unchecked X on chain(3) with X(c0 -> c2) != X(c1 -> c2)∘X(c0 -> c1):
    compatible along the generators is not compatible along c0 -> c2."""
    c = chain(3)
    s = FinSet(("u", "v"))
    ident = {"u": "u", "v": "v"}
    swap = {"u": "v", "v": "u"}
    functions = {m: FinFunction(s, s, ident) for m in c.mor_tokens}
    functions["c0<c2"] = FinFunction(s, s, swap)
    return SetDiagram(c, {a: s for a in c.objects}, functions)


def test_an_unchecked_diagram_takes_the_every_morphism_path():
    x = bent_chain_diagram()
    assert not x._checked and x.shape.compose("c1<c2", "c0<c1") == "c0<c2"
    cone = limit_set(x)
    assert cone_fields(cone) == cone_fields(oracle_limit_set(x))
    # along the generators alone, (u, u, u) and (v, v, v) would be families
    assert list(cone.apex) == []


def test_ran_over_an_unchecked_source_keeps_every_arrow(monkeypatch):
    c = chain(3)
    unchecked = FinCategory(c.objects, c.morphisms, c.identities, c.composition)
    inc = FinFunctor(
        unchecked, c, {a: a for a in c.objects}, {m: m for m in c.mor_tokens}
    )
    x = random_set_diagram(random.Random(5), unchecked, 2)
    seen = []
    real = finset.forward_check

    def noted(pools, constraints=(), arrows=()):
        seen.append(list(arrows))
        return real(pools, constraints, arrows)

    monkeypatch.setattr(kan, "forward_check", noted)
    res = ran(inc, x)
    # one arrow per morphism out of each comma object, identities included
    assert len(seen[0]) == sum(
        len(c.hom("c0", i1)) for _, i1, _ in c.morphisms
    )
    assert ran_fields(res) == oracle_ran(inc, x)


# -- the smallest limits-ladder inputs: node counts pinned ----------------------------


def _ladder_limit():
    shape = chain(6)
    x = coproduct_diagrams(shape, [representable_diagram(shape, "c0")] * 4)
    return lambda: limit_set(x)


def _ladder_ran():
    src, tgt = chain(4), chain(6)
    inc = FinFunctor(
        src, tgt, {o: o for o in src.objects}, {m: m for m in src.mor_tokens}
    ).check()
    x = constant_diagram(src, FinSet(("a", "b", "c")))
    return lambda: ran(inc, x)


def _ladder_functors():
    return lambda: enumerate_functors(chain(3), chain(4))


def _ladder_recomposition():
    # the ladder seeds its three picks; these are fixed
    phi = glued_chains(3, 4)
    k = catcolim.colimit_cat(phi)
    picks = [("l", "c0"), ("r", "c1"), ("l", "c2")]
    parts = [representable_diagram(k.colimit, k.cocone[d].ob(i)) for d, i in picks]
    x = coproduct_diagrams(k.colimit, parts)
    return lambda: formulas.check_limit_recomposition(phi, x)


# the nodes that the every-morphism enumerators visit on the same inputs
@pytest.mark.parametrize(
    "build, nodes",
    [
        (_ladder_limit, 24),
        (_ladder_ran, 30),
        (_ladder_functors, 34),
        (_ladder_recomposition, 22),
    ],
)
def test_smallest_ladder_inputs_visit_the_pinned_nodes(build, nodes, monkeypatch):
    call = build()
    lists = []
    for module in (finset, kan, fibrations):
        monkeypatch.setattr(module, "search", recording(lists))
    call()
    # every value that a candidates call lists is one node
    assert sum(map(len, lists)) == nodes
