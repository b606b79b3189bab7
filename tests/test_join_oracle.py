"""The limit enumerators derive values along arrows and the set-level
certificates read mappings; the code they replaced lives on here as oracles.

- ``forward_check`` forces a variable along an arrow from an earlier one;
  the oracle filters every pool with one lambda test per constraint.
- ``limit_set`` and ``kan.ran`` state their constraints as arrows; the
  oracles state them as lambda tests (``ran`` with its identity scopes).
- ``enumerate_functors`` leads an object with a generator from an earlier
  object; the oracle assigns every object from J's objects, in shape order.
- ``SetCone``, ``SetCocone`` and ``SetNat`` check by lookups; the oracles
  build composites with ``then`` and compare functions.

The tests require equal results, in order, on fixture, opposite, random
poset, product and Grothendieck shapes, equal candidate lists (so equal
node counts and refusals), and the same first witness on corrupted cones,
cocones and transformations.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import fibrations, finset, fixtures
from fibrelab.errors import NotACoconeError, ShapeMismatch
from fibrelab.fibrations import enumerate_functors
from fibrelab.fincat import FinFunctor, identity_functor, product
from fibrelab.finset import (
    FinFunction,
    FinSet,
    SetCocone,
    SetCone,
    SetNat,
    _refuse_free_product,
    colimit_set,
    element_token,
    forward_check,
    limit_set,
    restrict,
    search,
)
from fibrelab.grothendieck import groth_co
from fibrelab.kan import lan, ran
from fibrelab.randgen import (
    chain,
    random_cat_diagram,
    random_poset,
    random_set_diagram,
)
from test_enumerate_oracle import category_pairs, tables

CATS = fixtures.all_categories()


# -- the replaced code, kept as oracles -----------------------------------------


def oracle_forward_check(pools, constraints):
    """Candidates that filter each pool with every (scope, test) due at it."""
    position = {v: n for n, v in enumerate(pools)}
    due = {v: [] for v in pools}
    for scope, test in constraints:
        due[max(scope, key=position.__getitem__)].append((scope, test))

    def candidates(var, partial):
        checks = due[var]
        return [
            value
            for value in pools[var]
            if all(
                test(*[value if s == var else partial[s] for s in scope])
                for scope, test in checks
            )
        ]

    return candidates


def as_tests(arrows):
    """The lambda test value[c] == mapping[value[d]] of each arrow."""
    return [
        ((d, c), lambda vd, vc, mapping=mapping: mapping[vd] == vc)
        for d, c, mapping in arrows
    ]


def oracle_cone_check(cone):
    for f, d, c in cone.diagram.shape.morphisms:
        if cone.legs[d].then(cone.diagram.fn(f)) != cone.legs[c]:
            raise NotACoconeError((f,))
    return cone


def oracle_cocone_check(cocone):
    for f, d, c in cocone.diagram.shape.morphisms:
        if cocone.diagram.fn(f).then(cocone.legs[c]) != cocone.legs[d]:
            raise NotACoconeError((f,))
    return cocone


def oracle_nat_check(nat):
    if nat.source.shape != nat.target.shape:
        raise ShapeMismatch(("transformation across shapes",))
    for a in nat.source.shape.objects:
        c = nat.components[a]
        if c.source != nat.source.sets[a] or c.target != nat.target.sets[a]:
            raise ShapeMismatch(("component endpoints", a))
    for f, d, c in nat.source.shape.morphisms:
        left = nat.source.fn(f).then(nat.components[c])
        right = nat.components[d].then(nat.target.fn(f))
        if left != right:
            raise ShapeMismatch(("naturality", f))
    return nat


def oracle_limit_set(x, run=search):
    """limit_set with one lambda test per non-identity morphism."""
    objs = list(x.shape.objects)
    constraints = [
        ((d, c), lambda vd, vc, fn=x.fn(f): fn(vd) == vc)
        for f, d, c in x.shape.morphisms
        if not x.shape.is_identity(f)
    ]
    pools = {a: x.sets[a] for a in objs}
    if not constraints:
        _refuse_free_product(pools.values())
    members, families = [], {}
    for combo in run(objs, oracle_forward_check(pools, constraints)):
        fam = dict(zip(objs, combo))
        tok = "(%s)" % ",".join(element_token(a, fam[a]) for a in objs)
        members.append(tok)
        families[tok] = fam
    apex = FinSet(tuple(members))
    legs = {
        a: FinFunction(apex, x.sets[a], {t: families[t][a] for t in members})
        for a in objs
    }
    return oracle_cone_check(SetCone(x, apex, legs, families))


def oracle_ran(f, x, run=search):
    """ran with one lambda test per comma arrow, identities included: the
    sets, functions, counit and families of each extension."""
    x.check()
    f.check()
    i_cat, j_cat = f.source, f.target
    sets, families, nodes, index = {}, {}, {}, {}
    for j in j_cat.objects:
        nodes[j] = [(i, u) for i in i_cat.objects for u in j_cat.hom(j, f.ob(i))]
        constraints = []
        for m in i_cat.mor_tokens:
            i1, i2 = i_cat.dom(m), i_cat.cod(m)
            for u in j_cat.hom(j, f.ob(i1)):
                scope = ((i1, u), (i2, j_cat.compose(f.mor(m), u)))
                constraints.append((scope, lambda v1, v2, fn=x.fn(m): fn(v1) == v2))
        pools = {(i, u): x.sets[i] for i, u in nodes[j]}
        toks, index[j] = {}, {}
        for combo in run(nodes[j], oracle_forward_check(pools, constraints)):
            tok = "(%s)" % ",".join(
                "%s|%s.%s" % (i, u, e) for (i, u), e in zip(nodes[j], combo)
            )
            toks[tok] = dict(zip(nodes[j], combo))
            index[j][combo] = tok
        sets[j] = tuple(toks)
        families[j] = toks
    functions = {}
    for v in j_cat.mor_tokens:
        j1, j2 = j_cat.dom(v), j_cat.cod(v)
        functions[v] = [
            (
                tok,
                index[j2][
                    tuple(fam[(i, j_cat.compose(u, v))] for i, u in nodes[j2])
                ],
            )
            for tok, fam in families[j1].items()
        ]
    counit = {
        i: [
            (tok, fam[(i, j_cat.id_of(f.ob(i)))])
            for tok, fam in families[f.ob(i)].items()
        ]
        for i in i_cat.objects
    }
    families = {
        j: [(tok, list(fam.items())) for tok, fam in toks.items()]
        for j, toks in families.items()
    }
    return sets, functions, counit, families


def oracle_enumerate_functors(i_cat, j_cat, run=search):
    """The shape-order search: every object from J's objects, each
    generator right after both of its endpoints from its hom-set."""
    i_cat.check()
    j_cat.check()
    objs = i_cat.objects
    position = {a: n for n, a in enumerate(objs)}
    after = {a: [] for a in objs}
    for g in i_cat.generators:
        last = max(i_cat.dom(g), i_cat.cod(g), key=position.__getitem__)
        after[last].append((1, g))
    variables = []
    for a in objs:
        variables.append((0, a))
        variables.extend(after[a])

    def candidates(var, partial):
        kind, x = var
        if kind == 0:
            return j_cat.objects
        return j_cat.hom(partial[(0, i_cat.dom(x))], partial[(0, i_cat.cod(x))])

    non_ids = [m for m in i_cat.mor_tokens if not i_cat.is_identity(m)]
    ids = [i_cat.id_of(a) for a in objs]
    order = non_ids + ids
    j_ids, j_comp = j_cat.identities, j_cat.composition
    ob_pos = {b: n for n, b in enumerate(j_cat.objects)}
    hom_pos = {}
    for t, d, c in j_cat.morphisms:
        if t not in hom_pos:
            hom_pos.update((m, n) for n, m in enumerate(j_cat.hom(d, c)))
    keyed = []
    for combo in run(variables, candidates):
        on_objects, images = {}, {}
        for (kind, x), v in zip(variables, combo):
            (images if kind else on_objects)[x] = v
        for a, i in zip(objs, ids):
            images[i] = j_ids[on_objects[a]]
        for m, a, r in i_cat.factorization:
            images[m] = j_comp[(images[a], images[r])]
        fun = FinFunctor(i_cat, j_cat, on_objects, {m: images[m] for m in order})
        if fun.certified():
            key = [ob_pos[on_objects[a]] for a in objs]
            key.extend(hom_pos[images[m]] for m in non_ids)
            keyed.append((key, fun))
    keyed.sort(key=lambda kf: kf[0])
    return [fun for _, fun in keyed]


# -- helpers --------------------------------------------------------------------


def recording(lists):
    """A search that records every candidate list it is given."""

    def run(variables, candidates):
        def recorded(var, partial):
            values = list(candidates(var, partial))
            lists.append(values)
            return values

        return search(variables, recorded)

    return run


def outcome(call):
    try:
        call()
    except Exception as exc:  # the kind and witness are what is compared
        return type(exc).__name__, exc.args
    return ("ok",)


def shape(rng):
    """A fixture, a random poset, a product, a Grothendieck total, or the
    opposite of one (whose arrows run from later objects to earlier ones)."""
    kind = rng.randrange(4)
    if kind == 0:
        c = rng.choice(list(CATS.values()))
    elif kind == 1:
        c = random_poset(rng, 4)
    elif kind == 2:
        c = product(rng.choice([CATS["TWO"], CATS["Z2"], chain(2)]), CATS["SPAN"])
    else:
        c = groth_co(random_cat_diagram(rng, 3)).total
    return c.op if rng.random() < 0.5 else c


def cone_fields(cone):
    return (
        list(cone.apex),
        {a: list(leg.mapping.items()) for a, leg in cone.legs.items()},
        {t: list(fam.items()) for t, fam in cone.families.items()},
    )


# -- forward_check ----------------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_arrows_give_the_candidates_a_filter_gives(seed):
    rng = random.Random(seed)
    names = ["v%d" % n for n in range(rng.randint(1, 5))]
    pools = {v: rng.sample(range(6), rng.randint(0, 4)) for v in names}
    arrows = []
    for _ in range(rng.randint(0, 6)):
        # from earlier or later variables, self-loops, several into one
        d, c = rng.choice(names), rng.choice(names)
        arrows.append((d, c, {v: rng.randrange(7) for v in pools[d]}))
    tests = []
    if rng.random() < 0.5:
        scope = tuple(rng.sample(names, rng.randint(1, len(names))))
        tests.append((scope, lambda *vs: sum(vs) % 3 != 1))
    new, old = [], []
    found = recording(new)(names, forward_check(pools, tests, arrows))
    expected = recording(old)(
        names, oracle_forward_check(pools, tests + as_tests(arrows))
    )
    assert found == expected
    assert new == old


def test_a_forced_value_is_the_pool_own_value():
    # 1 == True: the pool's True is listed, as the filter lists it
    pools = {"a": ["x"], "b": [True, 2]}
    arrows = [("a", "b", {"x": 1})]
    found = search(["a", "b"], forward_check(pools, arrows=arrows))
    assert found == [("x", True)]
    assert found[0][1] is True


# -- limit_set and ran --------------------------------------------------------------


@given(st.integers(0, 10**6), st.integers(0, 300))
@settings(max_examples=120, deadline=None)
def test_limit_set_matches_the_lambda_search(seed, cap):
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
@settings(max_examples=80, deadline=None)
def test_limit_set_visits_the_nodes_of_the_lambda_search(seed):
    rng = random.Random(seed)
    x = random_set_diagram(rng, shape(rng), 3)
    new, old = [], []
    saved = finset.search
    finset.search = recording(new)
    try:
        limit_set(x)
    finally:
        finset.search = saved
    oracle_limit_set(x, recording(old))
    assert new == old


def ran_fields(res):
    """The sets, functions, counit and families of a right Kan extension,
    each as lists in order."""
    ext = res.extension
    return (
        {j: tuple(s) for j, s in ext.sets.items()},
        {v: list(fn.mapping.items()) for v, fn in ext.functions.items()},
        {i: list(c.mapping.items()) for i, c in res.unit_or_counit.items()},
        {
            j: [(tok, list(fam.items())) for tok, fam in toks.items()]
            for j, toks in res.classify.items()
        },
    )


def functor_pairs(rng):
    """A functor between small categories (self-loops come from groups and
    from non-injective images), and one from a random poset into a chain."""
    src = rng.choice(["ONE", "TWO", "SPAN", "PAIR", "Z2", "Z3", "PUSH3"])
    tgt = rng.choice(["ONE", "TWO", "PUSH3", "Z2", "SPAN"])
    found = enumerate_functors(CATS[src], CATS[tgt])
    if found and rng.random() < 0.7:
        return rng.choice(found)
    c = random_poset(rng, 3)
    c = c.op if rng.random() < 0.5 else c
    return identity_functor(c)


@given(st.integers(0, 10**6), st.integers(0, 300))
@settings(max_examples=120, deadline=None)
def test_ran_matches_the_lambda_search(seed, cap):
    rng = random.Random(seed)
    f = functor_pairs(rng)
    x = random_set_diagram(rng, f.source, 3)
    new, old = [], []
    saved = finset.SEARCH_NODE_CAP
    finset.SEARCH_NODE_CAP = cap
    try:
        got = outcome(lambda: new.append(ran_fields(ran(f, x))))
        want = outcome(lambda: old.append(oracle_ran(f, x)))
    finally:
        finset.SEARCH_NODE_CAP = saved
    assert got == want
    if new:
        assert new[0] == old[0]


@pytest.mark.parametrize("name", ["Z2", "Z3", "S3"])
def test_ran_of_a_group_action_to_one_is_its_fixed_points(name):
    # every endomorphism is a self-loop on the one comma object
    g = CATS[name]
    to_one = FinFunctor(
        g, CATS["ONE"], {"*": "*"}, {m: "1" for m in g.mor_tokens}
    ).check()
    x = random_set_diagram(random.Random(2), g, 3)
    assert ran_fields(ran(to_one, x))[0] == oracle_ran(to_one, x)[0]


# -- enumerate_functors ------------------------------------------------------------


@given(category_pairs())
@settings(max_examples=120, deadline=None)
def test_enumerate_functors_matches_the_shape_order_search(pair):
    src, tgt = pair
    new, old = [], []
    saved = fibrations.search
    fibrations.search = recording(new)
    try:
        found = enumerate_functors(src, tgt)
    finally:
        fibrations.search = saved
    expected = oracle_enumerate_functors(src, tgt, recording(old))
    assert tables(found) == tables(expected)
    # a led object costs no node, and its generator no more than before
    assert sum(map(len, new)) <= sum(map(len, old))


def test_chain_functor_search_visits_fewer_nodes():
    counts = {}
    for a in (3, 4, 5):
        new, old = [], []
        saved = fibrations.search
        fibrations.search = recording(new)
        try:
            enumerate_functors(chain(a), chain(a + 1))
        finally:
            fibrations.search = saved
        oracle_enumerate_functors(chain(a), chain(a + 1), recording(old))
        counts[a] = (sum(map(len, old)), sum(map(len, new)))
    assert counts == {3: (90, 34), 4: (400, 125), 5: (1715, 461)}


# -- certificates by lookups -------------------------------------------------------


def corrupted(rng, fn, apexes):
    """A copy of ``fn`` with one change: a value, a missing or extra key,
    or another source or target."""
    mapping = dict(fn.mapping)
    kind = rng.randrange(5)
    if kind == 0 and mapping:
        k = rng.choice(list(mapping))
        mapping[k] = rng.choice(list(fn.target) or ["?"])
    elif kind == 1 and mapping:
        del mapping[rng.choice(list(mapping))]
    elif kind == 2:
        mapping["extra"] = rng.choice(list(fn.target) or ["?"])
    elif kind == 3:
        return FinFunction(rng.choice(apexes), fn.target, mapping)
    else:
        return FinFunction(fn.source, rng.choice(apexes), mapping)
    return FinFunction(fn.source, fn.target, mapping)


def corrupt_map(rng, maps, apexes):
    out = dict(maps)
    for _ in range(rng.randint(1, 2)):
        k = rng.choice(list(out))
        out[k] = corrupted(rng, out[k], apexes)
    return out


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_corrupted_cones_and_cocones_give_the_same_witness(seed):
    rng = random.Random(seed)
    x = random_set_diagram(rng, shape(rng), 3)
    cone, cocone = limit_set(x), colimit_set(x)
    apexes = [cone.apex, cocone.apex, FinSet(("?",)), *x.sets.values()]
    for _ in range(3):
        bad = SetCone(x, cone.apex, corrupt_map(rng, cone.legs, apexes))
        assert outcome(bad.check) == outcome(lambda: oracle_cone_check(bad))
        bad = SetCocone(x, cocone.apex, corrupt_map(rng, cocone.legs, apexes))
        assert outcome(bad.check) == outcome(lambda: oracle_cocone_check(bad))


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_corrupted_transformations_give_the_same_witness(seed):
    # the unit X -> Lan_F X ∘ F of a left Kan extension, then corrupted
    rng = random.Random(seed)
    f = functor_pairs(rng)
    x = random_set_diagram(rng, f.source, 3)
    res = lan(f, x)
    target = restrict(res.extension, f)
    unit = SetNat(x, target, res.unit_or_counit)
    assert outcome(unit.check) == outcome(lambda: oracle_nat_check(unit)) == ("ok",)
    apexes = [FinSet(("?",)), *x.sets.values(), *target.sets.values()]
    for _ in range(3):
        bad = SetNat(x, target, corrupt_map(rng, unit.components, apexes))
        assert outcome(bad.check) == outcome(lambda: oracle_nat_check(bad))

