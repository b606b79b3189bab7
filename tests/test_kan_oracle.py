"""``kan.lan`` and ``kan.joint_lan_factor`` work along the generators; the
every-morphism code they replaced lives on here as oracles.

- ``lan`` keyed its union-find by glued ``i|u|e`` strings, united along
  every morphism of I and checked the unit's naturality at every morphism.
  It now keys by (i, u, e) tuples, unites along the generators of I, and
  certifies the unit with ``first_witness``.
- ``joint_lan_factor`` propagated β along every morphism of K; it now
  propagates along the generators of K.

The tests require the same sets, classify, functions and unit of each
extension wherever no tokens collide, on functors between small categories
(groups and non-injective images give self-loops), on the colimit legs of
glued chains and on Grothendieck projections; and the same β, or a refusal
of the same kind, on random families and fixture gluings with compatible
and corrupted families.  They also reach each refusal of
``joint_lan_factor`` through the library API.
"""
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.catcolim import colimit_cat
from fibrelab.diagcat import colimit_in_diag
from fibrelab.errors import (
    BoundExceeded,
    DanglingToken,
    IncompatibleFamily,
    NaturalityFailure,
    NoSolution,
)
from fibrelab.fincat import constant_functor, identity_functor
from fibrelab.finset import (
    FinFunction,
    FinSet,
    SetDiagram,
    SetNat,
    UnionFind,
    colimit_set,
    constant_diagram,
    identity_function,
)
from fibrelab.grothendieck import CatDiagram, groth_co, guitart_hat
from fibrelab.kan import joint_lan_factor, lan
from fibrelab.randgen import random_cat_diagram, random_diag_family, random_set_diagram
from builders import discrete, glued_chains
from test_join_oracle import functor_pairs, outcome

CATS = fixtures.all_categories()


# -- the replaced code, kept as oracles ----------------------------------------


def oracle_lan(f, x):
    """lan with glued string keys and unions along every morphism of I: the
    sets, classify, functions and unit of the extension."""
    x.check()
    f.check()
    i_cat, j_cat = f.source, f.target
    classify, sets = {}, {}
    for j in j_cat.objects:
        uf = UnionFind()
        triples = []
        for i in i_cat.objects:
            for u in j_cat.hom(f.ob(i), j):
                for e in x.sets[i]:
                    triples.append((i, u, e))
                    uf.find("%s|%s|%s" % (i, u, e))
        for m in i_cat.mor_tokens:
            i1, i2 = i_cat.dom(m), i_cat.cod(m)
            for u2 in j_cat.hom(f.ob(i2), j):
                u1 = j_cat.compose(u2, f.mor(m))
                for e in x.sets[i1]:
                    uf.union(
                        "%s|%s|%s" % (i1, u1, e),
                        "%s|%s|%s" % (i2, u2, x.fn(m)(e)),
                    )
        classify[j] = {t: uf.find("%s|%s|%s" % t) for t in triples}
        sets[j] = tuple(dict.fromkeys(classify[j].values()))
    functions = {}
    for v in j_cat.mor_tokens:
        j1, j2 = j_cat.dom(v), j_cat.cod(v)
        mapping = {}
        for (i, u, e), rep in classify[j1].items():
            mapping.setdefault(rep, classify[j2][(i, j_cat.compose(v, u), e)])
        functions[v] = mapping
    unit = {
        i: {e: classify[f.ob(i)][(i, j_cat.id_of(f.ob(i)), e)] for e in x.sets[i]}
        for i in i_cat.objects
    }
    for m in i_cat.mor_tokens:
        i1, i2 = i_cat.dom(m), i_cat.cod(m)
        for e in x.sets[i1]:
            if unit[i2][x.fn(m)(e)] != functions[f.mor(m)][unit[i1][e]]:
                raise NaturalityFailure(("lan unit naturality", m))
    return sets, classify, functions, unit


def lan_fields(res):
    ext = res.extension
    return (
        {j: s.elements for j, s in ext.sets.items()},
        res.classify,
        {v: dict(fn._mapping) for v, fn in ext.functions.items()},
        {i: dict(fn._mapping) for i, fn in res.unit_or_counit.items()},
    )


def oracle_joint_lan_factor(phi, k_cat, k_legs, x_family, phi_maps, x, injections, y, mu):
    """joint_lan_factor with β propagated along every morphism of K: the
    mappings of its components."""
    sh = phi.shape
    for u, d, e in sh.morphisms:
        t = phi.transition(u)
        for i in phi.fibre(d).objects:
            if phi_maps[u][i].then(mu[e][t.ob(i)]) != mu[d][i]:
                raise IncompatibleFamily((u, i))
    beta = {kk: {} for kk in k_cat.objects}
    for d in sh.objects:
        for i in phi.fibre(d).objects:
            kd_i = k_legs[d].ob(i)
            for el in x_family[d].sets[i]:
                tgt, val = injections[d][i](el), mu[d][i](el)
                prev = beta[kd_i].get(tgt)
                if prev is not None and prev != val:
                    raise NoSolution(("conflicting seeds", kd_i, tgt, prev, val))
                beta[kd_i][tgt] = val
    changed = True
    while changed:
        changed = False
        for m in k_cat.mor_tokens:
            k1, k2 = k_cat.dom(m), k_cat.cod(m)
            for el, val in list(beta[k1].items()):
                tgt, new = x.fn(m)(el), y.fn(m)(val)
                prev = beta[k2].get(tgt)
                if prev is None:
                    beta[k2][tgt] = new
                    changed = True
                elif prev != new:
                    raise NoSolution(("conflict", m, k1, el, prev, new))
    for kk in k_cat.objects:
        for el in x.sets[kk]:
            if el not in beta[kk]:
                raise NoSolution(("free element", kk, el))
    components = {
        kk: FinFunction(x.sets[kk], y.sets[kk], beta[kk]) for kk in k_cat.objects
    }
    SetNat(x, y, components).check()
    return beta


# -- lan -------------------------------------------------------------------------


def lan_instances(rng):
    """A functor between small categories, a colimit leg of glued chains, or
    the projection of a Grothendieck total (whose tokens hold ``|``), with a
    random diagram on its source."""
    kind = rng.randrange(3)
    if kind == 0:
        f = functor_pairs(rng)
    elif kind == 1:
        kres = colimit_cat(glued_chains(rng.randint(2, 4), rng.randint(2, 4)))
        f = kres.cocone[rng.choice(["l", "s", "r"])]
    else:
        f = groth_co(random_cat_diagram(rng, 3)).projection
    return f, random_set_diagram(rng, f.source, 3)


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_lan_matches_the_every_morphism_oracle(seed):
    f, x = lan_instances(random.Random(seed))
    try:
        got = lan_fields(lan(f, x))
    except DanglingToken as err:
        # two classes of one glued name: the oracle merged them
        assert err.args[0][0] == "colliding lan element tokens"
        return
    assert got == oracle_lan(f, x)


# -- joint_lan_factor --------------------------------------------------------------


def joint_instances(rng):
    """The arguments of joint_lan_factor for the colimit of a family, with
    the target X and the injections (β the identity), the apex of colim X
    and the legs after the injections (β the colimit legs), or the
    injections with one value moved; None if the colimit of the shapes is
    too large."""
    if rng.random() < 0.7:
        t, _, _ = random_diag_family(rng)
    else:
        phi = rng.choice([fixtures.semidirect_diagram(), fixtures.span_push3_diagram()])
        t = guitart_hat(phi, random_set_diagram(rng, groth_co(phi).total, 3))
    try:
        res = colimit_in_diag(t, bound=300)
    except BoundExceeded:  # a gluing whose colimit has a free loop
        return None
    phi, x = t.cat_diagram(), res.result.diagram
    sh, k_cat = phi.shape, x.shape
    injections = {d: dict(j.components) for d, j in res.injections.items()}
    y, mu = x, injections
    kind = rng.randrange(3)
    if kind == 1:
        cocone = colimit_set(x)
        y = constant_diagram(k_cat, cocone.apex).check()
        mu = {
            d: {
                i: fn.then(cocone.legs[res.injections[d].functor_part.ob(i)])
                for i, fn in comps.items()
            }
            for d, comps in injections.items()
        }
    elif kind == 2:
        d = rng.choice(sh.objects)
        i = rng.choice(phi.fibre(d).objects)
        fn = injections[d][i]
        if fn.source.elements:
            moved = {**fn._mapping, rng.choice(fn.source.elements): rng.choice(
                fn.target.elements
            )}
            mu = {**injections, d: {**injections[d], i: FinFunction(
                fn.source, fn.target, moved
            )}}
    return (
        phi,
        k_cat,
        res.shape_colimit.cocone,
        {d: t.diagram_at(d) for d in sh.objects},
        {u: t.phi(u) for u in sh.mor_tokens},
        x,
        injections,
        y,
        mu,
    )


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_joint_lan_factor_matches_the_every_morphism_oracle(seed):
    args = joint_instances(random.Random(seed))
    assume(args is not None)
    got, want = [], []
    new = outcome(lambda: got.append(joint_lan_factor(*args)))
    old = outcome(lambda: want.append(oracle_joint_lan_factor(*args)))
    # a refusal of the same kind; the generators may meet a conflict first
    assert new[0] == old[0]
    if got:
        assert {k: dict(c._mapping) for k, c in got[0].components.items()} == want[0]


# -- joint_lan_factor's refusals, through the library API --------------------------


def on_one(*elements):
    s = FinSet(elements)
    return SetDiagram(CATS["ONE"], {"*": s}, {"1": identity_function(s)}).check()


def point_family(x, y, injection, mu):
    """The arguments of joint_lan_factor over D = K = ONE with fibre ONE and
    X_* = {a, b}, with the injection and μ given as mappings."""
    one, xd = CATS["ONE"], on_one("a", "b")
    ab = xd.sets["*"]
    return (
        CatDiagram(one, {"*": one}, {}),
        one,
        {"*": identity_functor(one)},
        {"*": xd},
        {"1": {"*": identity_function(ab)}},
        x,
        {"*": {"*": FinFunction(ab, x.sets["*"], injection)}},
        y,
        {"*": {"*": FinFunction(ab, y.sets["*"], mu)}},
    )


def test_two_seeds_that_disagree_are_no_solution():
    args = point_family(
        on_one("t"), on_one("p", "q"), {"a": "t", "b": "t"}, {"a": "p", "b": "q"}
    )
    with pytest.raises(NoSolution) as err:
        joint_lan_factor(*args)
    assert err.value.args == (("conflicting seeds", "*", "t", "p", "q"),)


def test_an_element_no_injection_reaches_is_no_solution():
    args = point_family(
        on_one("t", "w"), on_one("p"), {"a": "t", "b": "t"}, {"a": "p", "b": "p"}
    )
    with pytest.raises(NoSolution) as err:
        joint_lan_factor(*args)
    assert err.value.args == (("free element", "*", "w"),)


def test_a_push_that_disagrees_with_a_seed_is_no_solution():
    # K = TWO glued from the discrete D = {0, 1} with fibres ONE; X is
    # s -> t and Y is p -> q in {q, r}, but μ sends t to r
    one, two = CATS["ONE"], CATS["TWO"]

    def on_two(source, target, along):
        s0, s1 = FinSet(source), FinSet(target)
        functions = {"id0": identity_function(s0), "id1": identity_function(s1)}
        functions["a"] = FinFunction(s0, s1, along)
        return SetDiagram(two, {"0": s0, "1": s1}, functions).check()

    x, y = on_two(("s",), ("t",), {"s": "t"}), on_two(("p",), ("q", "r"), {"p": "q"})
    injections = {d: {"*": identity_function(x.sets[d])} for d in "01"}
    mu = {
        "0": {"*": FinFunction(x.sets["0"], y.sets["0"], {"s": "p"})},
        "1": {"*": FinFunction(x.sets["1"], y.sets["1"], {"t": "r"})},
    }
    with pytest.raises(NoSolution) as err:
        joint_lan_factor(
            CatDiagram(discrete(["0", "1"]), {"0": one, "1": one}, {}),
            two,
            {d: constant_functor(one, two, d) for d in "01"},
            {"0": on_one("s"), "1": on_one("t")},
            {"id_" + d: injections[d] for d in "01"},
            x,
            injections,
            y,
            mu,
        )
    assert err.value.args == (("conflict", "a", "0", "s", "r", "q"),)


def test_an_incompatible_family_is_refused_before_any_seed():
    # D = TWO with fibres ONE and φ^a: s -> t, K = ONE; μ_1·φ^a sends s to
    # q, μ_0 sends it to p
    one = CATS["ONE"]
    xd = {"0": on_one("s"), "1": on_one("t")}
    s, t = xd["0"].sets["*"], xd["1"].sets["*"]
    x, y = on_one("t"), on_one("p", "q")
    with pytest.raises(IncompatibleFamily) as err:
        joint_lan_factor(
            CatDiagram(CATS["TWO"], {"0": one, "1": one}, {}),
            one,
            {d: identity_functor(one) for d in "01"},
            xd,
            {
                "id0": {"*": identity_function(s)},
                "id1": {"*": identity_function(t)},
                "a": {"*": FinFunction(s, t, {"s": "t"})},
            },
            x,
            {"0": {"*": FinFunction(s, x.sets["*"], {"s": "t"})},
             "1": {"*": identity_function(t)}},
            y,
            {"0": {"*": FinFunction(s, y.sets["*"], {"s": "p"})},
             "1": {"*": FinFunction(t, y.sets["*"], {"t": "q"})}},
        )
    assert err.value.args == (("a", "*"),)
