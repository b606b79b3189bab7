import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.errors import FibrelabError, SquareNotCommuting
from fibrelab.fibrations import (
    DiagOfFunctor,
    bifibration_check,
    cleavage_from_groth,
    enumerate_cones,
    enumerate_functors,
    factorize,
    fibre,
    free_cofibration,
    free_factor,
    is_cartesian,
    is_cocartesian,
    lift_limit,
    reconstitute,
    search_cleavage,
    verify_split_cofibration,
    verify_split_fibration,
)
from fibrelab.fincat import FinFunctor, compose_functor, identity_functor
from fibrelab.grothendieck import groth_co, groth_contra, opposed_fibres
from fibrelab.randgen import random_bifibration, random_cat_diagram, random_poset

CATS = fixtures.all_categories()
DIAGS = fixtures.all_cat_diagrams()


def _same_up_to_total_tokens(extracted, phi):
    """The extracted indexed category names fibre objects by their total
    tokens "a|x"; compare with the original after stripping the prefix."""
    strip = lambda tok: tok.split("|", 1)[1]
    for a in phi.shape.objects:
        assert sorted(map(strip, extracted.fibre(a).objects)) == sorted(
            phi.fibre(a).objects
        ), a
    for u in phi.shape.mor_tokens:
        te, tp = extracted.transition(u), phi.transition(u)
        for o in te.source.objects:
            assert strip(te.ob(o)) == tp.ob(strip(o)), (u, o)


def test_groth_cocleavage_verifies_as_split_cofibration():
    for name, phi in DIAGS.items():
        data = cleavage_from_groth(groth_co(phi))
        rep, extracted = verify_split_cofibration(data)
        assert rep.ok, (name, rep.witness)
        _same_up_to_total_tokens(extracted, phi)


def test_groth_contra_verifies_as_split_fibration():
    for name, phi in DIAGS.items():
        contra = opposed_fibres(phi)
        data = cleavage_from_groth(groth_contra(contra))
        rep, extracted = verify_split_fibration(data)
        assert rep.ok, (name, rep.witness)
        _same_up_to_total_tokens(extracted, contra)


def test_verify_rejects_tampered_cleavage():
    phi = DIAGS["span-push3"]
    data = cleavage_from_groth(groth_co(phi))
    # replace one cocartesian lifting with a vertical identity: laws break
    key = next(k for k in data.lifting if not data.base_functor.target.is_identity(k[0]))
    e = data.base_functor.source
    data.lifting[key] = e.id_of(e.dom(data.lifting[key]))
    rep, _ = verify_split_cofibration(data)
    assert not rep.ok


def test_search_cleavage_finds_groth_structure():
    phi = DIAGS["span-push3"]
    gr = groth_co(phi)
    data = search_cleavage(gr.projection, "cofibration")
    assert data is not None
    rep, _ = verify_split_cofibration(data)
    assert rep.ok
    # the covariant projection over SPAN is not a fibration: nothing over l
    # can be cartesian-lifted along le against a non-surjective transition
    assert search_cleavage(gr.projection, "fibration") is None


def test_factorize_styles():
    phi = DIAGS["span-push3"]
    gr = groth_co(phi)
    data = cleavage_from_groth(gr)
    rep, _ = verify_split_cofibration(data)  # factorize wants it verified
    assert rep.ok
    e = gr.total
    for m in e.mor_tokens:
        fac = factorize(data, m)
        assert fac.style == "(cocartesian,vertical)"
        assert e.compose(fac.second, fac.first) == m
        assert is_cocartesian(gr.projection, fac.first)
        # second is vertical
        p = gr.projection
        assert p.target.is_identity(p.mor(fac.second))


def test_fibre_of_projection():
    phi = DIAGS["span-push3"]
    gr = groth_co(phi)
    for a in phi.shape.objects:
        fib = fibre(gr.projection, a)
        assert len(fib.objects) == len(phi.fibre(a).objects)
        assert len(fib.morphisms) == len(phi.fibre(a).morphisms)


def test_reconstitute_round_trip_fixtures():
    for name, phi in DIAGS.items():
        rep = reconstitute(cleavage_from_groth(groth_co(phi)))
        assert rep.ok, (name, rep.witness)


def test_free_cofibration_of_identity_is_arrow_category():
    # P↓B for P = Id_SPAN is the arrow category: objects the morphisms,
    # morphisms the commuting squares (11 of them, counted independently
    # in test_fincat.test_comma_identity_identity_is_arrow_like)
    span = CATS["SPAN"]
    free = free_cofibration(identity_functor(span))
    assert len(free.result.total.objects) == 5
    assert len(free.result.total.morphisms) == 11
    rep, _ = verify_split_cofibration(cleavage_from_groth(free.result))
    assert rep.ok
    # H_P embeds E on the identity arrows
    free.embedding.check()
    assert len(set(free.embedding.on_objects.values())) == len(span.objects)


def test_free_factor_universal_property():
    # T = H_P itself factors through the free cofibration via the identity
    span = CATS["SPAN"]
    p = identity_functor(span)
    free = free_cofibration(p)
    qdata = cleavage_from_groth(free.result)
    t_tilde = free_factor(p, identity_functor(span), free.embedding, qdata)
    assert compose_functor(t_tilde, free.embedding) == free.embedding
    # and it preserves the cocleavage (checked inside), so on objects it is
    # the identity of the total category
    assert t_tilde.on_objects == {
        o: o for o in free.result.total.objects
    }


def _bar_token_base():
    """TWO with its first object named "a|b"."""
    from fibrelab.fincat import category

    return category(
        ["a|b", "c"],
        [("ia", "a|b", "a|b"), ("ic", "c", "c"), ("u", "a|b", "c")],
        {"a|b": "ia", "c": "ic"},
        {("ia", "ia"): "ia", ("ic", "ic"): "ic", ("u", "ia"): "u", ("ic", "u"): "u"},
    )


def test_reconstitute_with_a_bar_in_a_base_token():
    from fibrelab.grothendieck import CatDiagram
    from fibrelab.randgen import chain

    base = _bar_token_base()
    phi = CatDiagram(base, {d: chain(2) for d in base.objects}, {}).check()
    rep = reconstitute(cleavage_from_groth(groth_co(phi)))
    assert rep.ok, rep.witness


def test_free_factor_with_a_bar_in_a_base_token():
    base = _bar_token_base()
    p = identity_functor(base)
    free = free_cofibration(p)
    qdata = cleavage_from_groth(free.result)
    t_tilde = free_factor(p, identity_functor(base), free.embedding, qdata)
    assert t_tilde.on_objects == {o: o for o in free.result.total.objects}


def test_free_factor_rejects_non_commuting_square():
    span, two = CATS["SPAN"], CATS["TWO"]
    p = identity_functor(span)
    free = free_cofibration(p)
    qdata = cleavage_from_groth(free.result)
    s_bad = FinFunctor(
        span, span,
        {o: "s" for o in span.objects},
        {m: "ids" for m in span.mor_tokens},
    ).check()
    with pytest.raises(SquareNotCommuting):
        free_factor(p, s_bad, free.embedding, qdata)


def test_bifibration_chain_example():
    rng = random.Random(3)
    theta, delta, gr = random_bifibration(rng)
    witness = bifibration_check(theta, delta)
    assert witness.units and witness.counits


def test_lift_limit_produces_terminal_cone():
    from fibrelab.fibrations import enumerate_cones

    rng = random.Random(5)
    theta, delta, gr = random_bifibration(rng, bases=("TWO",))
    tot = gr.total
    # F: ONE -> E picking any object; the lifted limit is that object's
    # terminal refinement
    from fibrelab.fincat import constant_functor

    f = constant_functor(CATS["ONE"], tot, tot.objects[0])
    cone, rep = lift_limit(theta, delta, f)
    assert rep.ok, rep.witness
    # projection maps the cone onto a base limit cone
    p = gr.projection
    assert p.ob(cone.apex) in p.target.objects


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_random_split_cofibrations_verify_and_reconstitute(seed):
    rng = random.Random(seed)
    phi = random_cat_diagram(rng, max_fibre_objects=3, bases=("TWO", "SPAN"))
    data = cleavage_from_groth(groth_co(phi))
    rep, extracted = verify_split_cofibration(data)
    assert rep.ok
    _same_up_to_total_tokens(extracted, phi)
    assert reconstitute(data).ok


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_random_bifibrations_satisfy_triangle_identities(seed):
    rng = random.Random(seed)
    theta, delta, gr = random_bifibration(rng, max_fibre_objects=3)
    witness = bifibration_check(theta, delta)
    # adjunction data exists for every non-identity base morphism
    base = gr.projection.target
    for u in base.mor_tokens:
        if not base.is_identity(u):
            assert u in witness.units
            assert u in witness.counits


def test_hom_bijection_check_on_embedded_objects():
    # every pair of one-object diagrams E^P(x), E^P(y) over the Grothendieck
    # projections of the shipped covariant diagrams
    checked = 0
    for name in ("span-push3", "semidirect"):
        gr = groth_co(DIAGS[name])
        diag = DiagOfFunctor(gr.projection)
        objs = [diag.embed(x) for x in gr.total.objects]
        for src in objs:
            for tgt in objs:
                rep = diag.hom_bijection_check(cleavage_from_groth(gr), src, tgt)
                assert rep.ok, (name, src[2].on_objects, tgt[2].on_objects, rep.witness)
                checked += rep.stats["pairs_checked"]
    assert checked == 15


# -- the search against product-then-filter oracles --------------------------


def brute_force_functors(i_cat, j_cat):
    """Every object map, then every morphism map, kept when it checks."""
    out = []
    objs = list(i_cat.objects)
    mors = [m for m in i_cat.mor_tokens if not i_cat.is_identity(m)]
    for ob_combo in itertools.product(j_cat.objects, repeat=len(objs)):
        on_objects = dict(zip(objs, ob_combo))
        pools = [
            j_cat.hom(on_objects[i_cat.dom(m)], on_objects[i_cat.cod(m)])
            for m in mors
        ]
        for mor_combo in itertools.product(*pools):
            on_morphisms = dict(zip(mors, mor_combo))
            for a in objs:
                on_morphisms[i_cat.id_of(a)] = j_cat.id_of(on_objects[a])
            try:
                out.append(FinFunctor(i_cat, j_cat, on_objects, on_morphisms).check())
            except FibrelabError:
                continue
    return out


def brute_force_cones(f):
    """Every tuple of legs out of every apex, kept when it commutes."""
    d_cat, c_cat = f.source, f.target
    objs = list(d_cat.objects)
    cones = []
    for apex in c_cat.objects:
        pools = [c_cat.hom(apex, f.ob(d)) for d in objs]
        for combo in itertools.product(*pools):
            legs = dict(zip(objs, combo))
            if all(
                c_cat.compose(f.mor(m), legs[d_cat.dom(m)]) == legs[d_cat.cod(m)]
                for m in d_cat.mor_tokens
            ):
                cones.append((apex, list(legs.items())))
    return cones


def functor_tables(functors):
    return [
        (list(f.on_objects.items()), list(f.on_morphisms.items())) for f in functors
    ]


def _functor_tuples(i_cat, j_cat):
    total = 0
    for ob_combo in itertools.product(j_cat.objects, repeat=len(i_cat.objects)):
        on_objects = dict(zip(i_cat.objects, ob_combo))
        total += math.prod(
            len(j_cat.hom(on_objects[d], on_objects[c]))
            for m, d, c in i_cat.morphisms
            if not i_cat.is_identity(m)
        )
    return total


SOURCES = ("ONE", "TWO", "SPAN", "PAIR", "PUSH3", "Z2", "Z3", "S3")
TOTALS = {
    name: groth_co(phi).total for name, phi in DIAGS.items() if name != "loop-coeq"
}


@st.composite
def category_pairs(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    src = draw(st.sampled_from(SOURCES + ("poset",)))
    src = random_poset(rng, 4) if src == "poset" else CATS[src]
    tgt = draw(st.sampled_from(SOURCES + tuple(TOTALS) + ("poset",)))
    if tgt == "poset":
        tgt = random_poset(rng, 4, prefix="q")
    else:
        tgt = TOTALS.get(tgt) or CATS[tgt]
    assume(_functor_tuples(src, tgt) <= 20000)
    return src, tgt


@given(category_pairs())
@settings(max_examples=80, deadline=None)
def test_enumerate_functors_matches_brute_force(pair):
    src, tgt = pair
    found = enumerate_functors(src, tgt)
    assert functor_tables(found) == functor_tables(brute_force_functors(src, tgt))


@given(category_pairs(), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_enumerate_cones_matches_brute_force(pair, pick):
    src, tgt = pair
    functors = enumerate_functors(src, tgt)
    assume(functors)
    f = functors[pick % len(functors)]
    cones = [(c.apex, list(c.legs.items())) for c in enumerate_cones(f)]
    assert cones == brute_force_cones(f)


# -- typed errors, with and without assertions ---------------------------------

_TYPED_ERRORS = r'''
import sys
from fibrelab import fibrations, fixtures
from fibrelab.fibrations import (
    CleavageData, bifibration_check, cleavage_from_groth, factorize, lift_limit,
    search_cleavage, verify_split_cofibration,
)
from fibrelab.fincat import FinFunctor
from fibrelab.grothendieck import CatDiagram, groth_co
from fibrelab.randgen import chain, monotone_functor

def outcome(run):
    try:
        run()
    except Exception as exc:
        return "%s %r" % (type(exc).__name__, exc.args[0])
    return "no error"

case = sys.argv[1]
two = fixtures.two()
phi = CatDiagram(two, {"0": chain(3), "1": chain(3)}, {
    "a": monotone_functor(chain(3), chain(3), {"c0": "c0", "c1": "c0", "c2": "c1"})})
gr = groth_co(phi)
p = gr.projection
delta = cleavage_from_groth(gr)
theta = search_cleavage(p, "fibration")
if case == "direction":
    print(outcome(lambda: CleavageData(p, "sideways", {})))
elif case == "different P":
    other = cleavage_from_groth(groth_co(fixtures.span_push3_diagram()))
    print(outcome(lambda: bifibration_check(theta, other)))
elif case == "factorize":
    if not verify_split_cofibration(delta)[0]:
        sys.exit("cocleavage not verified")
    delta.lifting[("a", "0|c1")] = "id0|c1|idc1"
    print(outcome(lambda: factorize(delta, "a|c1|idc0")))
elif case == "lift_limit":
    witness = bifibration_check(theta, delta)
    fibrations.bifibration_check = lambda t, d: witness
    # θ^a at 1|c0 replaced by a lifting whose domain is another object
    theta.lifting[("a", "1|c0")] = "a|c0|idc0"
    f = FinFunctor(two, gr.total, {"0": "0|c1", "1": "1|c0"},
                   {"id0": "id0|c1|idc1", "id1": "id1|c0|idc0", "a": "a|c1|idc0"})
    print(outcome(lambda: lift_limit(theta, delta, f.check())))
'''


@pytest.mark.parametrize("optimize", [False, True], ids=["asserts", "-O"])
@pytest.mark.parametrize(
    "case, expected",
    [
        ("direction", "ShapeMismatch ('unknown cleavage direction', 'sideways')"),
        ("different P", "ShapeMismatch ('cleavages over different P',)"),
        (
            "factorize",
            "UnverifiedCleavage ('cocartesian filler not unique', 'a|c1|idc0', [])",
        ),
        (
            "lift_limit",
            "UnverifiedCleavage ('cartesian filler for fibre diagram', 'a', [])",
        ),
    ],
)
def test_typed_errors_hold_with_and_without_asserts(case, expected, optimize):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _TYPED_ERRORS, case],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(expected), proc.stdout
