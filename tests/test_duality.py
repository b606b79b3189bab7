"""The cartesian and contravariant halves are derived from the cocartesian
and covariant ones through ``op``.

The direct implementations they replaced live on here as oracles: the
filler search for cartesian morphisms, the fibration branches of the
cleavage search, of split verification (with its transport functor), of
factorization and of reconstitution, and the contravariant Grothendieck
construction with its own composition loop, and the counit search of
bifibration checking (now the unit search on P^op).  The tests compare the
derived code with them, in order and field by field, on the fixture
diagrams, random poset diagrams and chain bifibrations, and on corrupted
cleavages that reach every failure kind of split verification and the
unit and counit failures of bifibration checking.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import fibrations, fixtures
from fibrelab.errors import (
    FibrelabError,
    NonFunctorialDiagram,
    NonFunctorialTransition,
)
from fibrelab.fibrations import (
    CleavageData,
    bifibration_check,
    cleavage_from_groth,
    factorize,
    fibre,
    is_cartesian,
    reconstitute,
    search_cleavage,
    verify_split_cofibration,
    verify_split_fibration,
)
from fibrelab.fincat import FinCategory, FinFunctor, category, opposite
from fibrelab.grothendieck import (
    CatDiagram,
    GrothendieckResult,
    groth_co,
    groth_contra,
    obj_token,
    opposed_fibres,
)
from fibrelab.randgen import (
    chain,
    monotone_functor,
    poset_category,
    random_bifibration,
    random_cat_diagram,
)
from fibrelab.report import failed, passed

CATS = fixtures.all_categories()
DIAGS = fixtures.all_cat_diagrams()


# -- the direct implementations, kept as oracles ------------------------------


def oracle_is_cartesian(p, m):
    """Exhaustive unique-filler check for P-cartesianness of m."""
    e, b = p.source, p.target
    x, y = e.dom(m), e.cod(m)
    u = p.mor(m)
    for z in e.objects:
        for h in e.hom(z, y):
            for w in b.hom(p.ob(z), p.ob(x)):
                if b.compose(u, w) != p.mor(h):
                    continue
                fillers = [
                    t
                    for t in e.hom(z, x)
                    if e.compose(m, t) == h and p.mor(t) == w
                ]
                if len(fillers) != 1:
                    return failed(
                        "is_cartesian",
                        {"morphism": m, "test": [z, h, w], "fillers": fillers},
                    )
    return passed("is_cartesian", morphism=m)


def oracle_search_fibration(p):
    """The smallest-token cartesian lifting per (u, y), or None."""
    e, b = p.source, p.target
    lifting = {}
    for u in b.mor_tokens:
        side = b.cod(u)
        for y in e.objects:
            if p.ob(y) != side:
                continue
            found = sorted(
                m for m in e.into(y) if p.mor(m) == u and oracle_is_cartesian(p, m)
            )
            if not found:
                return None
            lifting[(u, y)] = found[0]
    return lifting


def oracle_transport(p, lifting, u, fibres):
    """u*: E_b -> E_a by unique vertical filler search."""
    e, b = p.source, p.target
    src, tgt = fibres[b.cod(u)], fibres[b.dom(u)]
    on_objects = {y: e.dom(lifting[(u, y)]) for y in src.objects}
    on_morphisms = {}
    for j in src.mor_tokens:
        y, y2 = src.dom(j), src.cod(j)
        want = e.compose(j, lifting[(u, y)])
        cands = [
            t
            for t in tgt.hom(on_objects[y], on_objects[y2])
            if e.compose(lifting[(u, y2)], t) == want
        ]
        if len(cands) != 1:
            raise NonFunctorialTransition((u, j, cands))
        on_morphisms[j] = cands[0]
    return FinFunctor(src, tgt, on_objects, on_morphisms).check()


def oracle_verify_fibration(p, lifting, cartesian=None):
    """(report, contravariant CatDiagram or None) for a cleavage of P;
    ``cartesian`` replaces the filler check when given."""
    cartesian = cartesian or oracle_is_cartesian
    name = "verify_split_fibration"
    p.check()
    e, b = p.source, p.target
    fibres = {a: fibre(p, a) for a in b.objects}
    for u in b.mor_tokens:
        for z in fibres[b.cod(u)].objects:
            m = lifting.get((u, z))
            if m is None or not e.has_mor(m):
                return failed(name, {"missing_lifting": [u, z]}), None
            if p.mor(m) != u:
                return failed(name, {"lifting_over_wrong_base": [u, z, m]}), None
            if e.cod(m) != z:
                return failed(name, {"lifting_endpoint": [u, z, m]}), None
            r = cartesian(p, m)
            if not r:
                witness = {"not_cartesian": [u, z, m], "detail": r.witness}
                return failed(name, witness), None
    for a in b.objects:
        for z in fibres[a].objects:
            if lifting[(b.id_of(a), z)] != e.id_of(z):
                return failed(name, {"identity_lifting": [a, z]}), None
    transitions = {}
    try:
        for u in b.mor_tokens:
            transitions[u] = oracle_transport(p, lifting, u, fibres)
    except NonFunctorialTransition as exc:
        return failed(name, {"non_functorial_transition": list(exc.args)}), None
    for v, u in b.composable_pairs():
        vu = b.compose(v, u)
        for z in fibres[b.cod(v)].objects:
            vz = transitions[v].ob(z)
            if lifting[(vu, z)] != e.compose(lifting[(v, z)], lifting[(u, vz)]):
                return failed(name, {"split_law": [v, u, z]}), None
    phi = CatDiagram(b, fibres, transitions, "contravariant").check()
    stats = dict(base_morphisms=len(b.morphisms), total_morphisms=len(e.morphisms))
    return passed(name, **stats), phi


def oracle_split_law_violations(p, lifting):
    """Every [v, u, z] that breaks the split law, in the oracle's order."""
    e, b = p.source, p.target
    fibres = {a: fibre(p, a) for a in b.objects}
    transitions = {u: oracle_transport(p, lifting, u, fibres) for u in b.mor_tokens}
    out = []
    for v, u in b.composable_pairs():
        vu = b.compose(v, u)
        for z in fibres[b.cod(v)].objects:
            vz = transitions[v].ob(z)
            if lifting[(vu, z)] != e.compose(lifting[(v, z)], lifting[(u, vz)]):
                out.append([v, u, z])
    return out


def oracle_factorize_fibration(p, lifting, f):
    """f = θ^u_y ∘ ε_f with ε_f vertical: (first, second, style)."""
    e, b = p.source, p.target
    theta = lifting[(p.mor(f), e.cod(f))]
    id_a = b.id_of(p.ob(e.dom(f)))
    cands = [
        t
        for t in e.hom(e.dom(f), e.dom(theta))
        if p.mor(t) == id_a and e.compose(theta, t) == f
    ]
    assert len(cands) == 1
    return cands[0], theta, "(vertical,cartesian)"


def oracle_groth_contra(phi):
    """The contravariant construction, built from the tables."""
    if phi.variance != "contravariant":
        raise NonFunctorialDiagram(("groth_contra expects a contravariant diagram",))
    phi.check()
    sh = phi.shape
    objects = [obj_token(a, x) for a in sh.objects for x in phi.fibre(a).objects]
    morphisms, mor_data, token_of = [], {}, {}
    for u, a, b in sh.morphisms:
        t = phi.transition(u)
        fa = phi.fibre(a)
        for y in phi.fibre(b).objects:
            for f in fa.into(t.ob(y)):
                m = "%s|%s|%s" % (u, f, y)
                morphisms.append((m, obj_token(a, fa.dom(f)), obj_token(b, y)))
                mor_data[m] = (u, fa.dom(f), f, y)
                token_of[(u, f, y)] = m
    identities = {
        obj_token(a, x): token_of[(sh.id_of(a), phi.fibre(a).id_of(x), x)]
        for a in sh.objects
        for x in phi.fibre(a).objects
    }
    dom_of = {m: d for m, d, _ in morphisms}
    into = {}
    for m, d, c in morphisms:
        into.setdefault(c, []).append(m)
    composition = {}
    for m2 in mor_data:
        v, _, g, z = mor_data[m2]
        for m1 in into.get(dom_of[m2], ()):
            u, _, f, _ = mor_data[m1]
            fa = phi.fibre(sh.dom(u))
            comp_f = fa.compose(phi.transition(u).mor(g), f)
            composition[(m2, m1)] = token_of[(sh.compose(v, u), comp_f, z)]
    total = FinCategory(objects, morphisms, identities, composition).check()
    projection = FinFunctor(
        total,
        sh,
        {obj_token(a, x): a for a in sh.objects for x in phi.fibre(a).objects},
        {m: mor_data[m][0] for m in mor_data},
    ).check()
    cleavage = {}
    for u, a, b in sh.morphisms:
        t = phi.transition(u)
        for y in phi.fibre(b).objects:
            cleavage[(u, y)] = token_of[(u, phi.fibre(a).id_of(t.ob(y)), y)]
    injections = {}
    for b in sh.objects:
        fb = phi.fibre(b)
        injections[b] = FinFunctor(
            fb,
            total,
            {y: obj_token(b, y) for y in fb.objects},
            {h: token_of[(sh.id_of(b), h, fb.cod(h))] for h in fb.mor_tokens},
        ).check()
    return GrothendieckResult(phi, total, projection, cleavage, injections, mor_data)


def oracle_reconstitute_fibration(p, lifting):
    rep, phi = oracle_verify_fibration(p, lifting)
    if not rep:
        return rep
    e = p.source
    gr = oracle_groth_contra(phi)
    on_objects = {tok: tok.split("|", 1)[1] for tok in gr.total.objects}
    on_morphisms = {
        m: e.compose(lifting[(u, y)], fmor)
        for m, (u, x, fmor, y) in gr.mor_data.items()
    }
    k = FinFunctor(gr.total, e, on_objects, on_morphisms).check()
    assert sorted(on_objects.values()) == sorted(e.objects)
    assert sorted(on_morphisms.values()) == sorted(e.mor_tokens)
    for m in gr.mor_data:
        assert p.mor(on_morphisms[m]) == gr.projection.mor(m)
    for key, c in gr.cleavage.items():
        assert k.mor(c) == lifting[key]
    return passed(
        "reconstitute",
        direction="fibration",
        objects=len(e.objects),
        morphisms=len(e.morphisms),
    )


# -- comparison helpers -------------------------------------------------------


def oracle_bifibration_check(theta, delta):
    """bifibration_check with the unit and the counit searched separately."""
    assert theta.base_functor == delta.base_functor, "cleavages over different P"
    p = theta.base_functor
    e, b = p.source, p.target
    rep_f, phi_f = fibrations.verify_split_fibration(theta)
    if not rep_f:
        raise fibrations.UnverifiedCleavage(("fibration", rep_f.witness))
    rep_c, phi_c = fibrations.verify_split_cofibration(delta)
    if not rep_c:
        raise fibrations.UnverifiedCleavage(("cofibration", rep_c.witness))
    fibres = phi_c.fibres
    units, counits = {}, {}
    for u in b.mor_tokens:
        a_obj, b_obj = b.dom(u), b.cod(u)
        push, pull = phi_c.transition(u), phi_f.transition(u)
        id_a, id_b = b.id_of(a_obj), b.id_of(b_obj)
        eta = {}
        for x in fibres[a_obj].objects:
            want = delta.lifting[(u, x)]
            cands = [
                t
                for t in e.hom(x, pull.ob(push.ob(x)))
                if p.mor(t) == id_a
                and e.compose(theta.lifting[(u, push.ob(x))], t) == want
            ]
            if len(cands) != 1:
                raise fibrations.TriangleViolation((u, "unit", x, cands))
            eta[x] = cands[0]
        eps = {}
        for y in fibres[b_obj].objects:
            want = theta.lifting[(u, y)]
            cands = [
                t
                for t in e.hom(push.ob(pull.ob(y)), y)
                if p.mor(t) == id_b
                and e.compose(t, delta.lifting[(u, pull.ob(y))]) == want
            ]
            if len(cands) != 1:
                raise fibrations.TriangleViolation((u, "counit", y, cands))
            eps[y] = cands[0]
        # triangle identities
        for x in fibres[a_obj].objects:
            if e.compose(eps[push.ob(x)], push.mor(eta[x])) != e.id_of(push.ob(x)):
                raise fibrations.TriangleViolation((u, "push-triangle", x))
        for y in fibres[b_obj].objects:
            if e.compose(pull.mor(eps[y]), eta[pull.ob(y)]) != e.id_of(pull.ob(y)):
                raise fibrations.TriangleViolation((u, "pull-triangle", y))
        # hom bijections through the cleavages
        for x in fibres[a_obj].objects:
            for y in fibres[b_obj].objects:
                over_u = [
                    m for m in e.hom(x, y) if p.mor(m) == u
                ]
                via_pull = {
                    e.compose(theta.lifting[(u, y)], t)
                    for t in fibres[a_obj].hom(x, pull.ob(y))
                }
                via_push = {
                    e.compose(s, delta.lifting[(u, x)])
                    for s in fibres[b_obj].hom(push.ob(x), y)
                }
                if not (
                    via_pull == set(over_u) == via_push
                    and len(via_pull)
                    == len(fibres[a_obj].hom(x, pull.ob(y)))
                    and len(via_push)
                    == len(fibres[b_obj].hom(push.ob(x), y))
                ):
                    raise fibrations.HomBijectionFailure((u, x, y))
        units[u], counits[u] = eta, eps
    return fibrations.BifibrationWitness(
        units,
        counits,
        fibres,
        {u: phi_c.transition(u) for u in b.mor_tokens},
        {u: phi_f.transition(u) for u in b.mor_tokens},
    )


def report_fields(r):
    return (r.check_name, r.status, r.witness, r.stats)


def category_fields(c):
    return (
        c.objects,
        c.morphisms,
        list(c.identities.items()),
        dict(c.composition),
    )


def functor_fields(f):
    return (
        category_fields(f.source),
        category_fields(f.target),
        list(f.on_objects.items()),
        list(f.on_morphisms.items()),
    )


def diagram_fields(phi):
    return (
        category_fields(phi.shape),
        phi.variance,
        [(a, category_fields(c)) for a, c in phi.fibres.items()],
        [(u, functor_fields(t)) for u, t in phi.transitions.items()],
    )


def result_fields(gr):
    return (
        category_fields(gr.total),
        functor_fields(gr.projection),
        list(gr.cleavage.items()),
        [(a, functor_fields(j)) for a, j in gr.injections.items()],
        list(gr.mor_data.items()),
    )


def halving_bifibration(base_name, k):
    """chain(k) fibres over a fixture base, every transition c_i -> c_(i//2)."""
    base = CATS[base_name]
    fibres = {d: chain(k) for d in base.objects}
    half = {"c%d" % i: "c%d" % (i // 2) for i in range(k)}
    transitions = {
        u: monotone_functor(fibres[d], fibres[e], half)
        for u, d, e in base.morphisms
        if not base.is_identity(u)
    }
    return CatDiagram(base, fibres, transitions, "covariant")


def covariant_diagram(seed):
    """A fixture, random poset or halving diagram, chosen by the seed."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 0:
        return list(DIAGS.values())[rng.randrange(len(DIAGS))]
    if kind == 1:
        return random_cat_diagram(rng, max_fibre_objects=3)
    if kind == 2:
        return random_bifibration(rng, max_fibre_objects=3)[2].diagram
    return halving_bifibration(rng.choice(["TWO", "SPAN", "PAIR"]), rng.randint(1, 4))


def fibrations_of(phi):
    """Functors to search as fibrations: the covariant projection of the
    diagram and the contravariant one of its pointwise opposite."""
    return [groth_co(phi).projection, groth_contra(opposed_fibres(phi)).projection]


def same_verification(p, lifting, cartesian=None):
    """Compare verify_split_fibration with the oracle; return the report."""
    data = CleavageData(p, "fibration", dict(lifting))
    rep, phi = verify_split_fibration(data)
    want, want_phi = oracle_verify_fibration(p, lifting, cartesian)
    assert report_fields(rep) == report_fields(want)
    assert data.verified == bool(want)
    if want_phi is None:
        assert phi is None
    else:
        assert diagram_fields(phi) == diagram_fields(want_phi)
    return rep, want_phi


# -- the tests ----------------------------------------------------------------


def test_op_is_cached_involutive_and_inherits_check():
    c = chain(3)
    assert c.op is c.op and c.op.op is c
    assert c.op.objects == c.objects and c.op.mor_tokens == c.mor_tokens
    for t, d, cc in c.morphisms:
        assert (c.op.dom(t), c.op.cod(t)) == (cc, d)
    for (g, f), gf in c.composition.items():
        assert c.op.compose(f, g) == gf
    assert c._checked and c.op._checked
    unchecked = FinCategory(c.objects, c.morphisms, c.identities, c.composition)
    op = unchecked.op
    assert not op._checked
    unchecked.check()
    assert op._checked
    assert opposite(c) is c.op
    f = groth_co(DIAGS["span-push3"]).projection
    assert f.op.source is f.source.op and f.op.target is f.target.op
    assert f.op.on_objects == f.on_objects and f.op.on_morphisms == f.on_morphisms


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cartesian_and_searched_cleavages_match_the_oracle(seed):
    for p in fibrations_of(covariant_diagram(seed)):
        for m in p.source.mor_tokens:
            got = is_cartesian(p, m)
            assert report_fields(got) == report_fields(oracle_is_cartesian(p, m))
        data = search_cleavage(p, "fibration")
        want = oracle_search_fibration(p)
        if want is None:
            assert data is None
            continue
        assert data.base_functor is p and data.direction == "fibration"
        assert list(data.lifting.items()) == list(want.items())


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_verification_factorization_and_reconstitution_match_the_oracle(seed):
    phi = covariant_diagram(seed)
    contra = opposed_fibres(phi)
    cleavages = [cleavage_from_groth(groth_contra(contra))]
    searched = search_cleavage(groth_co(phi).projection, "fibration")
    if searched is not None:
        cleavages.append(searched)
    for data in cleavages:
        p, lifting = data.base_functor, data.lifting
        rep, _ = same_verification(p, lifting)
        assert rep.ok
        data.verified = True
        for f in p.source.mor_tokens:
            fac = factorize(data, f)
            assert (fac.first, fac.second, fac.style) == oracle_factorize_fibration(
                p, lifting, f
            )
        fresh = CleavageData(p, "fibration", dict(lifting))
        assert report_fields(reconstitute(fresh)) == report_fields(
            oracle_reconstitute_fibration(p, lifting)
        )


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_groth_contra_matches_the_oracle(seed):
    contra = opposed_fibres(covariant_diagram(seed))
    got, want = groth_contra(contra), oracle_groth_contra(contra)
    assert result_fields(got) == result_fields(want)
    assert got.diagram is contra and got.variance == "contravariant"
    # the total is trusted, and it is the checked category the oracle built
    assert got.total._checked
    got.total._checked = False
    got.total.check()


def piped_contra_diagram(over_one, parallel):
    """A contravariant diagram on TWO whose tokens contain "|": Φ1 discrete
    on ``over_one``, Φ0 with the ``parallel`` arrows p -> q, Φa constant q."""
    fibre1 = category(over_one, [("i" + y, y, y) for y in over_one],
                      {y: "i" + y for y in over_one}, {})
    fibre0 = category(
        ["p", "q"],
        [("ip", "p", "p"), ("iq", "q", "q")] + [(f, "p", "q") for f in parallel],
        {"p": "ip", "q": "iq"},
        {},
    )
    phia = FinFunctor(
        fibre1, fibre0, {y: "q" for y in over_one}, {"i" + y: "iq" for y in over_one}
    ).check()
    return CatDiagram(
        CATS["TWO"], {"0": fibre0, "1": fibre1}, {"a": phia}, "contravariant"
    ).check()


def test_groth_contra_refuses_colliding_tokens_as_the_oracle_does():
    # (a, b|c, d) and (a, b, c|d) are both named "a|b|c|d"; their
    # covariant names "a|d|b|c" and "a|c|d|b" differ
    contra = piped_contra_diagram(["d", "c|d"], ["b|c", "b"])
    with pytest.raises(FibrelabError) as want:
        oracle_groth_contra(contra)
    with pytest.raises(type(want.value)) as got:
        groth_contra(contra)
    assert got.value.args == want.value.args


def test_groth_contra_accepts_colliding_covariant_names():
    # (a, b|c, d) and (a, c, d|b) would both be "a|d|b|c" under the
    # covariant naming; their contravariant names differ
    contra = piped_contra_diagram(["d", "d|b"], ["b|c", "c"])
    got, want = groth_contra(contra), oracle_groth_contra(contra)
    assert result_fields(got) == result_fields(want)


def test_groth_contra_rejects_a_covariant_diagram():
    with pytest.raises(NonFunctorialDiagram):
        groth_contra(DIAGS["span-push3"])


def _corrupt(rng, p, lifting):
    """One random change to a cleavage of P."""
    e, b = p.source, p.target
    out = dict(lifting)
    key = rng.choice(sorted(out))
    u, y = key
    mode = rng.randrange(5)
    if mode == 0:
        del out[key]
    elif mode == 1:
        out[key] = rng.choice(e.mor_tokens)
    elif mode == 2:
        # another morphism over u into y
        over = [m for m in e.into(y) if p.mor(m) == u and m != out[key]]
        if over:
            out[key] = rng.choice(over)
    elif mode == 3:
        # precompose with a vertical morphism, so the lifting stays over u
        vertical = [t for t in e.into(e.dom(out[key])) if b.is_identity(p.mor(t))]
        out[key] = e.compose(out[key], rng.choice(vertical))
    else:
        # swap with the lifting of another key over the same base morphism
        same = [k for k in sorted(out) if k[0] == u and k != key]
        if same:
            other = rng.choice(same)
            out[key], out[other] = out[other], out[key]
    return out


FAILURE_KINDS = {
    "missing_lifting",
    "lifting_over_wrong_base",
    "lifting_endpoint",
    "not_cartesian",
    "identity_lifting",
    "non_functorial_transition",
    "split_law",
}


def _corruption_cases():
    """Canonical cleavages (P, lifting) of the contravariant totals of every
    fixture diagram and of random and halving diagrams."""
    diagrams = list(DIAGS.values()) + [covariant_diagram(s) for s in range(1, 24)]
    cases = []
    for phi in diagrams:
        data = cleavage_from_groth(groth_contra(opposed_fibres(phi)))
        cases.append((data.base_functor, data.lifting))
    return cases


def _compare_corrupted(p, bad, cartesian, seen, reordered):
    """Verify a corrupted cleavage both ways and compare the failures."""
    data = CleavageData(p, "fibration", dict(bad))
    try:
        want, _ = oracle_verify_fibration(p, bad, cartesian)
    except FibrelabError as exc:
        # only reachable when non-cartesian liftings pass as cartesian
        with pytest.raises(type(exc)):
            verify_split_fibration(data)
        return
    rep, _ = verify_split_fibration(data)
    if not want.ok:
        kind = next(k for k in want.witness if k in FAILURE_KINDS)
        seen.add(kind)
        if kind == "split_law" and rep.witness != want.witness:
            # the derived check walks the composable pairs of B^op, inner
            # first, so it can meet another violation of the law first
            violations = oracle_split_law_violations(p, bad)
            assert want.witness["split_law"] == violations[0]
            assert rep.witness["split_law"] in violations
            assert rep.witness.keys() == want.witness.keys()
            reordered.append((rep.witness, want.witness))
            return
    assert report_fields(rep) == report_fields(want)


def _always_cartesian(p, m):
    return passed("is_cartesian", morphism=m)


def test_corrupted_cleavages_fail_as_the_oracle_does(monkeypatch):
    rng = random.Random(11)
    cases = _corruption_cases()
    seen, reordered = set(), []
    for p, lifting in cases:
        for _ in range(25):
            _compare_corrupted(p, _corrupt(rng, p, lifting), None, seen, reordered)
    # with the filler check passing every lifting, corruptions get past it
    # to the transition functors and the split law
    monkeypatch.setattr(fibrations, "is_cocartesian", _always_cartesian)
    for p, lifting in cases:
        for _ in range(25):
            bad = _corrupt(rng, p, lifting)
            _compare_corrupted(p, bad, _always_cartesian, seen, reordered)
    assert seen == FAILURE_KINDS


def test_split_law_first_violation_follows_the_composable_pairs_of_b_op():
    # a bowtie base a, d < b < c, e with Z2 fibres and identity transitions:
    # twisting the liftings of d<c and a<e by the non-identity element s
    # keeps them cartesian and breaks the split law at exactly two pairs,
    # (b<c, d<b) and (b<e, a<b)
    edges = {("a", "b"), ("d", "b"), ("b", "c"), ("b", "e")}
    edges |= {(x, z) for x, y in edges for y2, z in edges if y == y2}
    base = poset_category("adbce", lambda x, y: x == y or (x, y) in edges)
    z2 = fixtures.z2()
    phi = CatDiagram(base, {x: z2 for x in base.objects}, {}, "contravariant")
    data = cleavage_from_groth(groth_contra(phi))
    e = data.base_functor.source
    for u, y in (("d<c", "c|*"), ("a<e", "e|*")):
        twist = "%s|s|*" % base.id_of(u[0])
        data.lifting[(u, y)] = e.compose(data.lifting[(u, y)], twist)
    p, lifting = data.base_functor, dict(data.lifting)
    assert oracle_split_law_violations(p, lifting) == [
        ["b<c", "d<b", "c|*"],
        ["b<e", "a<b", "e|*"],
    ]
    # the oracle visits the outer morphism first and meets (b<c, d<b); the
    # derived check visits the inner one first (the outer one of B^op) and
    # meets (b<e, a<b), still reported as [outer, inner, z] in B
    want, _ = oracle_verify_fibration(p, lifting)
    assert want.witness == {"split_law": ["b<c", "d<b", "c|*"]}
    rep, _ = verify_split_fibration(data)
    assert rep.witness == {"split_law": ["b<e", "a<b", "e|*"]}
    assert rep.check_name == want.check_name and not rep.ok


def test_non_functorial_transition_lists_every_candidate(monkeypatch):
    # over TWO, fibre 0 has an idempotent e on w with f∘e = f, and u* picks
    # z; a lifting (a, f) that passes as cartesian makes both id_w and e
    # fillers, which the witness lists in hom-set order
    c = category(
        ["w", "z"],
        [("idw", "w", "w"), ("e", "w", "w"), ("f", "w", "z"), ("idz", "z", "z")],
        {"w": "idw", "z": "idz"},
        {("e", "e"): "e", ("f", "e"): "f"},
    )
    one = fixtures.one()
    pick_z = FinFunctor(one, c, {"*": "z"}, {"1": "idz"})
    fibres = {"0": c, "1": one}
    phi = CatDiagram(fixtures.two(), fibres, {"a": pick_z}, "contravariant")
    data = cleavage_from_groth(groth_contra(phi))
    data.lifting[("a", "1|*")] = "a|f|*"
    monkeypatch.setattr(fibrations, "is_cocartesian", _always_cartesian)
    rep, _ = same_verification(data.base_functor, data.lifting, _always_cartesian)
    witness = ("a", "id1|1|*", ["id0|idw|w", "id0|e|w"])
    assert rep.witness == {"non_functorial_transition": [witness]}


def bifibration_outcome(check, theta, delta):
    try:
        return "witness", check(theta, delta)
    except (FibrelabError, KeyError) as exc:
        return type(exc).__name__, exc.args


def test_bifibration_units_and_counits_match_the_oracle(monkeypatch):
    cases = [random_bifibration(random.Random(s), 3)[:2] for s in range(8)]
    for base_name in ("TWO", "SPAN", "PAIR"):
        gr = groth_co(halving_bifibration(base_name, 4))
        theta = search_cleavage(gr.projection, "fibration")
        cases.append((theta, cleavage_from_groth(gr)))
    rng = random.Random(3)
    kinds = set()
    for theta, delta in cases:
        assert bifibration_check(theta, delta) == oracle_bifibration_check(
            theta, delta
        )
        # with both verifications passing, corrupted liftings reach the
        # unit and counit searches
        honest = verify_split_fibration(theta), verify_split_cofibration(delta)
        with monkeypatch.context() as patch:
            patch.setattr(fibrations, "verify_split_fibration", lambda d: honest[0])
            patch.setattr(fibrations, "verify_split_cofibration", lambda d: honest[1])
            p = theta.base_functor
            for _ in range(30):
                bad_theta = CleavageData(
                    p, "fibration", _corrupt(rng, p, theta.lifting)
                )
                bad_delta = CleavageData(
                    p, "cofibration", _corrupt(rng, p, delta.lifting)
                )
                for pair in ((bad_theta, delta), (theta, bad_delta)):
                    got = bifibration_outcome(bifibration_check, *pair)
                    assert got == bifibration_outcome(oracle_bifibration_check, *pair)
                    if got[0] == "TriangleViolation":
                        kinds.add(got[1][0][1])
    assert {"unit", "counit"} <= kinds


def test_unit_violation_lists_every_candidate(monkeypatch):
    # over TWO, fibre 0 has an idempotent e on w with e∘e = e, and u* picks
    # w; the liftings θ^a_* = δ^a_w = (a, e) make both id_w and e solve
    # θ∘t = δ, which the witness lists in hom-set order
    c = category(
        ["w", "z"],
        [("idw", "w", "w"), ("e", "w", "w"), ("f", "w", "z"), ("idz", "z", "z")],
        {"w": "idw", "z": "idz"},
        {("e", "e"): "e", ("f", "e"): "f"},
    )
    one, two = fixtures.one(), fixtures.two()
    pick_w = FinFunctor(one, c, {"*": "w"}, {"1": "idw"})
    phi = CatDiagram(two, {"0": c, "1": one}, {"a": pick_w}, "contravariant")
    theta = cleavage_from_groth(groth_contra(phi))
    honest = verify_split_fibration(theta)
    fibres = honest[1].fibres
    push = FinFunctor(
        fibres["0"],
        fibres["1"],
        {x: "1|*" for x in fibres["0"].objects},
        {m: "id1|1|*" for m in fibres["0"].mor_tokens},
    )
    pushes = CatDiagram(two, fibres, {"a": push})
    monkeypatch.setattr(fibrations, "verify_split_fibration", lambda d: honest)
    monkeypatch.setattr(
        fibrations,
        "verify_split_cofibration",
        lambda d: (passed("verify_split_cofibration"), pushes),
    )
    # the identity liftings serve both directions
    lifting = {k: m for k, m in theta.lifting.items() if k[0] != "a"}
    delta = CleavageData(theta.base_functor, "cofibration", lifting)
    theta.lifting[("a", "1|*")] = delta.lifting[("a", "0|w")] = "a|e|*"
    witness = ("a", "unit", "0|w", ["id0|idw|w", "id0|e|w"])
    want = ("TriangleViolation", (witness,))
    assert bifibration_outcome(bifibration_check, theta, delta) == want
    assert bifibration_outcome(oracle_bifibration_check, theta, delta) == want
