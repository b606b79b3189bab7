"""The fibration layer reads indexes instead of scanning; the scans it
replaced live on here as oracles.

- ``is_cocartesian`` decides a pass by counting (t ↦ (t∘m, Pt) one to one
  onto the pairs (h, w)); the oracle is the loop over z, h, w and the
  fillers, which still runs for every failure and names its witness.
- ``fibres`` extracts every fibre in one pass over E; the oracle scans E
  once per base object.
- ``_slice_fibre`` and ``_groth_co`` read composites from the morphisms
  into the outer one's domain; the oracles loop over all pairs, or look
  every table up inside the inner loop.
- ``product`` computes each factor composite once per composable pair.

The tests require equal results, order included, on the fixtures, random
poset diagrams, chain and halving bifibrations, functors between small
categories, and corrupted cleavages that reach every failure kind of
split verification.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import fibrations, fixtures
from fibrelab.errors import NonFunctorialTransition
from fibrelab.fibrations import (
    CleavageData,
    _transport_functor,
    cleavage_from_groth,
    enumerate_functors,
    fibre,
    fibres,
    free_cofibration,
    is_cartesian,
    is_cocartesian,
    search_cleavage,
    verify_split_cofibration,
    verify_split_fibration,
)
from fibrelab.fincat import FinCategory, FinFunctor, category, product
from fibrelab.grothendieck import (
    CatDiagram,
    GrothendieckResult,
    groth_co,
    groth_contra,
    obj_token,
    opposed_fibres,
)
from fibrelab.randgen import random_bifibration, random_cat_diagram, random_poset
from fibrelab.report import failed, passed
from test_golden_reports import halving_bifibration

CATS = fixtures.all_categories()
DIAGS = fixtures.all_cat_diagrams()


# -- the scans, kept as oracles -------------------------------------------------


def oracle_fibre(p, b):
    e = p.source
    objects = [x for x in e.objects if p.ob(x) == b]
    id_b = p.target.id_of(b)
    morphisms = [(t, d, c) for t, d, c in e.morphisms if p.mor(t) == id_b]
    mor_set = {t for t, _, _ in morphisms}
    identities = {x: e.id_of(x) for x in objects}
    composition = {
        (g, f): gf
        for (g, f), gf in e.composition.items()
        if g in mor_set and f in mor_set
    }
    return FinCategory(objects, morphisms, identities, composition).check()


def oracle_is_cocartesian(p, m):
    e, b = p.source, p.target
    x, y = e.dom(m), e.cod(m)
    u = p.mor(m)
    for z in e.objects:
        for h in e.hom(x, z):
            for w in b.hom(p.ob(y), p.ob(z)):
                if b.compose(w, u) != p.mor(h):
                    continue
                fillers = [
                    t
                    for t in e.hom(y, z)
                    if e.compose(t, m) == h and p.mor(t) == w
                ]
                if len(fillers) != 1:
                    return failed(
                        "is_cocartesian",
                        {"morphism": m, "test": [z, h, w], "fillers": fillers},
                    )
    return passed("is_cocartesian", morphism=m)


def oracle_search_cleavage(p, direction):
    q = p.op if direction == "fibration" else p
    e, b = q.source, q.target
    lifting = {}
    for u in b.mor_tokens:
        side = b.dom(u)
        for x in e.objects:
            if q.ob(x) != side:
                continue
            found = sorted(
                m
                for m in e.out_of(x)
                if q.mor(m) == u and oracle_is_cocartesian(q, m)
            )
            if not found:
                return None
            lifting[(u, x)] = found[0]
    return lifting


def oracle_verify_cocleavage(p, lifting, check_name, cartesian):
    """The verification of a cocleavage of a checked functor, fibres
    extracted by scanning."""
    data = CleavageData(p, "cofibration", dict(lifting))
    e, b = p.source, p.target
    fibs = {a: oracle_fibre(p, a) for a in b.objects}
    for u in b.mor_tokens:
        for z in fibs[b.dom(u)].objects:
            m = lifting.get((u, z))
            if m is None or not e.has_mor(m):
                return failed(check_name, {"missing_lifting": [u, z]}), None
            if p.mor(m) != u:
                return failed(check_name, {"lifting_over_wrong_base": [u, z, m]}), None
            if e.dom(m) != z:
                return failed(check_name, {"lifting_endpoint": [u, z, m]}), None
            r = cartesian(p, m)
            if not r:
                witness = {"not_cartesian": [u, z, m], "detail": r.witness}
                return failed(check_name, witness), None
    for a in b.objects:
        for z in fibs[a].objects:
            if lifting[(b.id_of(a), z)] != e.id_of(z):
                return failed(check_name, {"identity_lifting": [a, z]}), None
    transitions = {}
    try:
        for u in b.mor_tokens:
            transitions[u] = _transport_functor(data, u, fibs)
    except NonFunctorialTransition as exc:
        witness = {"non_functorial_transition": list(exc.args)}
        return failed(check_name, witness), None
    for v, u in b.composable_pairs():
        vu = b.compose(v, u)
        for z in fibs[b.dom(u)].objects:
            uz = transitions[u].ob(z)
            if lifting[(vu, z)] != e.compose(lifting[(v, uz)], lifting[(u, z)]):
                return failed(check_name, {"split_law": [v, u, z]}), None
    phi = CatDiagram(b, fibs, transitions, "covariant").check()
    rep = passed(
        check_name, base_morphisms=len(b.morphisms), total_morphisms=len(e.morphisms)
    )
    return rep, phi


def oracle_verify(p, direction, lifting, cartesian=oracle_is_cocartesian):
    """verify_split_<direction> with the fibration side on P^op, whose
    fibres are extracted from P^op itself."""
    check_name = "verify_split_" + direction
    p.check()
    if direction == "cofibration":
        return oracle_verify_cocleavage(p, lifting, check_name, cartesian)
    rep, phi = oracle_verify_cocleavage(p.op, lifting, check_name, cartesian)
    if phi is not None:
        return rep, opposed_fibres(phi)
    if "split_law" in rep.witness:
        inner, outer, z = rep.witness["split_law"]
        rep.witness["split_law"] = [outer, inner, z]
    return rep, None


def oracle_groth_co(phi):
    phi.check()
    sh = phi.shape
    over = {obj_token(a, x): a for a in sh.objects for x in phi.fibre(a).objects}
    morphisms, mor_data, token_of = [], {}, {}
    for u, a, b in sh.morphisms:
        t = phi.transition(u)
        fb = phi.fibre(b)
        for x in phi.fibre(a).objects:
            for f in fb.out_of(t.ob(x)):
                m = "%s|%s|%s" % (u, x, f)
                morphisms.append((m, obj_token(a, x), obj_token(b, fb.cod(f))))
                mor_data[m] = (u, x, f, fb.cod(f))
                token_of[(u, x, f)] = m
    identities = {}
    for a in sh.objects:
        for x in phi.fibre(a).objects:
            identities[obj_token(a, x)] = token_of[
                (sh.id_of(a), x, phi.fibre(a).id_of(x))
            ]
    composition = {}
    into = {}
    for rec in morphisms:
        into.setdefault(rec[2], []).append(rec)
    for m2, d2, _ in morphisms:
        v, _, g, _ = mor_data[m2]
        fc = phi.fibre(sh.cod(v))
        for m1, _, _ in into.get(d2, ()):
            u, x, f, _ = mor_data[m1]
            comp_f = fc.compose(g, phi.transition(v).mor(f))
            composition[(m2, m1)] = token_of[(sh.compose(v, u), x, comp_f)]
    total = FinCategory(over, morphisms, identities, composition).check()
    projection = FinFunctor(
        total, sh, over, {m: mor_data[m][0] for m in mor_data}
    ).check()
    cleavage = {}
    for u, a, b in sh.morphisms:
        t = phi.transition(u)
        for x in phi.fibre(a).objects:
            cleavage[(u, x)] = token_of[(u, x, phi.fibre(b).id_of(t.ob(x)))]
    injections = {}
    for a in sh.objects:
        fa = phi.fibre(a)
        injections[a] = FinFunctor(
            fa,
            total,
            {x: obj_token(a, x) for x in fa.objects},
            {h: token_of[(sh.id_of(a), fa.dom(h), h)] for h in fa.mor_tokens},
        ).check()
    return GrothendieckResult(phi, total, projection, cleavage, injections, mor_data)


def oracle_slice_fibre(p, a):
    e, b = p.source, p.target
    objects, obj_data = [], {}
    for x in e.objects:
        for h in b.hom(p.ob(x), a):
            t = "%s@%s" % (x, h)
            objects.append(t)
            obj_data[t] = (x, h)
    morphisms, mor_data, token_of = [], {}, {}
    for t1, (x, h) in obj_data.items():
        for t2, (y, k) in obj_data.items():
            for f in e.hom(x, y):
                if b.compose(k, p.mor(f)) != h:
                    continue
                m = "%s@%s>%s" % (f, h, k)
                morphisms.append((m, t1, t2))
                mor_data[m] = (f, h, k)
                token_of[(f, h, k)] = m
    identities = {t: token_of[(e.id_of(x), h, h)] for t, (x, h) in obj_data.items()}
    composition = {}
    for m2, (g, h2, k2) in mor_data.items():
        for m1, (f, h1, k1) in mor_data.items():
            if k1 != h2 or e.cod(f) != e.dom(g):
                continue
            composition[(m2, m1)] = token_of[(e.compose(g, f), h1, k2)]
    cat = FinCategory(objects, morphisms, identities, composition).check()
    return cat, obj_data, mor_data


def oracle_product(c, d):
    p = lambda a, b: "(%s,%s)" % (a, b)
    objects = [p(a, b) for a in c.objects for b in d.objects]
    morphisms = [
        (p(f, g), p(fd, gd), p(fc, gc))
        for f, fd, fc in c.morphisms
        for g, gd, gc in d.morphisms
    ]
    identities = {
        p(a, b): p(c.id_of(a), d.id_of(b)) for a in c.objects for b in d.objects
    }
    composition = {}
    for g2, f2 in c.composable_pairs():
        for g1, f1 in d.composable_pairs():
            composition[(p(g2, g1), p(f2, f1))] = p(
                c.compose(g2, f2), d.compose(g1, f1)
            )
    return FinCategory(objects, morphisms, identities, composition).check()


# -- comparison helpers -----------------------------------------------------------


def report_fields(r):
    return (r.check_name, r.status, r.witness, r.stats)


def category_fields(c):
    """Every table of c, in order."""
    return (
        c.objects,
        c.morphisms,
        list(c.identities.items()),
        list(c.composition.items()),
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


def diagram(seed):
    """A fixture, random poset, chain or halving diagram, chosen by the seed."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 0:
        return list(DIAGS.values())[rng.randrange(len(DIAGS))]
    if kind == 1:
        return random_cat_diagram(rng, max_fibre_objects=3)
    if kind == 2:
        return random_bifibration(rng, max_fibre_objects=3)[2].diagram
    return halving_bifibration(rng.choice(["TWO", "SPAN", "PAIR"]), rng.randint(1, 4))


def functors_of(seed):
    """Checked functors to test: both projections of a diagram, and a
    functor between small categories (often neither fibration nor
    cofibration, with several fillers)."""
    phi = diagram(seed)
    out = [groth_co(phi).projection, groth_contra(opposed_fibres(phi)).projection]
    rng = random.Random(seed)
    src = rng.choice(["S3", "Z3", "PUSH3", "SPAN", "PAIR"])
    tgt = rng.choice(["Z2", "ONE", "TWO", "PUSH3", "Z3"])
    found = enumerate_functors(CATS[src], CATS[tgt])
    if found:
        out.append(found[rng.randrange(len(found))])
    return out


def unchecked(p):
    """The same maps, in a functor that has not been checked."""
    return FinFunctor(p.source, p.target, p.on_objects, p.on_morphisms)


# -- the tests ----------------------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cocartesian_and_cartesian_match_the_filler_loop(seed):
    for p in functors_of(seed):
        for m in p.source.mor_tokens:
            want = oracle_is_cocartesian(p, m)
            assert report_fields(is_cocartesian(p, m)) == report_fields(want)
            assert report_fields(is_cocartesian(unchecked(p), m)) == report_fields(want)
            assert fibrations._cocartesian(p, m) == bool(want)
            co = oracle_is_cocartesian(p.op, m)
            got = is_cartesian(p, m)
            assert got.check_name == "is_cartesian"
            assert report_fields(got)[1:] == report_fields(co)[1:]


def fork():
    """x -m-> y ⇉ z (t1, t2) with t1∘m = t2∘m: over ONE the pair
    (t1∘m, 1) has the two fillers t1 and t2, met before any pair without
    one because y and z come before x."""
    return category(
        ["y", "z", "x"],
        [
            ("idy", "y", "y"),
            ("idz", "z", "z"),
            ("idx", "x", "x"),
            ("m", "x", "y"),
            ("t1", "y", "z"),
            ("t2", "y", "z"),
            ("h", "x", "z"),
        ],
        {"y": "idy", "z": "idz", "x": "idx"},
        {("t1", "m"): "h", ("t2", "m"): "h"},
    )


def test_the_count_decides_exactly_on_checked_functors():
    # pairs with no filler (posets, PAIR) and with two (the fork);
    # the count must reject exactly the morphisms the loop rejects
    sources = [CATS[n] for n in ("TWO", "SPAN", "PAIR", "PUSH3", "S3")]
    sources.append(fork())
    kinds = set()
    for src in sources:
        for tgt in ("ONE", "TWO", "PUSH3", "Z2"):
            for p in enumerate_functors(src, CATS[tgt]):
                for m in p.source.mor_tokens:
                    verdict = fibrations._counted_cocartesian(p, m)
                    want = oracle_is_cocartesian(p, m)
                    assert verdict == bool(want)
                    kinds.add(len(want.witness["fillers"]) if not want else "pass")
    assert kinds == {"pass", 0, 2}
    p = groth_co(DIAGS["semidirect"]).projection
    assert fibrations._counted_cocartesian(unchecked(p), "e|*|r") is None


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_fibres_and_cleavage_search_match_the_scans(seed):
    for p in functors_of(seed):
        fibs = fibres(p)
        assert list(fibs) == list(p.target.objects)
        assert fibres(p) is fibs
        for b in p.target.objects:
            want = category_fields(oracle_fibre(p, b))
            assert category_fields(fibs[b]) == want
            assert category_fields(fibre(p, b)) == want
            assert fibs[b]._checked
        for direction in ("fibration", "cofibration"):
            data = search_cleavage(p, direction)
            want = oracle_search_cleavage(p, direction)
            if want is None:
                assert data is None
            else:
                assert list(data.lifting.items()) == list(want.items())


def _corrupt(rng, p, lifting, direction):
    """One random change to a (co)cleavage of P."""
    e, b = p.source, p.target
    out = dict(lifting)
    key = rng.choice(sorted(out))
    u, z = key
    mode = rng.randrange(5)
    # liftings start at z for a cofibration and end there for a fibration
    at = e.out_of if direction == "cofibration" else e.into
    if mode == 0:
        del out[key]
    elif mode == 1:
        out[key] = rng.choice(e.mor_tokens)
    elif mode == 2:
        over = [m for m in at(z) if p.mor(m) == u and m != out[key]]
        if over:
            out[key] = rng.choice(over)
    elif mode == 3:
        # compose with a vertical morphism, so the lifting stays over u
        m = out[key]
        if direction == "cofibration":
            vertical = [t for t in e.out_of(e.cod(m)) if b.is_identity(p.mor(t))]
            out[key] = e.compose(rng.choice(vertical), m)
        else:
            vertical = [t for t in e.into(e.dom(m)) if b.is_identity(p.mor(t))]
            out[key] = e.compose(m, rng.choice(vertical))
    else:
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


def _verifications_agree(p, direction, lifting, cartesian, seen):
    verify = (
        verify_split_cofibration if direction == "cofibration" else verify_split_fibration
    )
    data = CleavageData(p, direction, dict(lifting))
    rep, phi = verify(data)
    want, want_phi = oracle_verify(p, direction, lifting, cartesian)
    assert report_fields(rep) == report_fields(want)
    assert data.verified == bool(want)
    if want_phi is None:
        assert phi is None
    else:
        assert diagram_fields(phi) == diagram_fields(want_phi)
    if not want:
        seen.add(next(k for k in want.witness if k in FAILURE_KINDS))


def _cleavages():
    """(P, direction, canonical lifting) for both projections of fixture,
    random and halving diagrams."""
    out = []
    for phi in list(DIAGS.values()) + [diagram(s) for s in range(1, 20)]:
        data = cleavage_from_groth(groth_co(phi))
        out.append((data.base_functor, "cofibration", data.lifting))
        data = cleavage_from_groth(groth_contra(opposed_fibres(phi)))
        out.append((data.base_functor, "fibration", data.lifting))
    return out


def _always_cartesian(p, m):
    return passed("is_cocartesian", morphism=m)


def test_corrupted_cleavages_verify_as_with_scanned_fibres(monkeypatch):
    rng = random.Random(13)
    cases = _cleavages()
    seen = set()
    for p, direction, lifting in cases:
        _verifications_agree(p, direction, lifting, oracle_is_cocartesian, seen)
        for _ in range(20):
            bad = _corrupt(rng, p, lifting, direction)
            _verifications_agree(p, direction, bad, oracle_is_cocartesian, seen)
    # with every lifting passing as cocartesian, corruptions reach the
    # transition functors and the split law
    monkeypatch.setattr(fibrations, "is_cocartesian", _always_cartesian)
    for p, direction, lifting in cases:
        for _ in range(20):
            bad = _corrupt(rng, p, lifting, direction)
            _verifications_agree(p, direction, bad, _always_cartesian, seen)
    assert seen == FAILURE_KINDS


def test_searched_cleavages_verify_as_with_scanned_fibres():
    seen = set()
    for seed in range(24):
        for p in functors_of(seed):
            for direction in ("fibration", "cofibration"):
                lifting = oracle_search_cleavage(p, direction)
                if lifting is not None:
                    _verifications_agree(
                        p, direction, lifting, oracle_is_cocartesian, seen
                    )


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_groth_co_matches_the_looked_up_loop(seed):
    phi = diagram(seed)
    assert result_fields(groth_co(phi)) == result_fields(oracle_groth_co(phi))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_free_cofibration_matches_the_all_pairs_slice_fibres(seed):
    p = functors_of(seed)[seed % 2]
    free = free_cofibration(p)
    phi = free.result.diagram
    for a in p.target.objects:
        cat, objs, mors = oracle_slice_fibre(p, a)
        assert category_fields(phi.fibre(a)) == category_fields(cat)
        assert list(free.slice_obj[a].items()) == list(objs.items())
        assert list(free.slice_mor[a].items()) == list(mors.items())
    assert result_fields(free.result) == result_fields(oracle_groth_co(phi))
    rep, _ = verify_split_cofibration(cleavage_from_groth(free.result))
    want, _ = oracle_verify(
        free.result.projection,
        "cofibration",
        cleavage_from_groth(free.result).lifting,
    )
    assert report_fields(rep) == report_fields(want) and rep.ok


@st.composite
def factor_pairs(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    names = tuple(CATS) + ("poset",)
    pick = lambda name, prefix: (
        random_poset(rng, 4, prefix=prefix) if name == "poset" else CATS[name]
    )
    return (
        pick(draw(st.sampled_from(names)), "p"),
        pick(draw(st.sampled_from(names)), "q"),
    )


@given(factor_pairs())
@settings(max_examples=40, deadline=None)
def test_product_matches_the_composite_per_pair_of_pairs(pair):
    c, d = pair
    assert category_fields(product(c, d)) == category_fields(oracle_product(c, d))


@pytest.mark.parametrize("base", ["TWO", "SPAN", "PAIR"])
def test_halving_bifibrations_search_and_verify_as_the_scans(base):
    gr = groth_co(halving_bifibration(base, 5))
    p = gr.projection
    for direction in ("fibration", "cofibration"):
        data = search_cleavage(p, direction)
        assert list(data.lifting.items()) == list(
            oracle_search_cleavage(p, direction).items()
        )
        _verifications_agree(p, direction, data.lifting, oracle_is_cocartesian, set())
