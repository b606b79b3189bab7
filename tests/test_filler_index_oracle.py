"""Unique filler searches read the filler index; the scans they replaced
live on here as oracles.

``fibrations._fillers(p, m)`` maps each pair (t∘m, Pt) to the t out of
cod m that give it, in E's order, and ``_counted_cocartesian`` counts the
pairs (h, w) from the images of the morphisms out of dom m.  The oracles
are the code these replaced:

- the pair count Σ_h #{w : w∘Pm = Ph}, summed per h;
- the hom-set scans of the transition functors u_!, of the units and
  counits of a bifibration, of the fibre diagram of limit lifting, and of
  factorization.

The tests require equal results, and equal exception types and arguments,
on random bifibrations, halving bifibrations, fixture diagrams, and
corrupted cleavages, with the verifications monkeypatched so that
corrupted liftings reach the searches.  Corrupted liftings that do not type
a search (a lifting into or out of another object) reach the bifibration
check's scan fallback, and the tests see it run.
"""
import random

import pytest

from fibrelab import fibrations, fixtures
from fibrelab.errors import (
    FibrelabError,
    HomBijectionFailure,
    NoBaseLimit,
    NoFibreLimit,
    NonFunctorialTransition,
    TerminalityFailure,
    TriangleViolation,
    UnverifiedCleavage,
)
from fibrelab.fibrations import (
    BifibrationWitness,
    CatCone,
    CleavageData,
    _counted_cocartesian,
    _transport_functor,
    bifibration_check,
    cleavage_from_groth,
    enumerate_cones,
    factorize,
    fibres,
    lift_limit,
    search_cleavage,
    terminal_cone,
    verify_split_cofibration,
    verify_split_fibration,
)
from fibrelab.fincat import FinFunctor, category, compose_functor
from fibrelab.grothendieck import CatDiagram, groth_co, groth_contra
from fibrelab.randgen import random_bifibration
from fibrelab.report import passed
from test_fibration_index_oracle import _corrupt, functors_of, unchecked
from test_golden_reports import halving_bifibration

DIAGS = fixtures.all_cat_diagrams()


# -- the scans, kept as oracles -------------------------------------------------


def oracle_counted_cocartesian(p, m):
    """The pair count summed per h, then the injectivity pass."""
    e, b = p.source, p.target
    if not (p._checked and e._checked and b._checked):
        return None
    pmor, ecomp, bcomp = p.on_morphisms, e.composition, b.composition
    try:
        u = pmor[m]
        hits = {}  # w∘u for w out of Py -> how many such w
        for w in b.out_of(p.ob(e.cod(m))):
            wu = bcomp[(w, u)]
            hits[wu] = hits.get(wu, 0) + 1
        pairs = sum(hits.get(pmor[h], 0) for h in e.out_of(e.dom(m)))
        out = e.out_of(e.cod(m))
        if len(out) != pairs:
            return False
        return len({(ecomp[(t, m)], pmor[t]) for t in out}) == pairs
    except KeyError:
        return None


def oracle_transport(data, u, fibres):
    """u_!: E_a -> E_b by unique vertical filler search over a hom-set."""
    p = data.base_functor
    e, b = p.source, p.target
    src, tgt = fibres[b.dom(u)], fibres[b.cod(u)]
    on_objects = {x: e.cod(data.lifting[(u, x)]) for x in src.objects}
    on_morphisms = {}
    for j in src.mor_tokens:
        x, x2 = src.dom(j), src.cod(j)
        want = e.compose(data.lifting[(u, x2)], j)
        cands = [
            t
            for t in tgt.hom(on_objects[x], on_objects[x2])
            if e.compose(t, data.lifting[(u, x)]) == want
        ]
        if len(cands) != 1:
            raise NonFunctorialTransition((u, j, cands))
        on_morphisms[j] = cands[0]
    return FinFunctor(src, tgt, on_objects, on_morphisms).check()


def oracle_factorize(data, f):
    """factorize with the vertical part found by scanning a hom-set."""
    if not data.verified:
        raise UnverifiedCleavage((data.direction,))
    if data.direction == "fibration":
        dual = oracle_factorize(data.dual(), f)
        return fibrations.FactorizationResult(
            dual.second, dual.first, "(vertical,cartesian)"
        )
    p = data.base_functor
    e, b = p.source, p.target
    delta = data.lifting[(p.mor(f), e.dom(f))]
    id_b = b.id_of(p.ob(e.cod(f)))
    cands = [
        t
        for t in e.hom(e.cod(delta), e.cod(f))
        if p.mor(t) == id_b and e.compose(t, delta) == f
    ]
    if len(cands) != 1:
        raise UnverifiedCleavage(("cocartesian filler not unique", f, cands))
    return fibrations.FactorizationResult(delta, cands[0], "(cocartesian,vertical)")


def oracle_bifibration_check(theta, delta):
    """bifibration_check with the unit and counit scanned in hom-sets."""
    if theta.base_functor != delta.base_functor:
        raise fibrations.ShapeMismatch(("cleavages over different P",))
    p = theta.base_functor
    e, b = p.source, p.target
    rep_f, phi_f = fibrations.verify_split_fibration(theta)
    if not rep_f:
        raise UnverifiedCleavage(("fibration", rep_f.witness))
    rep_c, phi_c = fibrations.verify_split_cofibration(delta)
    if not rep_c:
        raise UnverifiedCleavage(("cofibration", rep_c.witness))
    fibs = phi_c.fibres

    def unit(u, kind, cat, over, there, back, lift, through):
        maps, vertical = {}, b.id_of(over)
        for z in fibs[over].objects:
            zz, want = there.ob(z), lift[(u, z)]
            cands = [
                t
                for t in cat.hom(z, back.ob(zz))
                if p.mor(t) == vertical
                and cat.compose(through[(u, zz)], t) == want
            ]
            if len(cands) != 1:
                raise TriangleViolation((u, kind, z, cands))
            maps[z] = cands[0]
        return maps

    units, counits = {}, {}
    for u in b.mor_tokens:
        a_obj, b_obj = b.dom(u), b.cod(u)
        push, pull = phi_c.transition(u), phi_f.transition(u)
        eta = unit(u, "unit", e, a_obj, push, pull, delta.lifting, theta.lifting)
        eps = unit(u, "counit", e.op, b_obj, pull, push, theta.lifting, delta.lifting)
        for x in fibs[a_obj].objects:
            if e.compose(eps[push.ob(x)], push.mor(eta[x])) != e.id_of(push.ob(x)):
                raise TriangleViolation((u, "push-triangle", x))
        for y in fibs[b_obj].objects:
            if e.compose(pull.mor(eps[y]), eta[pull.ob(y)]) != e.id_of(pull.ob(y)):
                raise TriangleViolation((u, "pull-triangle", y))
        for x in fibs[a_obj].objects:
            for y in fibs[b_obj].objects:
                over_u = [m for m in e.hom(x, y) if p.mor(m) == u]
                via_pull = {
                    e.compose(theta.lifting[(u, y)], t)
                    for t in fibs[a_obj].hom(x, pull.ob(y))
                }
                via_push = {
                    e.compose(s, delta.lifting[(u, x)])
                    for s in fibs[b_obj].hom(push.ob(x), y)
                }
                if not (
                    via_pull == set(over_u) == via_push
                    and len(via_pull) == len(fibs[a_obj].hom(x, pull.ob(y)))
                    and len(via_push) == len(fibs[b_obj].hom(push.ob(x), y))
                ):
                    raise HomBijectionFailure((u, x, y))
        units[u], counits[u] = eta, eps
    return BifibrationWitness(
        units,
        counits,
        fibs,
        {u: phi_c.transition(u) for u in b.mor_tokens},
        {u: phi_f.transition(u) for u in b.mor_tokens},
    )


def oracle_lift_limit(theta, delta, f):
    """lift_limit with the fibre diagram found by scanning fibre hom-sets."""
    witness = fibrations.bifibration_check(theta, delta)
    p = theta.base_functor
    e, b_cat = p.source, p.target
    d_cat = f.source
    pf = compose_functor(p, f)
    base = terminal_cone(pf)
    if base is None:
        raise NoBaseLimit(("no terminal cone over P∘F", len(enumerate_cones(pf))))
    b = base.apex
    alphas = {d: theta.lifting[(base.legs[d], f.ob(d))] for d in d_cat.objects}
    fib = witness.fibres[b]
    on_objects = {d: e.dom(alphas[d]) for d in d_cat.objects}
    on_morphisms = {}
    id_b = b_cat.id_of(b)
    for m in d_cat.mor_tokens:
        d1, d2 = d_cat.dom(m), d_cat.cod(m)
        want = e.compose(f.mor(m), alphas[d1])
        cands = [
            t
            for t in fib.hom(on_objects[d1], on_objects[d2])
            if e.compose(alphas[d2], t) == want and p.mor(t) == id_b
        ]
        if len(cands) != 1:
            raise UnverifiedCleavage(("cartesian filler for fibre diagram", m, cands))
        on_morphisms[m] = cands[0]
    l_fun = FinFunctor(d_cat, fib, on_objects, on_morphisms).check()
    fib_lim = terminal_cone(l_fun)
    if fib_lim is None:
        raise NoFibreLimit((b,))
    cone = CatCone(
        fib_lim.apex,
        {d: e.compose(alphas[d], fib_lim.legs[d]) for d in d_cat.objects},
    )
    all_cones = enumerate_cones(f)
    for other in all_cones:
        mediators = [
            m
            for m in e.hom(other.apex, cone.apex)
            if all(e.compose(cone.legs[d], m) == other.legs[d] for d in d_cat.objects)
        ]
        if len(mediators) != 1:
            raise TerminalityFailure((other.apex, mediators))
    if p.ob(cone.apex) != b or any(
        p.mor(cone.legs[d]) != base.legs[d] for d in d_cat.objects
    ):
        raise TerminalityFailure(("projection mismatch",))
    report = passed("lift_limit", base_apex=b, apex=cone.apex, cones_in_e=len(all_cones))
    return cone, report


# -- inputs -----------------------------------------------------------------------


def outcome(run):
    """What a call returns, or the type and arguments of what it raises."""
    try:
        return "value", run()
    except (FibrelabError, KeyError) as exc:
        return type(exc).__name__, exc.args


def bifibrations():
    """(theta, delta) pairs of random, halving and fixture bifibrations;
    the fixture ones have groups and non-thin fibres."""
    out = [random_bifibration(random.Random(s), 4)[:2] for s in range(12)]
    diagrams = [halving_bifibration(name, k) for name in ("TWO", "SPAN", "PAIR") for k in (3, 5)]
    diagrams += list(DIAGS.values())
    for phi in diagrams:
        gr = groth_co(phi)
        theta = search_cleavage(gr.projection, "fibration")
        if theta is not None:
            out.append((theta, cleavage_from_groth(gr)))
    return out


def idempotent_diagram():
    """Over TWO, fibre 0 has an idempotent e on w with f∘e = f and e∘e = e,
    and the transition picks w: fillers that are not unique."""
    c = category(
        ["w", "z"],
        [("idw", "w", "w"), ("e", "w", "w"), ("f", "w", "z"), ("idz", "z", "z")],
        {"w": "idw", "z": "idz"},
        {("e", "e"): "e", ("f", "e"): "f"},
    )
    one = fixtures.one()
    pick_w = FinFunctor(one, c, {"*": "w"}, {"1": "idw"})
    return CatDiagram(fixtures.two(), {"0": c, "1": one}, {"a": pick_w}, "contravariant")


# -- the tests ----------------------------------------------------------------------


def test_the_pair_count_matches_the_count_per_h():
    checked = 0
    for seed in range(30):
        for p in functors_of(seed):
            for q in (p, p.op, unchecked(p)):
                for m in q.source.mor_tokens:
                    want = oracle_counted_cocartesian(q, m)
                    assert _counted_cocartesian(q, m) is want
                    checked += want is not None
    assert checked > 1000


def test_transport_functors_match_the_scan(monkeypatch):
    """Every u_! of canonical and corrupted cocleavages, and of cleavages
    read on P^op, as the scan builds it or fails."""
    rng = random.Random(5)
    kinds = set()
    phis = [idempotent_diagram()] + list(DIAGS.values())
    phis += [halving_bifibration("SPAN", 4)]
    for phi in phis:
        if phi.variance == "contravariant":
            data = cleavage_from_groth(groth_contra(phi)).dual()
            fibs = {a: f.op for a, f in fibres(data.base_functor.op).items()}
        else:
            data = cleavage_from_groth(groth_co(phi))
            fibs = fibres(data.base_functor)
        p, b = data.base_functor, data.base_functor.target
        e = p.source
        for trial in range(40):
            lifting = _corrupt(rng, p, data.lifting, "cofibration") if trial else data.lifting
            # the transition functors only see liftings that passed their
            # endpoint checks
            if any(
                lifting.get((u, z)) is None
                or not e.has_mor(lifting[(u, z)])
                or e.dom(lifting[(u, z)]) != z
                for u in b.mor_tokens
                for z in fibs[b.dom(u)].objects
            ):
                continue
            bad = CleavageData(p, "cofibration", lifting)
            for u in b.mor_tokens:
                got = outcome(lambda: _transport_functor(bad, u, fibs))
                assert got == outcome(lambda: oracle_transport(bad, u, fibs))
                kinds.add(got[0])
    assert kinds == {"value", "NonFunctorialTransition"}


def test_factorizations_match_the_scan():
    kinds = set()
    cases = [data for pair in bifibrations() for data in pair]
    cases.append(cleavage_from_groth(groth_contra(idempotent_diagram())))
    rng = random.Random(8)
    for data in cases:
        if data.direction == "fibration":
            assert verify_split_fibration(data)[0]
        else:
            assert verify_split_cofibration(data)[0]
        e = data.base_functor.source
        for f in e.mor_tokens:
            got = outcome(lambda: factorize(data, f))
            assert got == outcome(lambda: oracle_factorize(data, f))
            kinds.add(got[0])
        # liftings changed after verification give no filler, or a
        # lifting that no longer types the search
        tampered = CleavageData(
            data.base_functor, data.direction, dict(data.lifting), True
        )
        key = rng.choice(sorted(tampered.lifting))
        tampered.lifting[key] = rng.choice(e.mor_tokens)
        for f in e.mor_tokens:
            got = outcome(lambda: factorize(tampered, f))
            assert got == outcome(lambda: oracle_factorize(tampered, f))
            kinds.add(got[0])
    assert kinds == {"value", "UnverifiedCleavage"}


def test_bifibration_units_and_counits_match_the_scan(monkeypatch):
    """Honest and corrupted liftings, the corrupted ones behind passing
    verifications, give the same witness or the same failure; corrupted
    liftings that do not type the search reach the scan."""
    rng = random.Random(21)
    kinds = set()
    for theta, delta in bifibrations():
        assert bifibration_check(theta, delta) == oracle_bifibration_check(theta, delta)
        honest = verify_split_fibration(theta), verify_split_cofibration(delta)
        p = theta.base_functor
        with monkeypatch.context() as patch:
            patch.setattr(fibrations, "verify_split_fibration", lambda d: honest[0])
            patch.setattr(fibrations, "verify_split_cofibration", lambda d: honest[1])
            for _ in range(30):
                bad_theta = CleavageData(
                    p, "fibration", _corrupt(rng, p, theta.lifting, "fibration")
                )
                bad_delta = CleavageData(
                    p, "cofibration", _corrupt(rng, p, delta.lifting, "cofibration")
                )
                for pair in ((bad_theta, delta), (theta, bad_delta)):
                    got = outcome(lambda: bifibration_check(*pair))
                    assert got == outcome(lambda: oracle_bifibration_check(*pair))
                    kinds.add(
                        got[1][0][1] if got[0] == "TriangleViolation" else got[0]
                    )
    # a MissingComposite comes only from the scan of a search that the
    # lifting does not type
    assert {"unit", "counit", "value", "MissingComposite", "KeyError"} <= kinds


def test_unit_violation_lists_every_candidate_from_the_index(monkeypatch):
    # the liftings θ^a_* = δ^a_w = (a, e) make both id_w and e solve
    # θ∘t = δ: a typed search, answered by the index in hom-set order
    phi = idempotent_diagram()
    theta = cleavage_from_groth(groth_contra(phi))
    honest = verify_split_fibration(theta)
    fibs = honest[1].fibres
    push = FinFunctor(
        fibs["0"],
        fibs["1"],
        {x: "1|*" for x in fibs["0"].objects},
        {m: "id1|1|*" for m in fibs["0"].mor_tokens},
    )
    pushes = CatDiagram(fixtures.two(), fibs, {"a": push})
    monkeypatch.setattr(fibrations, "verify_split_fibration", lambda d: honest)
    monkeypatch.setattr(
        fibrations,
        "verify_split_cofibration",
        lambda d: (passed("verify_split_cofibration"), pushes),
    )
    lifting = {k: m for k, m in theta.lifting.items() if k[0] != "a"}
    delta = CleavageData(theta.base_functor, "cofibration", lifting)
    theta.lifting[("a", "1|*")] = delta.lifting[("a", "0|w")] = "a|e|*"
    looked_up = []
    real_fillers = fibrations._fillers
    monkeypatch.setattr(
        fibrations, "_fillers", lambda q, m: looked_up.append(m) or real_fillers(q, m)
    )
    witness = ("a", "unit", "0|w", ["id0|idw|w", "id0|e|w"])
    want = ("TriangleViolation", (witness,))
    assert outcome(lambda: bifibration_check(theta, delta)) == want
    # the failing search is the last one, and it read the index of θ^a_*
    assert looked_up[-1] == "a|e|*"
    monkeypatch.setattr(fibrations, "_fillers", real_fillers)
    assert outcome(lambda: oracle_bifibration_check(theta, delta)) == want


def _points_and_arrows(e):
    """Functors ONE -> E at every object and TWO -> E at every morphism."""
    one, two = fixtures.one(), fixtures.two()
    out = [FinFunctor(one, e, {"*": x}, {"1": e.id_of(x)}).check() for x in e.objects]
    for m, d, c in e.morphisms:
        out.append(
            FinFunctor(
                two,
                e,
                {"0": d, "1": c},
                {"id0": e.id_of(d), "id1": e.id_of(c), "a": m},
            ).check()
        )
    return out


def test_limit_lifting_matches_the_scan():
    kinds = set()
    cases = [random_bifibration(random.Random(s), 3)[:2] for s in range(4)]
    for name in ("TWO", "PAIR"):
        gr = groth_co(halving_bifibration(name, 3))
        cases.append((search_cleavage(gr.projection, "fibration"), cleavage_from_groth(gr)))
    for theta, delta in cases:
        for f in _points_and_arrows(theta.base_functor.source):
            got = outcome(lambda: lift_limit(theta, delta, f))
            assert got == outcome(lambda: oracle_lift_limit(theta, delta, f))
            kinds.add(got[0])
    assert "value" in kinds


def test_a_lifting_into_another_object_fails_the_fibre_diagram_as_the_scan(
    monkeypatch,
):
    # θ^a at 1|c0 replaced, behind a passing bifibration check, by a
    # lifting whose domain is another object: no vertical filler
    two = fixtures.two()
    gr = groth_co(halving_bifibration("TWO", 3))
    p = gr.projection
    delta = cleavage_from_groth(gr)
    theta = search_cleavage(p, "fibration")
    witness = bifibration_check(theta, delta)
    monkeypatch.setattr(fibrations, "bifibration_check", lambda t, d: witness)
    theta.lifting[("a", "1|c0")] = "a|c0|idc0"
    f = FinFunctor(
        two,
        gr.total,
        {"0": "0|c1", "1": "1|c0"},
        {"id0": "id0|c1|idc1", "id1": "id1|c0|idc0", "a": "a|c1|idc0"},
    ).check()
    want = ("UnverifiedCleavage", (("cartesian filler for fibre diagram", "a", []),))
    assert outcome(lambda: lift_limit(theta, delta, f)) == want
    assert outcome(lambda: oracle_lift_limit(theta, delta, f)) == want


@pytest.mark.parametrize("direction", ["cofibration", "fibration"])
def test_the_filler_index_is_memoised_on_the_functor(direction):
    gr = groth_co(halving_bifibration("SPAN", 4))
    data = (
        cleavage_from_groth(gr)
        if direction == "cofibration"
        else search_cleavage(gr.projection, "fibration")
    )
    p = data.base_functor if direction == "cofibration" else data.base_functor.op
    m = next(iter(data.lifting.values()))
    assert fibrations._fillers(p, m) is fibrations._fillers(p, m)
    index = fibrations._fillers(p, m)
    e = p.source
    # one entry per t out of cod m, under its pair (t∘m, Pt)
    assert [t for ts in index.values() for t in ts] == sorted(
        e.out_of(e.cod(m)), key=list(e.out_of(e.cod(m))).index
    )
    for (h, w), ts in index.items():
        assert all(e.compose(t, m) == h and p.mor(t) == w for t in ts)
