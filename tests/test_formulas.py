"""Decomposition/recomposition formulas, checked through explicit canonical
comparison maps (never by cardinality alone) on fixtures and seeded random
instances.

Every formula check now builds a family and its legs and hands them to one
colimit comparison (``_decomposition``) or one limit comparison
(``_recomposition``).  The hand-written comparisons they replaced live on
here as oracles, and a differential test requires the same reports from
both on random instances.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.catcolim import (
    certify_cofinal_quotient,
    colimit_cat,
    comparison_q,
)
from fibrelab.diagcat import colimit_in_diag
from fibrelab.errors import (
    BoundExceeded,
    DanglingToken,
    IllFormedComparison,
    NonFunctorialDiagram,
    ResourceExceeded,
    ShapeMismatch,
)
from fibrelab.fincat import FinFunctor, opposite, product
from fibrelab.finset import (
    FinFunction,
    SetCocone,
    SetDiagram,
    colimit_set,
    identity_function,
    is_bijection,
    limit_set,
    mediate,
    restrict,
)
from fibrelab.formulas import (
    _certify_comparison,
    _decomposition,
    _recomposition,
    _well_defined_map,
    backward_hat,
    check_cdf,
    check_cdf_concordance,
    check_fubini,
    check_general_cdf,
    check_general_limit_recomposition,
    check_limit_recomposition,
    check_tfcf,
    check_twisted_limit,
)
from fibrelab.grothendieck import (
    CatDiagram,
    DiagFamily,
    groth_co,
    groth_contra,
    guitart_hat,
)
from fibrelab.kan import joint_lan_factor, ran
from fibrelab.randgen import (
    chain,
    poset_category,
    random_cat_diagram,
    random_diag_family,
    random_set_diagram,
    random_monotone_functor,
    random_poset,
    representable_diagram,
)
from fibrelab.report import failed, passed

CATS = fixtures.all_categories()
DIAGS = fixtures.all_cat_diagrams()


def contra_two_fibres(base_name="SPAN"):
    """A small contravariant diagram: constant TWO fibres, identity
    transitions, over a fixture base."""
    base = CATS[base_name]
    return CatDiagram(
        base, {d: CATS["TWO"] for d in base.objects}, {}, "contravariant"
    ).check()


def contravariant_diagram(rng):
    """A random contravariant diagram with poset fibres over TWO or SPAN."""
    base = CATS[rng.choice(("TWO", "SPAN"))]
    fibres = {d: random_poset(rng, 2, prefix="%s_" % d) for d in base.objects}
    transitions = {
        u: random_monotone_functor(rng, fibres[base.cod(u)], fibres[base.dom(u)])
        for u in base.mor_tokens
        if not base.is_identity(u)
    }
    return CatDiagram(base, fibres, transitions, "contravariant").check()


def test_cdf_on_pushout_fixture_representable():
    phi = DIAGS["span-push3"]
    res = colimit_cat(phi)
    for k in res.colimit.objects:
        x = representable_diagram(res.colimit, k)
        rep = check_cdf(phi, x, kres=res)
        assert rep.ok, rep.witness
        # colimit of a representable is a point, on both sides
        assert rep.stats["lhs"] == rep.stats["rhs"] == 1


def test_cdf_on_group_quotient_fixture():
    phi = DIAGS["semidirect"]
    res = colimit_cat(phi)
    rng = random.Random(0)
    x = random_set_diagram(rng, res.colimit)
    rep = check_cdf(phi, x, kres=res)
    assert rep.ok, rep.witness


def test_cdf_concordance_computes_one_colimit(monkeypatch):
    import fibrelab.diagcat
    import fibrelab.formulas

    phi = DIAGS["span-push3"]
    x = random_set_diagram(random.Random(1), colimit_cat(phi).colimit)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return colimit_cat(*args, **kwargs)

    monkeypatch.setattr(fibrelab.formulas, "colimit_cat", counted)
    monkeypatch.setattr(fibrelab.diagcat, "colimit_cat", counted)
    assert check_cdf_concordance(phi, x).ok
    assert len(calls) == 1


def test_cdf_rejects_diagram_on_wrong_shape():
    phi = DIAGS["span-push3"]
    x = random_set_diagram(random.Random(0), CATS["PUSH3"])
    with pytest.raises(ShapeMismatch):
        check_cdf(phi, x)


@pytest.mark.parametrize(
    "check, phi",
    [
        (check_limit_recomposition, DIAGS["span-push3"]),
        (check_tfcf, DIAGS["span-push3"]),
        (check_twisted_limit, contra_two_fibres()),
    ],
    ids=["limit recomposition", "tfcf", "twisted limit"],
)
def test_formulas_reject_a_diagram_on_the_wrong_shape(check, phi):
    x = random_set_diagram(random.Random(0), CATS["PUSH3"])
    with pytest.raises(ShapeMismatch):
        check(phi, x)


def test_cdf_concordance_three_routes_agree():
    phi = DIAGS["span-push3"]
    res = colimit_cat(phi)
    rng = random.Random(1)
    for _ in range(3):
        x = random_set_diagram(rng, res.colimit)
        rep = check_cdf_concordance(phi, x)
        assert rep.ok, rep.witness
        assert (
            rep.stats["direct"]
            == rep.stats["general"]
            == rep.stats["cofinal"]
        )


def test_cdf_propagates_divergence():
    phi = DIAGS["loop-coeq"]
    x = random_set_diagram(random.Random(0), CATS["TWO"])
    with pytest.raises(BoundExceeded):
        check_cdf(phi, x, bound=500)


def test_tfcf_on_fixture_totals():
    rng = random.Random(2)
    for name in ("span-push3", "semidirect", "loop-coeq"):
        phi = DIAGS[name]
        t = random_set_diagram(rng, groth_co(phi).total)
        rep = check_tfcf(phi, t)
        assert rep.ok, (name, rep.witness)
        assert rep.stats["lhs"] == rep.stats["rhs"]


def test_twisted_limit_contravariant():
    rng = random.Random(3)
    phi = contra_two_fibres()
    t = random_set_diagram(rng, groth_contra(phi).total)
    rep = check_twisted_limit(phi, t)
    assert rep.ok, rep.witness


def test_fubini_representable_is_pointlike():
    p = product(CATS["TWO"], CATS["SPAN"])
    t = representable_diagram(p, "(0,s)")
    rep = check_fubini(CATS["TWO"], CATS["SPAN"], t)
    assert rep.ok, rep.witness
    assert rep.stats["lhs"] == rep.stats["rhs_de"] == rep.stats["rhs_ed"] == 1


def test_fubini_both_orders_on_random_products():
    rng = random.Random(4)
    for _ in range(5):
        d_name, e_name = rng.choice(
            (("TWO", "SPAN"), ("PAIR", "TWO"), ("SPAN", "PUSH3"))
        )
        p = product(CATS[d_name], CATS[e_name])
        t = random_set_diagram(rng, p, max_parts=2)
        rep = check_fubini(CATS[d_name], CATS[e_name], t)
        assert rep.ok, (d_name, e_name, rep.witness)


def test_fubini_with_commas_in_tokens():
    # product tokens "(c0,x,y)" hold more than one comma
    d_cat = chain(2)
    e_cat = poset_category(["x,y", "w"], lambda a, b: a == b or b == "w")
    for first, second in ((d_cat, e_cat), (e_cat, d_cat)):
        t = random_set_diagram(random.Random(0), product(first, second))
        rep = check_fubini(first, second, t)
        assert rep.ok, rep.witness
        assert rep.stats["lhs"] == rep.stats["rhs_de"] == rep.stats["rhs_ed"]


def test_fubini_refuses_a_diagram_on_another_shape():
    t = random_set_diagram(random.Random(0), product(CATS["TWO"], CATS["SPAN"]))
    with pytest.raises(DanglingToken):
        check_fubini(CATS["SPAN"], CATS["TWO"], t)


def test_general_cdf_on_hat_families():
    rng = random.Random(5)
    for name in ("span-push3", "semidirect"):
        phi = DIAGS[name]
        t = random_set_diagram(rng, groth_co(phi).total)
        fam = guitart_hat(phi, t)
        rep = check_general_cdf(fam)
        assert rep.ok, (name, rep.witness)


def test_general_cdf_checks_the_shape_diagram_once(monkeypatch):
    """A family builds its shape diagram once, so one check_general_cdf on
    glued chains runs one CatDiagram.check body (a second call none), with
    the outcome and witness it had when each step built its own."""
    from builders import glued_chains

    bodies = []
    check = CatDiagram.check

    def counted(self):
        if not self._checked:
            bodies.append(self)
        return check(self)

    monkeypatch.setattr(CatDiagram, "check", counted)
    for (n, m, seed), size in (((3, 4, 5), 3), ((2, 5, 0), 2)):
        phi = glued_chains(n, m)
        t = random_set_diagram(random.Random(seed), groth_co(phi).total)
        hat = guitart_hat(phi, t)
        fam = DiagFamily(hat.shape, hat.objects, hat.morphisms)
        expected = passed("check_general_cdf", lhs=size, rhs=size).to_dict()
        del bodies[:]
        for _ in range(2):
            assert check_general_cdf(fam).to_dict() == expected
            assert bodies == [fam.cat_diagram()]
        # a transition into the wrong member shape fails in the one body
        wrong = dict(hat.morphisms, le=hat.morphisms["ri"])
        bad = DiagFamily(hat.shape, hat.objects, wrong)
        del bodies[:]
        with pytest.raises(NonFunctorialDiagram) as err:
            check_general_cdf(bad)
        assert err.value.args[0] == ("transition endpoints", "le")
        assert bodies == [bad.cat_diagram()]


def test_general_limit_recomposition_on_backward_families():
    rng = random.Random(6)
    phi = contra_two_fibres("TWO")
    t = random_set_diagram(rng, groth_contra(phi).total)
    fam = backward_hat(phi, t)
    rep = check_general_limit_recomposition(fam)
    assert rep.ok, rep.witness


def test_limit_recomposition_on_fixture():
    phi = DIAGS["span-push3"]
    res = colimit_cat(phi)
    rng = random.Random(7)
    x = random_set_diagram(rng, res.colimit, max_parts=2)
    rep = check_limit_recomposition(phi, x, kres=res)
    assert rep.ok, rep.witness


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_random_cdf_and_concordance(seed):
    rng = random.Random(seed)
    phi = random_cat_diagram(rng, max_fibre_objects=3, bases=("TWO", "SPAN"))
    try:
        res = colimit_cat(phi, bound=300)
    except BoundExceeded:
        return
    x = random_set_diagram(rng, res.colimit, max_parts=2)
    assert check_cdf(phi, x, bound=300, kres=res).ok
    assert check_cdf_concordance(phi, x, bound=300).ok


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_random_tfcf(seed):
    rng = random.Random(seed)
    phi = random_cat_diagram(rng, max_fibre_objects=3, bases=("TWO", "SPAN"))
    t = random_set_diagram(rng, groth_co(phi).total, max_parts=2)
    assert check_tfcf(phi, t).ok


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_random_general_cdf(seed):
    rng = random.Random(seed)
    fam, phi, t = random_diag_family(rng, bases=("ONE", "TWO", "SPAN"))
    try:
        rep = check_general_cdf(fam, bound=300)
    except BoundExceeded:
        return
    assert rep.ok


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_random_twisted_and_general_limits(seed):
    rng = random.Random(seed)
    phi = contravariant_diagram(rng)
    t = random_set_diagram(rng, groth_contra(phi).total, max_parts=2)
    try:
        assert check_twisted_limit(phi, t).ok
        assert check_general_limit_recomposition(backward_hat(phi, t), bound=300).ok
    except (BoundExceeded, ResourceExceeded):
        return


# -- the hand-written comparisons, kept as oracles ------------------------


def oracle_inner_colimit_transitions(shape, inner, target_class):
    """Build the D-shaped diagram of inner colimit apexes, with transitions
    induced on classes by ``target_class(u, member) -> apex element``."""
    sets = {d: inner[d].apex for d in shape.objects}
    functions = {}
    for u, d, e in shape.morphisms:
        pairs = [
            (cls, target_class(u, member))
            for member, cls in inner[d].classify.items()
        ]
        mapping = _well_defined_map(pairs, "inner_transition", u)
        functions[u] = FinFunction(sets[d], sets[e], mapping)
    return SetDiagram(shape, sets, functions).check()


def oracle_check_cdf(phi, x, bound=10000, kres=None, seed=None):
    """colim over K of X versus the D-colimit of the fibre-wise colimits of
    the restrictions X∘K_d, compared by the canonical class map."""
    phi.check()
    if kres is None:
        kres = colimit_cat(phi, bound)
    x.check()
    assert x.shape == kres.colimit, "X must live on the glued shape"
    sh = phi.shape
    lhs = colimit_set(x)
    inner = {
        d: colimit_set(restrict(x, kres.cocone[d])) for d in sh.objects
    }

    def push(u, member):
        i, el = member
        return inner[sh.cod(u)].classify[(phi.transition(u).ob(i), el)]

    outer = oracle_inner_colimit_transitions(sh, inner, push)
    rhs = colimit_set(outer)
    pairs = []
    for d in sh.objects:
        for (i, el), cls in inner[d].classify.items():
            pairs.append(
                (
                    rhs.classify[(d, cls)],
                    lhs.classify[(kres.cocone[d].ob(i), el)],
                )
            )
    mapping = _well_defined_map(pairs, "check_cdf", "comparison")
    h = FinFunction(rhs.apex, lhs.apex, mapping)
    return _certify_comparison(
        "check_cdf", h, seed=seed, lhs=len(lhs.apex), rhs=len(rhs.apex)
    )


def oracle_check_limit_recomposition(phi, x, bound=10000, kres=None, seed=None):
    """lim over K of X versus the limit over D of the fibre-wise limits of
    the restrictions, with restriction maps running against D."""
    phi.check()
    if kres is None:
        kres = colimit_cat(phi, bound)
    x.check()
    assert x.shape == kres.colimit
    sh = phi.shape
    lhs = limit_set(x)
    inner = {d: limit_set(restrict(x, kres.cocone[d])) for d in sh.objects}
    token_of = {
        d: {tuple(sorted(fam.items())): tok for tok, fam in inner[d].families.items()}
        for d in sh.objects
    }
    opp = opposite(sh)
    sets = {d: inner[d].apex for d in sh.objects}
    functions = {}
    for u, d, e in sh.morphisms:  # in opp, u runs e -> d
        tr = phi.transition(u)
        mapping = {}
        for tok, fam in inner[e].families.items():
            restricted = {i: fam[tr.ob(i)] for i in phi.fibre(d).objects}
            mapping[tok] = token_of[d][tuple(sorted(restricted.items()))]
        functions[u] = FinFunction(sets[e], sets[d], mapping)
    outer = SetDiagram(opp, sets, functions).check()
    rhs = limit_set(outer)
    rhs_token = {
        tuple(sorted(fam.items())): tok for tok, fam in rhs.families.items()
    }
    mapping = {}
    for tok, fam in lhs.families.items():
        per_d = {}
        for d in sh.objects:
            fibre_fam = {
                i: fam[kres.cocone[d].ob(i)] for i in phi.fibre(d).objects
            }
            per_d[d] = token_of[d][tuple(sorted(fibre_fam.items()))]
        mapping[tok] = rhs_token[tuple(sorted(per_d.items()))]
    h = FinFunction(lhs.apex, rhs.apex, mapping)
    return _certify_comparison(
        "check_limit_recomposition",
        h,
        seed=seed,
        lhs=len(lhs.apex),
        rhs=len(rhs.apex),
    )


def oracle_check_cdf_concordance(phi, x, bound=10000, seed=None):
    """Run all three derivations of the decomposition formula on one instance
    and require that they certify the same bijection class.

    (a) the direct comparison; (b) the general formula specialised to the
    family of restrictions, including the joint-Kan universal property of X;
    (c) the route through the cofinal quotient comparison functor.
    """
    phi.check()
    kres = colimit_cat(phi, bound)
    direct = oracle_check_cdf(phi, x, bound, kres=kres, seed=seed)
    if not direct:
        return failed("check_cdf_concordance", {"direct": direct.witness}, seed=seed)
    sh = phi.shape
    # (b) the family of restrictions, with identity components
    objects = {d: restrict(x, kres.cocone[d]) for d in sh.objects}
    morphisms = {}
    for u, d, e in sh.morphisms:
        comps = {
            i: identity_function(objects[d].sets[i])
            for i in phi.fibre(d).objects
        }
        morphisms[u] = (phi.transition(u), comps)
    family = DiagFamily(sh, objects, morphisms).check()
    general = oracle_check_general_cdf(family, bound, seed=seed)
    if not general:
        return failed(
            "check_cdf_concordance", {"general": general.witness}, seed=seed
        )
    # joint-Kan property of the original X (the bridge between (a) and (b))
    injections = {
        d: {
            i: identity_function(objects[d].sets[i])
            for i in phi.fibre(d).objects
        }
        for d in sh.objects
    }
    mu = injections
    beta = joint_lan_factor(
        phi,
        kres.colimit,
        kres.cocone,
        objects,
        {u: morphisms[u][1] for u in sh.mor_tokens},
        x,
        injections,
        x,
        mu,
    )
    for k in kres.colimit.objects:
        assert beta.at(k) == identity_function(x.sets[k]), (
            "joint-Kan mediator must be the identity",
            k,
        )
    # (c) via the cofinal quotient
    q = comparison_q(phi, kres)
    cq = certify_cofinal_quotient(q)
    if not cq:
        return failed("check_cdf_concordance", {"cofinal": cq.witness}, seed=seed)
    lhs = colimit_set(x)
    pulled = colimit_set(restrict(x, q))
    pairs = [
        (cls, lhs.classify[(q.ob(o), el)])
        for (o, el), cls in pulled.classify.items()
    ]
    mapping = _well_defined_map(pairs, "check_cdf_concordance", "cofinal route")
    route3 = is_bijection(FinFunction(pulled.apex, lhs.apex, mapping))
    if not route3:
        return failed(
            "check_cdf_concordance", {"cofinal_route": route3.witness}, seed=seed
        )
    sizes = {
        "direct": direct.stats["lhs"],
        "general": general.stats["lhs"],
        "cofinal": len(pulled.apex),
    }
    if len(set(sizes.values())) != 1:
        return failed("check_cdf_concordance", {"apex_sizes": sizes}, seed=seed)
    return passed("check_cdf_concordance", seed=seed, **sizes)


def oracle_check_tfcf(phi, t, seed=None):
    """Twisted Fubini for colimits: colim over the total category versus the
    D-colimit of the fibre-wise colimits, with transitions along the
    cocleavage; cross-checked by mediating the composite cocone."""
    phi.check()
    gr = groth_co(phi)
    t.check()
    assert t.shape == gr.total, "T must live on the total category"
    sh = phi.shape
    lhs = colimit_set(t)
    hat = guitart_hat(phi, t)
    inner = {d: colimit_set(hat.diagram_at(d)) for d in sh.objects}

    def push(u, member):
        i, el = member
        return inner[sh.cod(u)].classify[
            (phi.transition(u).ob(i), hat.phi(u)[i](el))
        ]

    outer = oracle_inner_colimit_transitions(sh, inner, push)
    rhs = colimit_set(outer)
    pairs = []
    for d in sh.objects:
        for (i, el), cls in inner[d].classify.items():
            pairs.append(
                (rhs.classify[(d, cls)], lhs.classify[("%s|%s" % (d, i), el)])
            )
    mapping = _well_defined_map(pairs, "check_tfcf", "comparison")
    h = FinFunction(rhs.apex, lhs.apex, mapping)
    report = _certify_comparison(
        "check_tfcf", h, seed=seed, lhs=len(lhs.apex), rhs=len(rhs.apex)
    )
    if not report:
        return report
    # independent route: the composite legs form a cocone on T whose
    # mediator out of colim T must again be a bijection
    legs = {}
    for tok in gr.total.objects:
        d, i = tok.split("|", 1)
        legs[tok] = inner[d].legs[i].then(rhs.legs[d])
    composite = SetCocone(t, rhs.apex, legs)
    med = mediate(lhs, composite)
    cross = is_bijection(med)
    if not cross:
        return failed("check_tfcf", {"composite_cocone": cross.witness}, seed=seed)
    return report


def oracle_check_twisted_limit(phi, t, seed=None):
    """Twisted Fubini for limits over the contravariant total category."""
    phi.check()
    gr = groth_contra(phi)
    t.check()
    assert t.shape == gr.total
    sh = phi.shape
    lhs = limit_set(t)
    inner = {d: limit_set(restrict(t, gr.injections[d])) for d in sh.objects}
    token_of = {
        d: {tuple(sorted(f.items())): tok for tok, f in inner[d].families.items()}
        for d in sh.objects
    }
    sets = {d: inner[d].apex for d in sh.objects}
    functions = {}
    for u, d, e in sh.morphisms:
        tr = phi.transition(u)  # fibre(e) -> fibre(d)
        mapping = {}
        for tok, fam in inner[d].families.items():
            image = {
                y: t.fn(gr.cleavage[(u, y)])(fam[tr.ob(y)])
                for y in phi.fibre(e).objects
            }
            mapping[tok] = token_of[e][tuple(sorted(image.items()))]
        functions[u] = FinFunction(sets[d], sets[e], mapping)
    outer = SetDiagram(sh, sets, functions).check()
    rhs = limit_set(outer)
    rhs_token = {
        tuple(sorted(f.items())): tok for tok, f in rhs.families.items()
    }
    mapping = {}
    for tok, fam in lhs.families.items():
        per_d = {}
        for d in sh.objects:
            fibre_fam = {
                i: fam["%s|%s" % (d, i)] for i in phi.fibre(d).objects
            }
            per_d[d] = token_of[d][tuple(sorted(fibre_fam.items()))]
        mapping[tok] = rhs_token[tuple(sorted(per_d.items()))]
    h = FinFunction(lhs.apex, rhs.apex, mapping)
    return _certify_comparison(
        "check_twisted_limit",
        h,
        seed=seed,
        lhs=len(lhs.apex),
        rhs=len(rhs.apex),
    )


def oracle_product_inclusion(d_cat, e_cat, prod, d):
    on_objects = {e: "(%s,%s)" % (d, e) for e in e_cat.objects}
    on_morphisms = {
        g: "(%s,%s)" % (d_cat.id_of(d), g) for g in e_cat.mor_tokens
    }
    return FinFunctor(e_cat, prod, on_objects, on_morphisms).check()


def oracle_fubini_one_order(d_cat, e_cat, t, check_name, seed):
    """colim over D×E versus colim over D of the E-fibre colimits."""
    prod = t.shape
    lhs = colimit_set(t)
    inner = {
        d: colimit_set(restrict(t, oracle_product_inclusion(d_cat, e_cat, prod, d)))
        for d in d_cat.objects
    }

    def push(f, member):
        e, el = member
        arrow = "(%s,%s)" % (f, e_cat.id_of(e))
        return inner[d_cat.cod(f)].classify[(e, t.fn(arrow)(el))]

    outer = oracle_inner_colimit_transitions(d_cat, inner, push)
    rhs = colimit_set(outer)
    pairs = []
    for d in d_cat.objects:
        for (e, el), cls in inner[d].classify.items():
            pairs.append(
                (
                    rhs.classify[(d, cls)],
                    lhs.classify[("(%s,%s)" % (d, e), el)],
                )
            )
    mapping = _well_defined_map(pairs, check_name, "comparison")
    h = FinFunction(rhs.apex, lhs.apex, mapping)
    return _certify_comparison(
        check_name, h, seed=seed, lhs=len(lhs.apex), rhs=len(rhs.apex)
    )


def oracle_swap_product_diagram(d_cat, e_cat, t):
    swapped_shape = product(e_cat, d_cat)

    def swap(tok):
        inner = tok[1:-1]
        # split at the comma that separates the two coordinates; tokens from
        # product() never contain nested parentheses on the fixture corpus
        a, b = inner.split(",", 1)
        return "(%s,%s)" % (b, a)

    sets = {o: t.sets[swap(o)] for o in swapped_shape.objects}
    functions = {m: t.functions[swap(m)] for m in swapped_shape.mor_tokens}
    return SetDiagram(swapped_shape, sets, functions).check()


def oracle_check_fubini(d_cat, e_cat, t, seed=None):
    """Fubini: the joint colimit over D×E agrees with both iterated orders."""
    t.check()
    first = oracle_fubini_one_order(d_cat, e_cat, t, "check_fubini", seed)
    if not first:
        return first
    swapped = oracle_swap_product_diagram(d_cat, e_cat, t)
    second = oracle_fubini_one_order(e_cat, d_cat, swapped, "check_fubini", seed)
    if not second:
        return failed(
            "check_fubini", {"other_order": second.witness}, seed=seed
        )
    if first.stats["lhs"] != second.stats["lhs"]:
        return failed(
            "check_fubini",
            {"orders_disagree": [first.stats["lhs"], second.stats["lhs"]]},
            seed=seed,
        )
    return passed(
        "check_fubini",
        seed=seed,
        lhs=first.stats["lhs"],
        rhs_de=first.stats["rhs"],
        rhs_ed=second.stats["rhs"],
    )


def oracle_check_general_cdf(t, bound=10000, seed=None):
    """The general decomposition formula for a family of set diagrams: build
    (K, X) as a colimit of left Kan extensions, then compare colim X with the
    D-colimit of the member colimits; the joint-Kan universal property of X is
    certified along the way."""
    t.check()
    res = colimit_in_diag(t, bound)
    phi = t.cat_diagram()
    sh = phi.shape
    x = res.result.diagram
    lhs = colimit_set(x)
    inner = {d: colimit_set(t.diagram_at(d)) for d in sh.objects}

    def push(u, member):
        i, el = member
        return inner[sh.cod(u)].classify[
            (phi.transition(u).ob(i), t.phi(u)[i](el))
        ]

    outer = oracle_inner_colimit_transitions(sh, inner, push)
    rhs = colimit_set(outer)
    pairs = []
    for d in sh.objects:
        for (i, el), cls in inner[d].classify.items():
            pairs.append(
                (
                    rhs.classify[(d, cls)],
                    lhs.classify[
                        (
                            res.injections[d].functor_part.ob(i),
                            res.injections[d].at(i)(el),
                        )
                    ],
                )
            )
    mapping = _well_defined_map(pairs, "check_general_cdf", "comparison")
    h = FinFunction(rhs.apex, lhs.apex, mapping)
    report = _certify_comparison(
        "check_general_cdf", h, seed=seed, lhs=len(lhs.apex), rhs=len(rhs.apex)
    )
    if not report:
        return report
    # joint-Kan universal property: with target X and the injections as the
    # compatible family, the unique mediator must be the identity
    injections = {
        d: {
            i: res.injections[d].at(i)
            for i in phi.fibre(d).objects
        }
        for d in sh.objects
    }
    beta = joint_lan_factor(
        phi,
        res.result.shape,
        res.shape_colimit.cocone,
        {d: t.diagram_at(d) for d in sh.objects},
        {u: t.phi(u) for u in sh.mor_tokens},
        x,
        injections,
        x,
        injections,
    )
    for k in res.result.shape.objects:
        assert beta.at(k) == identity_function(x.sets[k]), (
            "joint-Kan mediator must be the identity",
            k,
        )
    return report


def oracle_check_general_limit_recomposition(t, bound=10000, seed=None):
    """The general recomposition formula: build X as a limit of right Kan
    extensions along the colimit legs of the (contravariant) shape diagram,
    then compare lim X with the limit over D of the member limits."""
    t.check()
    phi = t.cat_diagram()  # contravariant on D
    sh = phi.shape
    # the shapes glue covariantly over D^op
    opp_phi_shape = opposite(sh)
    covariant = CatDiagram(
        opp_phi_shape,
        {d: phi.fibre(d) for d in sh.objects},
        {u: phi.transition(u) for u in sh.mor_tokens},
        "covariant",
    )
    kres = colimit_cat(covariant, bound)
    k_cat = kres.colimit
    rans = {d: ran(kres.cocone[d], t.diagram_at(d)) for d in sh.objects}
    # X(k): compatible D-indexed families of Ran-values, with transitions
    # R_d(k) -> R_e(k) applying ψ^u inside each comma family
    functions = {}
    ran_token = {
        d: {
            k: {tuple(sorted(f.items())): tok for tok, f in rans[d].classify[k].items()}
            for k in k_cat.objects
        }
        for d in sh.objects
    }

    def transition_value(u, d, e, k, tok):
        tr = phi.transition(u)
        fam = rans[d].classify[k][tok]
        image = {
            (j, w): t.phi(u)[j](fam[(tr.ob(j), w)])
            for j in phi.fibre(e).objects
            for w in k_cat.hom(k, kres.cocone[e].ob(j))
        }
        return ran_token[e][k][tuple(sorted(image.items()))]

    d_sets, x_sets, index = {}, {}, {}
    for k in k_cat.objects:
        r_k = {d: rans[d].extension.sets[k] for d in sh.objects}
        steps = {
            u: FinFunction(
                r_k[d],
                r_k[e],
                {tok: transition_value(u, d, e, k, tok) for tok in r_k[d]},
            )
            for u, d, e in sh.morphisms
        }
        cone = limit_set(SetDiagram(sh, r_k, steps))
        x_sets[k], d_sets[k] = cone.apex, cone.families
        index[k] = {tuple(fam.values()): tok for tok, fam in cone.families.items()}
    for m in k_cat.mor_tokens:
        k1, k2 = k_cat.dom(m), k_cat.cod(m)
        mapping = {}
        for tok, fam in d_sets[k1].items():
            image = tuple(rans[d].extension.fn(m)(fam[d]) for d in sh.objects)
            mapping[tok] = index[k2][image]
        functions[m] = FinFunction(x_sets[k1], x_sets[k2], mapping)
    x = SetDiagram(k_cat, x_sets, functions).check()
    lhs = limit_set(x)
    inner = {d: limit_set(t.diagram_at(d)) for d in sh.objects}
    inner_token = {
        d: {tuple(sorted(f.items())): tok for tok, f in inner[d].families.items()}
        for d in sh.objects
    }
    outer_sets = {d: inner[d].apex for d in sh.objects}
    outer_fns = {}
    for u, d, e in sh.morphisms:
        tr = phi.transition(u)
        mapping = {}
        for tok, fam in inner[d].families.items():
            image = {j: t.phi(u)[j](fam[tr.ob(j)]) for j in phi.fibre(e).objects}
            mapping[tok] = inner_token[e][tuple(sorted(image.items()))]
        outer_fns[u] = FinFunction(outer_sets[d], outer_sets[e], mapping)
    outer = SetDiagram(sh, outer_sets, outer_fns).check()
    rhs = limit_set(outer)
    rhs_token = {
        tuple(sorted(f.items())): tok for tok, f in rhs.families.items()
    }
    # comparison: an X-limit family yields, per d, a Φd-family through the
    # Ran counits
    mapping = {}
    for tok, fam in lhs.families.items():
        per_d = {}
        for d in sh.objects:
            fibre_fam = {}
            for i in phi.fibre(d).objects:
                k = kres.cocone[d].ob(i)
                ran_member = d_sets[k][fam[k]][d]
                fibre_fam[i] = rans[d].unit_or_counit[i](ran_member)
            per_d[d] = inner_token[d][tuple(sorted(fibre_fam.items()))]
        mapping[tok] = rhs_token[tuple(sorted(per_d.items()))]
    h = FinFunction(lhs.apex, rhs.apex, mapping)
    return _certify_comparison(
        "check_general_limit_recomposition",
        h,
        seed=seed,
        lhs=len(lhs.apex),
        rhs=len(rhs.apex),
    )


# -- the shared comparisons against the oracles, and their failure paths -----


def outcome(check, *args, **kwargs):
    """A check's report (name, status, stats, witness and seed), or the
    refusal it raised."""
    try:
        rep = check(*args, **kwargs)
    except (BoundExceeded, ResourceExceeded) as exc:
        return type(exc).__name__, exc.args
    return rep.to_dict()


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_formula_reports_match_the_oracles(seed):
    rng = random.Random(seed)
    pairs = []
    phi = random_cat_diagram(rng, max_fibre_objects=3, bases=("TWO", "SPAN"))
    try:
        kres = colimit_cat(phi, bound=300)
    except BoundExceeded:
        kres = None
    if kres is not None:
        x = random_set_diagram(rng, kres.colimit, max_parts=2)
        pairs += [
            (check_cdf, oracle_check_cdf, (phi, x, 300, kres)),
            (
                check_limit_recomposition,
                oracle_check_limit_recomposition,
                (phi, x, 300, kres),
            ),
            (check_cdf_concordance, oracle_check_cdf_concordance, (phi, x, 300)),
        ]
    t = random_set_diagram(rng, groth_co(phi).total, max_parts=2)
    pairs += [
        (check_tfcf, oracle_check_tfcf, (phi, t)),
        (check_general_cdf, oracle_check_general_cdf, (guitart_hat(phi, t), 300)),
    ]
    contra = contravariant_diagram(rng)
    ct = random_set_diagram(rng, groth_contra(contra).total, max_parts=2)
    pairs += [
        (check_twisted_limit, oracle_check_twisted_limit, (contra, ct)),
        (
            check_general_limit_recomposition,
            oracle_check_general_limit_recomposition,
            (backward_hat(contra, ct), 300),
        ),
    ]
    d_name, e_name = rng.choice(
        (("TWO", "SPAN"), ("PAIR", "TWO"), ("SPAN", "PUSH3"), ("Z2", "TWO"))
    )
    d_cat, e_cat = CATS[d_name], CATS[e_name]
    ft = random_set_diagram(rng, product(d_cat, e_cat), max_parts=2)
    pairs.append((check_fubini, oracle_check_fubini, (d_cat, e_cat, ft)))
    for check, oracle, args in pairs:
        assert outcome(check, *args, seed=seed) == outcome(oracle, *args, seed=seed), (
            check.__name__
        )


def span_push3_family():
    phi = DIAGS["span-push3"]
    t = random_set_diagram(random.Random(20), groth_co(phi).total, max_parts=3)
    return guitart_hat(phi, t), colimit_set(t)


def test_decomposition_fails_on_a_leg_that_merges_classes():
    family, lhs = span_push3_family()
    assert len(lhs.apex) > 1
    first = lhs.apex.elements[0]
    report, _, _ = _decomposition("merge", family, lhs, lambda d, i, el: first)
    assert report.status == "fail"
    assert "collision" in report.witness["comparison"]


def test_decomposition_refuses_disagreeing_representatives():
    family, lhs = span_push3_family()

    def leg(d, i, el):
        # a value that follows the fibre object, not the class of el
        objects = family.diagram_at(d).shape.objects
        return lhs.apex.elements[objects.index(i) % len(lhs.apex)]

    with pytest.raises(IllFormedComparison) as err:
        _decomposition("disagree", family, lhs, leg)
    assert err.value.args[0][:2] == ("disagree", "comparison")


def test_recomposition_fails_on_a_value_that_merges_families():
    phi = contra_two_fibres()
    t = random_set_diagram(random.Random(20), groth_contra(phi).total, max_parts=3)
    gr = groth_contra(phi)
    lhs = limit_set(t)
    assert len(lhs.apex) > 1
    first = lhs.families[lhs.apex.elements[0]]

    def value(fam, d, i):
        return first[gr.injections[d].ob(i)]

    report = _recomposition("merge", backward_hat(phi, t), lhs, value)
    assert report.status == "fail"
    assert "collision" in report.witness["comparison"]
