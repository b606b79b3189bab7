"""End-to-end certification of the colimit decomposition and twisted Fubini
formulas, each via a canonical comparison map between two independently
computed sides.

Every "isomorphic" claim is certified by an explicit mediator that is first
checked to be well defined (independent of union-find representatives) and
then checked bijective; cardinality agreement alone is never trusted.
"""
from __future__ import annotations

from .catcolim import (
    certify_cofinal_quotient,
    colimit_cat,
    comparison_q,
)
from .diagcat import colimit_in_diag
from .errors import (
    CertificateFailure,
    IllFormedComparison,
    ShapeMismatch,
)
from .fincat import FinFunctor, identity_functor, opposite, pair_token
from .finset import (
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
from .grothendieck import (
    CatDiagram,
    DiagFamily,
    groth_co,
    groth_contra,
    guitart_hat,
)
from .kan import joint_lan_factor, ran
from .report import failed, passed

DEFAULT_BOUND = 10000


def _well_defined_map(pairs, check_name, label):
    """Collapse (class, value) pairs into a mapping, failing loudly if two
    representatives of one class disagree."""
    mapping = {}
    for cls, val in pairs:
        if cls in mapping and mapping[cls] != val:
            raise IllFormedComparison((check_name, label, cls, mapping[cls], val))
        mapping[cls] = val
    return mapping


def _certify_comparison(check_name, h, seed=None, **stats):
    bij = is_bijection(h)
    if not bij:
        return failed(check_name, {"comparison": bij.witness}, seed=seed, **stats)
    return passed(check_name, seed=seed, **stats)


def _decomposition(check_name, family, lhs, leg, seed=None):
    """Compare the colimit cocone ``lhs`` with the D-colimit of the member
    colimits of a DiagFamily on D, whose transitions push classes along
    (Φu, φ^u).  ``leg(d, i, el)`` is the element of ``lhs.apex`` that ``el``
    in X_d(i) goes to; the induced map out of the iterated colimit is
    certified well defined, then bijective.  Returns the report, the member
    colimits and the iterated colimit."""
    sh = family.shape
    inner = {d: colimit_set(family.diagram_at(d)) for d in sh.objects}
    sets = {d: inner[d].apex for d in sh.objects}
    functions = {}
    for u, d, e in sh.morphisms:
        tr, comp = family.morphisms[u]
        pairs = [
            (cls, inner[e].classify[(tr.ob(i), comp[i](el))])
            for (i, el), cls in inner[d].classify.items()
        ]
        mapping = _well_defined_map(pairs, "inner_transition", u)
        functions[u] = FinFunction(sets[d], sets[e], mapping)
    rhs = colimit_set(SetDiagram(sh, sets, functions).check())
    pairs = [
        (rhs.classify[(d, cls)], leg(d, i, el))
        for d in sh.objects
        for (i, el), cls in inner[d].classify.items()
    ]
    mapping = _well_defined_map(pairs, check_name, "comparison")
    h = FinFunction(rhs.apex, lhs.apex, mapping)
    report = _certify_comparison(
        check_name, h, seed=seed, lhs=len(lhs.apex), rhs=len(rhs.apex)
    )
    return report, inner, rhs


def _by_family(families):
    """Invert ``families`` (token -> family dict): tokens keyed by family."""
    return {tuple(sorted(f.items())): tok for tok, f in families.items()}


def _recomposition(check_name, family, lhs, value, seed=None):
    """Compare the limit cone ``lhs`` with the D-limit of the member limits
    of a backward DiagFamily on D, whose transitions send a family ``fam``
    of X_d to j ↦ φ^u_j(fam[Φu j]).  ``value(fam, d, i)`` is the X_d(i)
    entry of the ``lhs`` family ``fam``; the induced map into the iterated
    limit is certified bijective."""
    sh = family.shape
    inner = {d: limit_set(family.diagram_at(d)) for d in sh.objects}
    token_of = {d: _by_family(inner[d].families) for d in sh.objects}
    fibre = {d: family.diagram_at(d).shape.objects for d in sh.objects}
    sets = {d: inner[d].apex for d in sh.objects}
    functions = {}
    for u, d, e in sh.morphisms:
        tr, comp = family.morphisms[u]
        mapping = {}
        for tok, fam in inner[d].families.items():
            image = {j: comp[j](fam[tr.ob(j)]) for j in fibre[e]}
            mapping[tok] = token_of[e][tuple(sorted(image.items()))]
        functions[u] = FinFunction(sets[d], sets[e], mapping)
    rhs = limit_set(SetDiagram(sh, sets, functions).check())
    rhs_token = _by_family(rhs.families)
    mapping = {}
    for tok, fam in lhs.families.items():
        per_d = {}
        for d in sh.objects:
            entries = {i: value(fam, d, i) for i in fibre[d]}
            per_d[d] = token_of[d][tuple(sorted(entries.items()))]
        mapping[tok] = rhs_token[tuple(sorted(per_d.items()))]
    h = FinFunction(lhs.apex, rhs.apex, mapping)
    return _certify_comparison(
        check_name, h, seed=seed, lhs=len(lhs.apex), rhs=len(rhs.apex)
    )


def _restrictions(phi, x, cocone):
    """The members X∘K_d of X along the colimit legs K_d of Φ, and for
    u: d -> e of D the pair (Φu, identities on X_d(i)): a DiagFamily on D,
    and a backward one on D^op."""
    objects = {d: restrict(x, cocone[d]) for d in phi.shape.objects}
    morphisms = {
        u: (
            phi.transition(u),
            {i: identity_function(objects[d].sets[i]) for i in phi.fibre(d).objects},
        )
        for u, d, _ in phi.shape.morphisms
    }
    return objects, morphisms


# -- Colimit Decomposition Formula -------------------------------------------

def _require_shape(x, shape, message):
    """Refuse a set diagram that does not live on ``shape``."""
    if x.shape != shape:
        raise ShapeMismatch((message,))


def check_cdf(phi, x, bound=DEFAULT_BOUND, kres=None, seed=None):
    """colim over K of X versus the D-colimit of the fibre-wise colimits of
    the restrictions X∘K_d, compared by the canonical class map."""
    phi.check()
    if kres is None:
        kres = colimit_cat(phi, bound)
    x.check()
    _require_shape(x, kres.colimit, "X must live on the glued shape")
    lhs = colimit_set(x)
    family = DiagFamily(phi.shape, *_restrictions(phi, x, kres.cocone))

    def leg(d, i, el):
        return lhs.classify[(kres.cocone[d].ob(i), el)]

    return _decomposition("check_cdf", family, lhs, leg, seed)[0]


def check_limit_recomposition(phi, x, bound=DEFAULT_BOUND, kres=None, seed=None):
    """lim over K of X versus the limit over D of the fibre-wise limits of
    the restrictions, with restriction maps running against D."""
    phi.check()
    if kres is None:
        kres = colimit_cat(phi, bound)
    x.check()
    _require_shape(x, kres.colimit, "X must live on the glued shape")
    lhs = limit_set(x)
    family = DiagFamily(
        opposite(phi.shape), *_restrictions(phi, x, kres.cocone), variant="backward"
    )

    def value(fam, d, i):
        return fam[kres.cocone[d].ob(i)]

    return _recomposition("check_limit_recomposition", family, lhs, value, seed)


def check_cdf_concordance(phi, x, bound=DEFAULT_BOUND, seed=None):
    """Run all three derivations of the decomposition formula on one instance
    and require that they certify the same bijection class.

    (a) the direct comparison; (b) the general formula specialised to the
    family of restrictions, including the joint-Kan universal property of X;
    (c) the route through the cofinal quotient comparison functor.
    """
    phi.check()
    kres = colimit_cat(phi, bound)
    direct = check_cdf(phi, x, bound, kres=kres, seed=seed)
    if not direct:
        return failed("check_cdf_concordance", {"direct": direct.witness}, seed=seed)
    sh = phi.shape
    # (b) the family of restrictions, with identity components
    family = DiagFamily(sh, *_restrictions(phi, x, kres.cocone)).check()
    general = check_general_cdf(family, bound, kres=kres, seed=seed)
    if not general:
        return failed(
            "check_cdf_concordance", {"general": general.witness}, seed=seed
        )
    # joint-Kan property of the original X (the bridge between (a) and (b)):
    # the injections are the identity components at the identities of D
    injections = {d: family.phi(sh.id_of(d)) for d in sh.objects}
    beta = joint_lan_factor(
        phi,
        kres.colimit,
        kres.cocone,
        family.objects,
        {u: family.phi(u) for u in sh.mor_tokens},
        x,
        injections,
        x,
        injections,
    )
    for k in kres.colimit.objects:
        if beta.at(k) != identity_function(x.sets[k]):
            raise CertificateFailure(("joint-Kan mediator must be the identity", k))
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


# -- Twisted Fubini ----------------------------------------------------------

def check_tfcf(phi, t, seed=None):
    """Twisted Fubini for colimits: colim over the total category versus the
    D-colimit of the fibre-wise colimits, with transitions along the
    cocleavage; cross-checked by mediating the composite cocone."""
    phi.check()
    gr = groth_co(phi)
    t.check()
    _require_shape(t, gr.total, "T must live on the total category")
    lhs = colimit_set(t)

    def leg(d, i, el):
        return lhs.classify[(gr.injections[d].ob(i), el)]

    report, inner, rhs = _decomposition(
        "check_tfcf", guitart_hat(phi, t, gr), lhs, leg, seed
    )
    if not report:
        return report
    # independent route: the composite legs form a cocone on T whose
    # mediator out of colim T must again be a bijection
    legs = {
        j.ob(i): inner[d].legs[i].then(rhs.legs[d])
        for d, j in gr.injections.items()
        for i in phi.fibre(d).objects
    }
    med = mediate(lhs, SetCocone(t, rhs.apex, legs))
    cross = is_bijection(med)
    if not cross:
        return failed("check_tfcf", {"composite_cocone": cross.witness}, seed=seed)
    return report


def check_twisted_limit(phi, t, seed=None):
    """Twisted Fubini for limits over the contravariant total category."""
    phi.check()
    gr = groth_contra(phi)
    t.check()
    _require_shape(t, gr.total, "T must live on the total category")
    lhs = limit_set(t)

    def value(fam, d, i):
        return fam[gr.injections[d].ob(i)]

    return _recomposition(
        "check_twisted_limit", _backward_hat(t, gr), lhs, value, seed
    )


# -- plain Fubini ------------------------------------------------------------

def _slices(base, fibre, t, pair):
    """The family on ``base`` of the slices b ↦ T(pair(b, -)) of a diagram T
    on a product of ``base`` and ``fibre``, where ``pair(b, x)`` is the
    product token of b and x: identity transitions, components T(pair(u, 1))
    over u.  Returns the family and the slice inclusions, which are checked
    functors into the shape of T, so a T on another shape is refused."""
    incl = {
        b: FinFunctor(
            fibre,
            t.shape,
            {x: pair(b, x) for x in fibre.objects},
            {g: pair(base.id_of(b), g) for g in fibre.mor_tokens},
        ).check()
        for b in base.objects
    }
    ident = identity_functor(fibre)
    morphisms = {
        u: (ident, {x: t.fn(pair(u, fibre.id_of(x))) for x in fibre.objects})
        for u in base.mor_tokens
    }
    objects = {b: restrict(t, incl[b]) for b in base.objects}
    return DiagFamily(base, objects, morphisms), incl


def check_fubini(d_cat, e_cat, t, seed=None):
    """Fubini: the joint colimit over D×E agrees with both iterated orders,
    each compared with the one ``colim T`` along the slice inclusions."""
    t.check()
    lhs = colimit_set(t)

    def iterated(base, fibre, pair):
        family, incl = _slices(base, fibre, t, pair)

        def leg(b, x, el):
            return lhs.classify[(incl[b].ob(x), el)]

        return _decomposition("check_fubini", family, lhs, leg, seed)[0]

    first = iterated(d_cat, e_cat, pair_token)
    if not first:
        return first
    second = iterated(e_cat, d_cat, lambda e, d: pair_token(d, e))
    if not second:
        return failed(
            "check_fubini", {"other_order": second.witness}, seed=seed
        )
    return passed(
        "check_fubini",
        seed=seed,
        lhs=first.stats["lhs"],
        rhs_de=first.stats["rhs"],
        rhs_ed=second.stats["rhs"],
    )


# -- general decomposition / recomposition ------------------------------------

def check_general_cdf(t, bound=DEFAULT_BOUND, kres=None, seed=None):
    """The general decomposition formula for a family of set diagrams: build
    (K, X) as a colimit of left Kan extensions, then compare colim X with the
    D-colimit of the member colimits; the joint-Kan universal property of X is
    certified along the way.  ``colimit_in_diag`` checks the family."""
    res = colimit_in_diag(t, bound, kres=kres)
    phi = t.cat_diagram()
    sh = phi.shape
    x = res.result.diagram
    lhs = colimit_set(x)
    injections = {d: dict(j.components) for d, j in res.injections.items()}

    def leg(d, i, el):
        k = res.injections[d].functor_part.ob(i)
        return lhs.classify[(k, injections[d][i](el))]

    report = _decomposition("check_general_cdf", t, lhs, leg, seed)[0]
    if not report:
        return report
    # joint-Kan universal property: with target X and the injections as the
    # compatible family, the unique mediator must be the identity
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
        if beta.at(k) != identity_function(x.sets[k]):
            raise CertificateFailure(("joint-Kan mediator must be the identity", k))
    return report


def backward_hat(phi, t):
    """The backward family of a diagram on a contravariant total category:
    member d ↦ T∘J_d with φ^u_j = T(θ^u_j)."""
    gr = groth_contra(phi)
    _require_shape(t, gr.total, "T must live on the total category")
    return _backward_hat(t, gr).check()


def _backward_hat(t, gr):
    """backward_hat, unchecked, for T on the total of ``gr``."""
    phi = gr.diagram
    objects = {d: restrict(t, gr.injections[d]) for d in phi.shape.objects}
    morphisms = {
        u: (
            phi.transition(u),
            {j: t.fn(gr.cleavage[(u, j)]) for j in phi.fibre(e).objects},
        )
        for u, _, e in phi.shape.morphisms
    }
    return DiagFamily(phi.shape, objects, morphisms, variant="backward")


def check_general_limit_recomposition(t, bound=DEFAULT_BOUND, seed=None):
    """The general recomposition formula: build X as a limit of right Kan
    extensions along the colimit legs of the (contravariant) shape diagram,
    then compare lim X with the limit over D of the member limits."""
    t.check()
    phi = t.cat_diagram()  # contravariant on D
    sh = phi.shape
    # the shapes glue covariantly over D^op
    covariant = CatDiagram(
        opposite(sh),
        {d: phi.fibre(d) for d in sh.objects},
        {u: phi.transition(u) for u in sh.mor_tokens},
        "covariant",
    )
    kres = colimit_cat(covariant, bound)
    k_cat = kres.colimit
    rans = {d: ran(kres.cocone[d], t.diagram_at(d)) for d in sh.objects}
    # X(k): compatible D-indexed families of Ran-values, with transitions
    # R_d(k) -> R_e(k) applying φ^u inside each comma family
    functions = {}
    ran_token = {
        d: {k: _by_family(rans[d].classify[k]) for k in k_cat.objects}
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

    def value(fam, d, i):
        # an X-limit family yields, per d, a Φd-family through the Ran counits
        k = kres.cocone[d].ob(i)
        return rans[d].unit_or_counit[i](d_sets[k][fam[k]][d])

    return _recomposition(
        "check_general_limit_recomposition", t, lhs, value, seed
    )
