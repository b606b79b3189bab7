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
from .errors import IllFormedComparison, NonFunctorialFamily
from .fincat import FinFunctor, opposite
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
from .grothendieck import DiagFamily, groth_co, groth_contra, guitart_hat
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


def _inner_colimit_transitions(shape, inner, target_class):
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


def _certify_comparison(check_name, h, seed=None, **stats):
    bij = is_bijection(h)
    if not bij:
        return failed(check_name, {"comparison": bij.witness}, seed=seed, **stats)
    return passed(check_name, seed=seed, **stats)


# -- Colimit Decomposition Formula -------------------------------------------

def check_cdf(phi, x, bound=DEFAULT_BOUND, kres=None, seed=None):
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

    outer = _inner_colimit_transitions(sh, inner, push)
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


def check_limit_recomposition(phi, x, bound=DEFAULT_BOUND, kres=None, seed=None):
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
    objects = {d: restrict(x, kres.cocone[d]) for d in sh.objects}
    morphisms = {}
    for u, d, e in sh.morphisms:
        comps = {
            i: identity_function(objects[d].sets[i])
            for i in phi.fibre(d).objects
        }
        morphisms[u] = (phi.transition(u), comps)
    family = DiagFamily(sh, objects, morphisms).check()
    general = check_general_cdf(family, bound, seed=seed)
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


# -- Twisted Fubini ----------------------------------------------------------

def check_tfcf(phi, t, seed=None):
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

    outer = _inner_colimit_transitions(sh, inner, push)
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


def check_twisted_limit(phi, t, seed=None):
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


# -- plain Fubini ------------------------------------------------------------

def _product_inclusion(d_cat, e_cat, prod, d):
    on_objects = {e: "(%s,%s)" % (d, e) for e in e_cat.objects}
    on_morphisms = {
        g: "(%s,%s)" % (d_cat.id_of(d), g) for g in e_cat.mor_tokens
    }
    return FinFunctor(e_cat, prod, on_objects, on_morphisms).check()


def _fubini_one_order(d_cat, e_cat, t, check_name, seed):
    """colim over D×E versus colim over D of the E-fibre colimits."""
    prod = t.shape
    lhs = colimit_set(t)
    inner = {
        d: colimit_set(restrict(t, _product_inclusion(d_cat, e_cat, prod, d)))
        for d in d_cat.objects
    }

    def push(f, member):
        e, el = member
        arrow = "(%s,%s)" % (f, e_cat.id_of(e))
        return inner[d_cat.cod(f)].classify[(e, t.fn(arrow)(el))]

    outer = _inner_colimit_transitions(d_cat, inner, push)
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


def _swap_product_diagram(d_cat, e_cat, t):
    from .fincat import product

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


def check_fubini(d_cat, e_cat, t, seed=None):
    """Fubini: the joint colimit over D×E agrees with both iterated orders."""
    t.check()
    first = _fubini_one_order(d_cat, e_cat, t, "check_fubini", seed)
    if not first:
        return first
    swapped = _swap_product_diagram(d_cat, e_cat, t)
    second = _fubini_one_order(e_cat, d_cat, swapped, "check_fubini", seed)
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


# -- general decomposition / recomposition ------------------------------------

def check_general_cdf(t, bound=DEFAULT_BOUND, seed=None):
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

    outer = _inner_colimit_transitions(sh, inner, push)
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


class BackwardFamily:
    """A functor D -> Diag_∘(FinSet): member diagrams X_d on fibres Φd, and
    for u: d -> e a transition functor Φu: Φe -> Φd with components
    ψ^u_j: X_d(Φu j) -> X_e(j)."""

    def __init__(self, shape, objects, morphisms):
        self.shape = shape
        self.objects = dict(objects)
        self.morphisms = dict(morphisms)  # u -> (FinFunctor, dict j -> FinFunction)

    def diagram_at(self, d):
        return self.objects[d]

    def transition(self, u):
        return self.morphisms[u][0]

    def psi(self, u):
        return self.morphisms[u][1]

    def cat_diagram(self):
        from .grothendieck import CatDiagram

        return CatDiagram(
            self.shape,
            {d: self.objects[d].shape for d in self.shape.objects},
            {u: self.morphisms[u][0] for u in self.shape.mor_tokens},
            variance="contravariant",
        )

    def check(self):
        sh = self.shape
        self.cat_diagram().check()
        for d in sh.objects:
            self.objects[d].check()
        for u, d, e in sh.morphisms:
            tr, comp = self.morphisms[u]
            xd, xe = self.objects[d], self.objects[e]
            for j in xe.shape.objects:
                c = comp.get(j)
                if c is None:
                    raise NonFunctorialFamily(("missing component", u, j))
                if c.source != xd.sets[tr.ob(j)] or c.target != xe.sets[j]:
                    raise NonFunctorialFamily(("component endpoints", u, j))
            for h in xe.shape.mor_tokens:
                j1, j2 = xe.shape.dom(h), xe.shape.cod(h)
                left = xd.fn(tr.mor(h)).then(comp[j2])
                right = comp[j1].then(xe.fn(h))
                if left != right:
                    raise NonFunctorialFamily(("naturality", u, h))
        for d in sh.objects:
            i = sh.id_of(d)
            for j in self.objects[d].shape.objects:
                if self.morphisms[i][1][j] != identity_function(
                    self.objects[d].sets[j]
                ):
                    raise NonFunctorialFamily(("identity components", d, j))
        for g, f in sh.composable_pairs():
            gf = sh.compose(g, f)
            tg = self.morphisms[g][0]
            for j in self.objects[sh.cod(g)].shape.objects:
                expect = self.morphisms[f][1][tg.ob(j)].then(
                    self.morphisms[g][1][j]
                )
                if self.morphisms[gf][1][j] != expect:
                    raise NonFunctorialFamily(("composition law", g, f, j))
        return self


def backward_hat(phi, t):
    """The backward family of a diagram on a contravariant total category:
    member d ↦ T∘J_d with ψ^u_j = T(θ^u_j)."""
    gr = groth_contra(phi)
    assert t.shape == gr.total
    objects = {
        d: restrict(t, gr.injections[d]) for d in phi.shape.objects
    }
    morphisms = {}
    for u, d, e in phi.shape.morphisms:
        comp = {
            j: t.fn(gr.cleavage[(u, j)]) for j in phi.fibre(e).objects
        }
        morphisms[u] = (phi.transition(u), comp)
    return BackwardFamily(phi.shape, objects, morphisms).check()


def check_general_limit_recomposition(t, bound=DEFAULT_BOUND, seed=None):
    """The general recomposition formula: build X as a limit of right Kan
    extensions along the colimit legs of the (contravariant) shape diagram,
    then compare lim X with the limit over D of the member limits."""
    t.check()
    phi = t.cat_diagram()  # contravariant on D
    sh = phi.shape
    # the shapes glue covariantly over D^op
    opp_phi_shape = opposite(sh)
    from .grothendieck import CatDiagram

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
            (j, w): t.psi(u)[j](fam[(tr.ob(j), w)])
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
            image = {j: t.psi(u)[j](fam[tr.ob(j)]) for j in phi.fibre(e).objects}
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
