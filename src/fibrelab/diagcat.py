"""The category of diagrams in a fixed target: lax-triangle morphisms in both
variances, the one-object embedding with its colimit reflection,
strictification through comma categories, duality, and colimits of diagram
families.

Diagram categories over a large target are never materialized; objects and
morphisms are validated and composed on demand.
"""
from __future__ import annotations

from dataclasses import dataclass

from .catcolim import colimit_cat
from .errors import (
    AmbientNotFinite,
    EndpointMismatch,
    NotAMorphism,
    VariantMismatch,
)
from .fincat import (
    FinCategory,
    FinFunctor,
    comma,
    compose_functor,
    constant_functor,
    identity_functor,
    opposite,
)
from .finset import (
    FinFunction,
    FinSet,
    SetDiagram,
    colimit_set,
    mediate,
)
from .fixtures import one
from .kan import lan
from .report import failed, passed


@dataclass
class DiagObject:
    """A diagram (I, X): set-valued (X a SetDiagram on I) or cat-valued
    (X a FinFunctor I -> ambient)."""

    shape: FinCategory
    diagram: object
    kind: str = "set"  # "set" | "cat"

    def __post_init__(self):
        assert self.kind in ("set", "cat")
        if self.kind == "set":
            assert isinstance(self.diagram, SetDiagram)
            assert self.diagram.shape == self.shape
        else:
            assert isinstance(self.diagram, FinFunctor)
            assert self.diagram.source == self.shape

    @property
    def ambient(self):
        return self.diagram.target if self.kind == "cat" else None

    def value_at(self, i):
        if self.kind == "set":
            return self.diagram.sets[i]
        return self.diagram.ob(i)

    def arrow_at(self, m):
        if self.kind == "set":
            return self.diagram.fn(m)
        return self.diagram.mor(m)


@dataclass
class DiagMorphism:
    """A lax-triangle morphism of diagrams.

    forward (I,X) -> (J,Y): functor_part F: I -> J, components over I,
    φ_i: X(i) -> Y(F i).  backward (I,X) -> (J,Y): functor_part F: J -> I,
    components over J, φ_j: X(F j) -> Y(j).
    """

    variant: str
    source: DiagObject
    target: DiagObject
    functor_part: FinFunctor
    components: tuple  # tuple of (index object, component) pairs

    def __post_init__(self):
        assert self.variant in ("forward", "backward")

    def at(self, i):
        return dict(self.components)[i]

    def check(self):
        src, tgt, f = self.source, self.target, self.functor_part
        if src.kind != tgt.kind:
            raise EndpointMismatch(("kind", src.kind, tgt.kind))
        if self.variant == "forward":
            if f.source != src.shape or f.target != tgt.shape:
                raise EndpointMismatch(("functor part", self.variant))
            index, x_of, y_of = src.shape, src, lambda i: tgt.value_at(f.ob(i))
        else:
            if f.source != tgt.shape or f.target != src.shape:
                raise EndpointMismatch(("functor part", self.variant))
            index, y_of = tgt.shape, tgt.value_at
            x_of = None
        comp = dict(self.components)
        if set(comp) != set(index.objects):
            raise NotAMorphism(("component index set", sorted(comp)))
        kind = src.kind
        for i in index.objects:
            dom_v = (
                src.value_at(i)
                if self.variant == "forward"
                else src.value_at(f.ob(i))
            )
            cod_v = (
                tgt.value_at(f.ob(i))
                if self.variant == "forward"
                else tgt.value_at(i)
            )
            c = comp[i]
            if kind == "set":
                if c.source != dom_v or c.target != cod_v:
                    raise NotAMorphism(("component endpoints", i))
            else:
                amb = src.ambient
                if amb.dom(c) != dom_v or amb.cod(c) != cod_v:
                    raise NotAMorphism(("component endpoints", i))
        # naturality over the index category
        for m in index.mor_tokens:
            i, j = index.dom(m), index.cod(m)
            if self.variant == "forward":
                top = src.arrow_at(m)
                bot = tgt.arrow_at(f.mor(m))
            else:
                top = src.arrow_at(f.mor(m))
                bot = tgt.arrow_at(m)
            if kind == "set":
                if top.then(comp[j]) != comp[i].then(bot):
                    raise NotAMorphism(("naturality", m))
            else:
                amb = src.ambient
                if amb.compose(comp[j], top) != amb.compose(bot, comp[i]):
                    raise NotAMorphism(("naturality", m))
        return self


def diag_identity(dobj):
    if dobj.kind == "set":
        comps = tuple(
            (i, FinFunction(dobj.value_at(i), dobj.value_at(i),
                            {e: e for e in dobj.value_at(i)}))
            for i in dobj.shape.objects
        )
    else:
        comps = tuple(
            (i, dobj.ambient.id_of(dobj.value_at(i)))
            for i in dobj.shape.objects
        )
    return DiagMorphism(
        "forward", dobj, dobj, identity_functor(dobj.shape), comps
    ).check()


def diag_compose(m2, m1):
    """Composite of lax-triangle morphisms: forward (GF, ψF·φ), backward
    (FG, ψ·φG)."""
    if m2.variant != m1.variant:
        raise VariantMismatch((m2.variant, m1.variant))
    if m1.target != m2.source:
        raise EndpointMismatch(("composition endpoints",))
    kind = m1.source.kind
    f, g = m1.functor_part, m2.functor_part

    def comp(a, b):  # a after b
        if kind == "set":
            return b.then(a)
        return m1.source.ambient.compose(a, b)

    if m1.variant == "forward":
        functor = compose_functor(g, f)
        comps = tuple(
            (i, comp(m2.at(f.ob(i)), m1.at(i)))
            for i in m1.source.shape.objects
        )
    else:
        functor = compose_functor(f, g)
        comps = tuple(
            (k, comp(m2.at(k), m1.at(g.ob(k))))
            for k in m2.target.shape.objects
        )
    return DiagMorphism(
        m1.variant, m1.source, m2.target, functor, comps
    ).check()


def verify_2cell(alpha, m, m_prime):
    """Check that α: F -> F′ is a 2-cell m ⇒ m′, i.e. Yα·φ = φ′."""
    if m.source != m_prime.source or m.target != m_prime.target:
        return failed("verify_2cell", {"not_parallel": True})
    if alpha.source != m.functor_part or alpha.target != m_prime.functor_part:
        return failed("verify_2cell", {"alpha_endpoints": True})
    y = m.target
    kind = m.source.kind
    for i in m.functor_part.source.objects:
        if kind == "set":
            lhs = m.at(i).then(y.arrow_at(alpha.at(i)))
        else:
            lhs = m.source.ambient.compose(y.arrow_at(alpha.at(i)), m.at(i))
        if lhs != m_prime.at(i):
            return failed("verify_2cell", {"object": i})
    return passed("verify_2cell", components=len(m.components))


# -- the one-object embedding and its reflection -----------------------------

def embed(s):
    """A finite set as a ONE-shaped diagram."""
    shape = one()
    ident = {
        shape.id_of("*"): FinFunction(s, s, {e: e for e in s})
    }
    return DiagObject(shape, SetDiagram(shape, {"*": s}, ident), "set")


def embed_and_reflect(dobj):
    """The reflection unit (I,X) -> E(colim X): the unique-shape collapse
    with the colimit injections as components.  Universal: every forward
    morphism from (I,X) to an embedded set factors uniquely through it."""
    assert dobj.kind == "set"
    col = colimit_set(dobj.diagram)
    target = embed(col.apex)
    unit = DiagMorphism(
        "forward",
        dobj,
        target,
        constant_functor(dobj.shape, target.shape, "*"),
        tuple((i, col.legs[i]) for i in dobj.shape.objects),
    ).check()
    unit.colimit = col
    return unit


def reflect_factor(unit, m):
    """Factor a forward morphism m: (I,X) -> embed(S) through the unit."""
    from .finset import SetCocone

    s = m.target.value_at("*")
    cocone = SetCocone(
        unit.source.diagram,
        s,
        {i: m.at(i) for i in unit.source.shape.objects},
    )
    h = mediate(unit.colimit, cocone)
    return DiagMorphism(
        "forward",
        unit.target,
        m.target,
        identity_functor(one()),
        (("*", h),),
    ).check()


# -- strictification ---------------------------------------------------------

def strict_category(dobj):
    """Strict(X) = the comma category Id_ambient ↓ X, with its projection
    to the ambient category."""
    if dobj.kind != "cat":
        raise AmbientNotFinite("strictification needs a cat-valued diagram")
    return comma(identity_functor(dobj.ambient), dobj.diagram)


def _strict_index(cy):
    """Inverse tables of a strict category: comma triple -> object token,
    and (pair, dom, cod) -> the first morphism token carrying them."""
    objects, morphisms = {}, {}
    for t, trip in cy.triples.items():
        objects.setdefault(trip, t)
    for t in cy.category.mor_tokens:
        key = (cy.pairs[t], cy.category.dom(t), cy.category.cod(t))
        morphisms.setdefault(key, t)
    return objects, morphisms


def strictify(m):
    """Strict(F, φ): Id↓X -> Id↓Y, (a, i, u) ↦ (a, F i, φ_i·u)."""
    m.check()
    assert m.variant == "forward" and m.source.kind == "cat"
    amb = m.source.ambient
    cx, cy = strict_category(m.source), strict_category(m.target)
    objects, morphisms = _strict_index(cy)
    f = m.functor_part
    on_objects = {
        tok: objects[(a, f.ob(i), amb.compose(m.at(i), u))]
        for tok, (a, i, u) in cx.triples.items()
    }
    on_morphisms = {}
    for tok, (p, q) in cx.pairs.items():
        src, tgt = cx.category.dom(tok), cx.category.cod(tok)
        key = ((p, f.mor(q)), on_objects[src], on_objects[tgt])
        on_morphisms[tok] = morphisms[key]
    return cy, FinFunctor(cx.category, cy.category, on_objects, on_morphisms).check()


def lax_to_strict(x_dobj, y_dobj, m):
    """One direction of the strictification bijection: a forward morphism
    (F, φ): X -> Y becomes the functor H: I -> Id↓Y over the ambient,
    H(i) = (X i, F i, φ_i)."""
    cy = strict_category(y_dobj)
    objects, morphisms = _strict_index(cy)
    f = m.functor_part
    x = x_dobj.diagram
    on_objects = {
        i: objects[(x.ob(i), f.ob(i), m.at(i))] for i in x_dobj.shape.objects
    }
    on_morphisms = {}
    for q in x_dobj.shape.mor_tokens:
        src, tgt = x_dobj.shape.dom(q), x_dobj.shape.cod(q)
        key = ((x.mor(q), f.mor(q)), on_objects[src], on_objects[tgt])
        on_morphisms[q] = morphisms[key]
    return FinFunctor(
        x_dobj.shape, cy.category, on_objects, on_morphisms
    ).check()


def strict_to_lax(x_dobj, y_dobj, h):
    """The inverse direction: a functor H: I -> Id↓Y with dom∘H = X becomes
    the forward morphism (F, φ) with F i and φ_i read off the comma triples."""
    cy = strict_category(y_dobj)
    assert h.target == cy.category
    on_objects, comps = {}, []
    for i in x_dobj.shape.objects:
        a, j, u = cy.triples[h.ob(i)]
        assert a == x_dobj.diagram.ob(i), "not a morphism over the ambient"
        on_objects[i] = j
        comps.append((i, u))
    on_morphisms = {}
    for q in x_dobj.shape.mor_tokens:
        p, fq = cy.pairs[h.mor(q)]
        assert p == x_dobj.diagram.mor(q), "not over the ambient"
        on_morphisms[q] = fq
    f = FinFunctor(
        x_dobj.shape, y_dobj.shape, on_objects, on_morphisms
    ).check()
    return DiagMorphism(
        "forward", x_dobj, y_dobj, f, tuple(comps)
    ).check()


def enumerate_forward(x_dobj, y_dobj):
    """All forward morphisms (F, φ) between two cat-valued diagrams."""
    from .fibrations import enumerate_functors, natural_families

    amb = x_dobj.ambient
    x, y = x_dobj.diagram, y_dobj.diagram
    out = []
    for f in enumerate_functors(x_dobj.shape, y_dobj.shape):
        pools = {i: amb.hom(x.ob(i), y.ob(f.ob(i))) for i in x.source.objects}
        along_f = lambda m: y.mor(f.mor(m))
        for comp in natural_families(amb, x.source, pools, x.mor, along_f):
            m = DiagMorphism("forward", x_dobj, y_dobj, f, tuple(comp.items()))
            out.append(m.check())
    return out


def enumerate_strict(x_dobj, y_dobj):
    """All functors H: I -> Id↓Y with dom∘H = X."""
    from .fibrations import enumerate_functors

    cy = strict_category(y_dobj)
    out = []
    for h in enumerate_functors(x_dobj.shape, cy.category):
        if compose_functor(cy.left_projection, h) == x_dobj.diagram:
            out.append(h)
    return out


def strict_hom_bijection(x_dobj, y_dobj):
    """Certify the adjunction bijection between lax morphisms X -> Y and
    strict morphisms over the ambient, by round-tripping both enumerations."""
    lax = enumerate_forward(x_dobj, y_dobj)
    strict = enumerate_strict(x_dobj, y_dobj)
    if len(lax) != len(strict):
        return failed(
            "strict_hom_bijection",
            {"lax": len(lax), "strict": len(strict)},
        )
    seen = set()
    for m in lax:
        h = lax_to_strict(x_dobj, y_dobj, m)
        back = strict_to_lax(x_dobj, y_dobj, h)
        if back != m:
            return failed(
                "strict_hom_bijection",
                {"lax_round_trip": dict(m.functor_part.on_objects)},
            )
        seen.add((tuple(sorted(h.on_objects.items())),
                  tuple(sorted(h.on_morphisms.items()))))
    for h in strict:
        key = (tuple(sorted(h.on_objects.items())),
               tuple(sorted(h.on_morphisms.items())))
        if key not in seen:
            return failed(
                "strict_hom_bijection", {"strict_not_hit": dict(h.on_objects)}
            )
        back = strict_to_lax(x_dobj, y_dobj, h)
        again = lax_to_strict(x_dobj, y_dobj, back)
        if (tuple(sorted(again.on_objects.items())),
                tuple(sorted(again.on_morphisms.items()))) != key:
            return failed(
                "strict_hom_bijection", {"strict_round_trip": dict(h.on_objects)}
            )
    return passed("strict_hom_bijection", count=len(lax))


# -- colimits of diagram families --------------------------------------------

@dataclass
class DiagColimit:
    shape_colimit: object  # CatColimitResult for the shapes
    result: DiagObject  # (K, X)
    injections: dict  # d -> DiagMorphism (K_d, ι_d)
    lans: dict  # d -> KanResult for Lan along K_d


def colimit_in_diag(t, bound=10000, kres=None):
    """The colimit of a family of set diagrams: glue the shapes in Cat, take
    left Kan extensions of each member along its colimit leg, and form their
    pointwise colimit over the family's base.  ``kres`` is the colimit of
    the shapes when the caller already has it."""
    t.check()
    phi = t.cat_diagram()
    sh = phi.shape
    if kres is None:
        kres = colimit_cat(phi, bound)
    k_cat = kres.colimit
    lans = {d: lan(kres.cocone[d], t.diagram_at(d)) for d in sh.objects}
    # pointwise colimit over D of the L_d, transitions pushing comma classes
    # (i, w, x) ↦ (Φu i, w, φ^u_i(x))
    sets, classify, legs = {}, {}, {}
    for k in k_cat.objects:
        from .finset import UnionFind, element_token

        uf = UnionFind()
        members = []
        for d in sh.objects:
            for rep in lans[d].extension.sets[k]:
                uf.find("%s.%s" % (d, rep))
                members.append((d, rep))
        for u, d, e in sh.morphisms:
            tr = phi.transition(u)
            for (i, w, x), rep in lans[d].classify[k].items():
                pushed = lans[e].classify[k][(tr.ob(i), w, t.phi(u)[i](x))]
                uf.union("%s.%s" % (d, rep), "%s.%s" % (e, pushed))
        seen, order, cls = set(), [], {}
        for d, rep in members:
            root = uf.find("%s.%s" % (d, rep))
            cls[(d, rep)] = root
            if root not in seen:
                seen.add(root)
                order.append(root)
        sets[k] = FinSet(tuple(order))
        classify[k] = cls
    functions = {}
    for m in k_cat.mor_tokens:
        k1, k2 = k_cat.dom(m), k_cat.cod(m)
        mapping = {}
        for (d, rep), root in classify[k1].items():
            mapping.setdefault(
                root, classify[k2][(d, lans[d].extension.fn(m)(rep))]
            )
        functions[m] = FinFunction(sets[k1], sets[k2], mapping)
    x = SetDiagram(k_cat, sets, functions).check()
    result = DiagObject(k_cat, x, "set")
    injections = {}
    for d in sh.objects:
        comps = []
        for i in phi.fibre(d).objects:
            ki = kres.cocone[d].ob(i)
            comp = FinFunction(
                t.diagram_at(d).sets[i],
                sets[ki],
                {
                    el: classify[ki][(d, lans[d].unit_or_counit[i](el))]
                    for el in t.diagram_at(d).sets[i]
                },
            )
            comps.append((i, comp))
        src = DiagObject(phi.fibre(d), t.diagram_at(d), "set")
        injections[d] = DiagMorphism(
            "forward", src, result, kres.cocone[d], tuple(comps)
        ).check()
    # cocone compatibility: ι_e ∘ (Φu, φ^u) = ι_d
    for u, d, e in sh.morphisms:
        tr = phi.transition(u)
        for i in phi.fibre(d).objects:
            assert t.phi(u)[i].then(injections[e].at(tr.ob(i))) == injections[
                d
            ].at(i), ("colimit injections not a cocone", u, i)
    return DiagColimit(kres, result, injections, lans)


# -- duality -----------------------------------------------------------------

def dualize(m):
    """The involution between backward morphisms over an ambient category and
    forward morphisms over its opposite (and back)."""
    m.check()
    assert m.source.kind == "cat"
    flip = "forward" if m.variant == "backward" else "backward"
    dual_src = DiagObject(
        opposite(m.target.shape), m.target.diagram.op, "cat"
    )
    dual_tgt = DiagObject(
        opposite(m.source.shape), m.source.diagram.op, "cat"
    )
    return DiagMorphism(
        flip, dual_src, dual_tgt, m.functor_part.op, m.components
    ).check()
