"""The category of diagrams in a fixed target, its one-object embedding with
the colimit reflection, strictification through comma categories, duality,
and colimits of diagram families.

Diag(C) is the diagram category Diag(P) of a functor P taken at P = C -> 1.
A morphism (F, φ): (I, X) -> (J, Y) is a natural transformation after
restricting one side along its functor part: forward, F: I -> J and
φ: X ⇒ Y∘F on I; backward, F: J -> I and φ: X∘F ⇒ Y on J.  A family of
diagrams over D is a functor D -> Diag (:class:`~fibrelab.grothendieck.DiagFamily`).

Diagram categories over a large target are never materialized; objects and
morphisms are validated and composed on demand.
"""
from __future__ import annotations

from dataclasses import dataclass

from .catcolim import colimit_cat
from .errors import (
    AmbientNotFinite,
    CertificateFailure,
    DanglingToken,
    EndpointMismatch,
    NotAMorphism,
    ShapeMismatch,
    VariantMismatch,
)
from .fincat import (
    FinCategory,
    FinFunctor,
    NatTransformation,
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
    SetNat,
    UnionFind,
    colimit_set,
    identity_function,
    mediate,
    restrict,
)
from .fixtures import one
from .kan import lan
from .report import failed, passed


class _FinSets:
    """The ambient of set-valued diagrams: finite sets and functions, with
    the ``id_of`` and ``compose`` of a FinCategory."""

    id_of = staticmethod(identity_function)
    compose = staticmethod(lambda g, f: f.then(g))


_FINSETS = _FinSets()

# per kind: the diagram type, X∘F, and the transformations between diagrams
_KINDS = {
    "set": (SetDiagram, restrict, SetNat),
    "cat": (FinFunctor, compose_functor, NatTransformation),
}


@dataclass
class DiagObject:
    """A diagram (I, X): set-valued (X a SetDiagram on I) or cat-valued
    (X a FinFunctor I -> ambient)."""

    shape: FinCategory
    diagram: object
    kind: str = "set"  # "set" | "cat"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise VariantMismatch(("diagram kind", self.kind))
        if not isinstance(self.diagram, _KINDS[self.kind][0]):
            raise ShapeMismatch(("not a %s-valued diagram" % self.kind,))
        shape = self.diagram.shape if self.kind == "set" else self.diagram.source
        if shape != self.shape:
            raise ShapeMismatch(("diagram not on its shape",))

    @property
    def ambient(self):
        return self.diagram.target if self.kind == "cat" else _FINSETS

    def value_at(self, i):
        if self.kind == "set":
            return self.diagram.sets[i]
        return self.diagram.ob(i)

    def arrow_at(self, m):
        if self.kind == "set":
            return self.diagram.fn(m)
        return self.diagram.mor(m)

    def along(self, f):
        """X∘F, for a functor F into the shape."""
        return _KINDS[self.kind][1](self.diagram, f)


# witness kinds of the naturality checks, as a Diag morphism names them
_WITNESS = {"naturality square": "naturality"}


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
        if self.variant not in ("forward", "backward"):
            raise VariantMismatch(("morphism variant", self.variant))

    def at(self, i):
        return dict(self.components)[i]

    def check(self):
        """φ is natural: X ⇒ Y∘F on I (forward) or X∘F ⇒ Y on J (backward).
        A failure raises NotAMorphism with the kind and the index object or
        morphism where it occurs."""
        src, tgt, f = self.source, self.target, self.functor_part
        if src.kind != tgt.kind:
            raise EndpointMismatch(("kind", src.kind, tgt.kind))
        forward = self.variant == "forward"
        index, other = (src, tgt) if forward else (tgt, src)
        if f.source != index.shape or f.target != other.shape:
            raise EndpointMismatch(("functor part", self.variant))
        comp = dict(self.components)
        if set(comp) != set(index.shape.objects):
            raise NotAMorphism(("component index set", sorted(comp)))
        x = src.diagram if forward else src.along(f)
        y = tgt.along(f) if forward else tgt.diagram
        try:
            _KINDS[src.kind][2](x, y, comp).check()
        except (DanglingToken, ShapeMismatch) as err:
            kind = err.args[0][0]
            raise NotAMorphism((_WITNESS.get(kind, kind),) + err.args[0][1:2]) from None
        return self


def diag_identity(dobj):
    amb = dobj.ambient
    comps = tuple((i, amb.id_of(dobj.value_at(i))) for i in dobj.shape.objects)
    return DiagMorphism(
        "forward", dobj, dobj, identity_functor(dobj.shape), comps
    ).check()


def diag_composite(m2, m1):
    """m2·m1 unchecked: its functor parts in composition order and its
    components, forward ((G, F), ψF·φ) over the index of m1, backward
    ((F, G), ψ·φG) over the index of m2, composed in the ambient."""
    f, g = m1.functor_part, m2.functor_part
    first, second = dict(m1.components), dict(m2.components)
    amb = m1.source.ambient
    if m1.variant == "forward":
        comps = tuple(
            (i, amb.compose(second[f.ob(i)], first[i]))
            for i in m1.source.shape.objects
        )
        return (g, f), comps
    comps = tuple(
        (k, amb.compose(second[k], first[g.ob(k)]))
        for k in m2.target.shape.objects
    )
    return (f, g), comps


def diag_compose(m2, m1):
    """Composite of lax-triangle morphisms: forward (GF, ψF·φ), backward
    (FG, ψ·φG)."""
    if m2.variant != m1.variant:
        raise VariantMismatch((m2.variant, m1.variant))
    if m1.target != m2.source:
        raise EndpointMismatch(("composition endpoints",))
    functors, comps = diag_composite(m2, m1)
    return DiagMorphism(
        m1.variant, m1.source, m2.target, compose_functor(*functors), comps
    ).check()


def verify_2cell(alpha, m, m_prime):
    """Check that α: F -> F′ is a 2-cell m ⇒ m′, i.e. Yα·φ = φ′."""
    if m.source != m_prime.source or m.target != m_prime.target:
        return failed("verify_2cell", {"not_parallel": True})
    if alpha.source != m.functor_part or alpha.target != m_prime.functor_part:
        return failed("verify_2cell", {"alpha_endpoints": True})
    y, amb = m.target, m.source.ambient
    for i in m.functor_part.source.objects:
        lhs = amb.compose(y.arrow_at(alpha.at(i)), m.at(i))
        if lhs != m_prime.at(i):
            return failed("verify_2cell", {"object": i})
    return passed("verify_2cell", components=len(m.components))


# -- the one-object embedding and its reflection -----------------------------

def embed(s):
    """A finite set as a ONE-shaped diagram."""
    shape = one()
    ident = {shape.id_of("*"): identity_function(s)}
    return DiagObject(shape, SetDiagram(shape, {"*": s}, ident), "set")


def embed_and_reflect(dobj):
    """The reflection unit (I,X) -> E(colim X): the unique-shape collapse
    with the colimit injections as components.  Universal: every forward
    morphism from (I,X) to an embedded set factors uniquely through it."""
    if dobj.kind != "set":
        raise AmbientNotFinite("the reflection needs a set-valued diagram")
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
    if m.variant != "forward":
        raise VariantMismatch(("strictify needs a forward morphism", m.variant))
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
    if h.target != cy.category:
        raise NotAMorphism(("not into the strict category",))
    on_objects, comps = {}, []
    for i in x_dobj.shape.objects:
        a, j, u = cy.triples[h.ob(i)]
        if a != x_dobj.diagram.ob(i):
            raise NotAMorphism(("not over the ambient", i))
        on_objects[i] = j
        comps.append((i, u))
    on_morphisms = {}
    for q in x_dobj.shape.mor_tokens:
        p, fq = cy.pairs[h.mor(q)]
        if p != x_dobj.diagram.mor(q):
            raise NotAMorphism(("not over the ambient", q))
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
    # X and Y∘F are functors into the checked ambient, on a shape that
    # enumerate_functors checks
    functorial = x._checked and y._checked and amb._checked and y.target == amb
    out = []
    for f in enumerate_functors(x_dobj.shape, y_dobj.shape):
        pools = {i: amb.hom(x.ob(i), y.ob(f.ob(i))) for i in x.source.objects}
        along_f = lambda m: y.mor(f.mor(m))
        for comp in natural_families(
            amb, x.source, pools, x.mor, along_f, functorial
        ):
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
    # (i, w, x) ↦ (Φu i, w, φ^u_i(x)); the unions along the generators of D
    # imply those along their composites, as Φ and φ are functorial
    sets, classify = {}, {}
    for k in k_cat.objects:
        uf = UnionFind()
        for d in sh.objects:
            for rep in lans[d].extension.sets[k]:
                uf.find((d, rep))
        for u in sh.generators:
            d, e, tr, phi_u = sh.dom(u), sh.cod(u), phi.transition(u), t.phi(u)
            for (i, w, x), rep in lans[d].classify[k].items():
                pushed = lans[e].classify[k][(tr.ob(i), w, phi_u[i](x))]
                uf.union((d, rep), (e, pushed))
        classify[k], order = uf.named("%s.%s".__mod__, "diagram colimit element")
        sets[k] = FinSet(tuple(order))
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
            pushed = t.phi(u)[i].then(injections[e].at(tr.ob(i)))
            if pushed != injections[d].at(i):
                raise CertificateFailure(("colimit injections not a cocone", u, i))
    return DiagColimit(kres, result, injections, lans)


# -- duality -----------------------------------------------------------------

def dualize(m):
    """The involution between backward morphisms over an ambient category and
    forward morphisms over its opposite (and back)."""
    m.check()
    if m.source.kind != "cat":
        raise AmbientNotFinite("duality needs a cat-valued diagram")
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
