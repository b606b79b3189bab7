"""Both Grothendieck constructions with their (co)cleavages and fibre
injections, the hat/check correspondence between diagrams on the total
category and diagram-valued families, and lax-cocone extension.

Only the covariant construction is built from the tables.  The
contravariant one is derived: for Φ: B^op -> Cat, ∫Φ is the opposite of the
covariant construction on the pointwise opposite diagram
(:func:`opposed_fibres`), with its morphisms named "u|f|y".

Token conventions: a total object over base object ``a`` with fibre object
``x`` is ``"a|x"``.  A covariant total morphism (u, f) with source fibre
object x is ``"u|x|f"`` (x is recorded because the transition functor need
not be injective on objects, so (u, f) alone would be ambiguous); the
contravariant dual records the target fibre object: ``"u|f|y"``.

A :class:`CatDiagram` is immutable once built (its fibres and transitions are
read-only views) and validated at most once, as its fibres and transition
functors are.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    CertificateFailure,
    NonFunctorialDiagram,
    NonFunctorialFamily,
    NotALaxCocone,
    NotAMorphism,
    ShapeMismatch,
    VariantMismatch,
)
from .fincat import (
    FinCategory,
    FinFunctor,
    compose_functor,
    first_witness,
    identity_functor,
)
from .finset import SetDiagram, identity_function


# the variance of a family's shape diagram
_VARIANCE = {"forward": "covariant", "backward": "contravariant"}


def obj_token(a, x):
    return "%s|%s" % (a, x)


class CatDiagram:
    """A strictly functorial Cat-valued diagram on a finite shape.

    ``transitions`` maps each shape morphism u to a FinFunctor between the
    fibres — covariantly fibre(dom u) -> fibre(cod u), contravariantly the
    reverse.  The string ``"id"`` may be used for identity transitions.
    Immutable once built: ``fibres`` and ``transitions`` are read-only
    views, and :meth:`check` validates at most once.
    """

    def __init__(self, shape, fibres, transitions, variance="covariant"):
        if variance not in ("covariant", "contravariant"):
            raise NonFunctorialDiagram(("unknown variance", variance))
        self.shape = shape
        self._fibres = dict(fibres)
        self.variance = variance
        self._transitions = {}
        for u in shape.mor_tokens:
            t = transitions.get(u, "id")
            if t == "id":
                # end fibres are equal, so the one over dom u serves both
                d, c = shape.dom(u), shape.cod(u)
                if self._fibres[d] != self._fibres[c]:
                    raise NonFunctorialDiagram(("identity shorthand on", u))
                t = identity_functor(self._fibres[d])
            self._transitions[u] = t
        self.fibres = MappingProxyType(self._fibres)
        self.transitions = MappingProxyType(self._transitions)
        self._checked = False

    def fibre(self, a):
        return self._fibres[a]

    def transition(self, u):
        return self._transitions[u]

    def check(self):
        """The shape, then each fibre and transition, then strict
        functoriality; a pass is remembered.  The Grothendieck total
        certifies itself from this pass, so the shape is checked here.

        Strictness T(g∘f) = T(g)∘T(f) (T(f)∘T(g) contravariantly) is
        checked at the pairs with a generator g of the shape: by induction
        on m, T((a∘m)∘f) = T(a)∘T(m∘f) = T(a)∘T(m)∘T(f) = T(a∘m)∘T(f), and
        the pairs with an identity outside hold once the identity
        transitions are identities.  If a generator pair fails, every
        composable pair is checked in order, to name the first
        (:func:`~fibrelab.fincat.first_witness`)."""
        if self._checked:
            return self
        sh, fibres, transitions = self.shape.check(), self._fibres, self._transitions
        for a in sh.objects:
            if a not in fibres:
                raise NonFunctorialDiagram(("missing fibre", a))
            fibres[a].check()
        for u, d, c in sh.morphisms:
            t = transitions.get(u)
            if t is None:
                raise NonFunctorialDiagram(("missing transition", u))
            src, tgt = (d, c) if self.variance == "covariant" else (c, d)
            if t.source != fibres[src] or t.target != fibres[tgt]:
                raise NonFunctorialDiagram(("transition endpoints", u))
            t.check()
        for a in sh.objects:
            if transitions[sh.id_of(a)] != identity_functor(fibres[a]):
                raise NonFunctorialDiagram(("identity transition", a))
        covariant = self.variance == "covariant"

        def strict_at(g, d, c):
            # the first pair (g, f) whose composite's transition is not the
            # composite of theirs
            for f in sh.into(d):
                tg, tf = transitions[g], transitions[f]
                expect = (
                    compose_functor(tg, tf) if covariant else compose_functor(tf, tg)
                )
                if transitions[sh.compose(g, f)] != expect:
                    return ("strictness", g, f)
            return None

        # identity transitions were checked above, so only the generators
        # need their pairs when every transition is a checked functor
        bad = first_witness(sh, strict_at, True, identities=False)
        if bad is not None:
            raise NonFunctorialDiagram(bad)
        self._checked = True
        return self

    def __eq__(self, other):
        if not isinstance(other, CatDiagram):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._fibres == other._fibres
            and self._transitions == other._transitions
            and self.variance == other.variance
        )


@dataclass
class GrothendieckResult:
    diagram: CatDiagram
    total: FinCategory
    projection: FinFunctor
    # (base morphism u, fibre object) -> total morphism token.
    # Covariant: the cocartesian δ^u_x; contravariant: the cartesian θ^u_y.
    cleavage: dict
    injections: dict  # base object -> FinFunctor fibre -> total
    # total morphism token -> (u, source fibre object, fibre morphism,
    # target fibre object)
    mor_data: dict = field(default_factory=dict)

    @property
    def variance(self):
        return self.diagram.variance


def groth_co(phi):
    """The covariant Grothendieck construction ∫Φ for Φ: B -> Cat.

    Objects (a, x); morphisms (u: a -> b, f: Φu(x) -> y in Φb); composition
    (v, g)·(u, f) = (v·u, g·Φv(f)).  Comes with the split cocleavage
    δ^u_x = (u, 1) and the fibre injections J_a.
    """
    if phi.variance != "covariant":
        raise NonFunctorialDiagram(("groth_co expects a covariant diagram",))
    return _groth_co(phi)


def _co_token(u, x, f):
    return "%s|%s|%s" % (u, x, f)


def _groth_co(phi, token=_co_token):
    """groth_co on a covariant diagram, which is checked first;
    ``token(u, x, f)`` names the total morphism (u, f) out of the fibre
    object x.  The total has a derived certificate, and the projection and
    fibre injections are functors by the same theorem (see
    :mod:`fibrelab.fincat`).  Its objects are listed once per pair (a, x),
    so two pairs with one token are refused as duplicate tokens."""
    sh = phi.check().shape
    objects, over = [], {}
    for a in sh.objects:
        for x in phi.fibre(a).objects:
            objects.append(obj_token(a, x))
            over[objects[-1]] = a
    morphisms = []
    mor_data = {}
    token_of = {}
    into = {}  # total object -> (m, u, x, f) for each morphism m = (u, f) into it
    for u, a, b in sh.morphisms:
        t = phi.transition(u)
        fb = phi.fibre(b)
        for x in phi.fibre(a).objects:
            ux = t.ob(x)
            for f in fb.out_of(ux):
                m = token(u, x, f)
                y = fb.cod(f)
                cod = obj_token(b, y)
                morphisms.append((m, obj_token(a, x), cod))
                mor_data[m] = (u, x, f, y)
                token_of[(u, x, f)] = m
                into.setdefault(cod, []).append((m, u, x, f))
    identities = {}
    for a in sh.objects:
        for x in phi.fibre(a).objects:
            identities[obj_token(a, x)] = token_of[
                (sh.id_of(a), x, phi.fibre(a).id_of(x))
            ]
    composition = {}
    sh_comp = sh.composition
    for m2, d2, _ in morphisms:
        v, _, g, _ = mor_data[m2]
        # bound once per (v, g): the composition of Φ(cod v), Φv on morphisms
        fc_comp = phi.fibre(sh.cod(v)).composition
        tv = phi.transition(v).on_morphisms
        for m1, u, x, f in into.get(d2, ()):
            composition[(m2, m1)] = token_of[(sh_comp[(v, u)], x, fc_comp[(g, tv[f])])]
    total = FinCategory(objects, morphisms, identities, composition)._derived()
    projection = FinFunctor(
        total, sh, over, {m: mor_data[m][0] for m in mor_data}
    )._record_pass()
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
        )._record_pass()
    return GrothendieckResult(phi, total, projection, cleavage, injections, mor_data)


def groth_contra(phi):
    """The contravariant construction for Φ: B^op -> Cat.

    Objects (b, y); morphisms (u: a -> b, f: x -> Φu(y) in Φa); composition
    (v, g)·(u, f) = (v·u, Φu(g)·f).  Comes with the split cleavage
    θ^u_y = (u, 1) and fibre injections.  Built as the opposite of the
    covariant construction on :func:`opposed_fibres` of Φ, whose morphism
    (u, f) out of y is named "u|f|y" from the start, so the check of that
    covariant total is the check of ∫Φ on its final tokens (a duplicate
    token is refused there).  ``mor_data`` has its fibre objects swapped.
    """
    if phi.variance != "contravariant":
        raise NonFunctorialDiagram(("groth_contra expects a contravariant diagram",))
    co = _groth_co(
        opposed_fibres(phi.check()),
        token=lambda u, y, f: "%s|%s|%s" % (u, f, y),
    )
    return GrothendieckResult(
        phi,
        co.total.op,
        co.projection.op,
        co.cleavage,
        {a: j.op for a, j in co.injections.items()},
        {m: (u, x, f, y) for m, (u, y, f, x) in co.mor_data.items()},
    )


def opposed_fibres(phi):
    """The pointwise dual diagram: opposite base, fibre-wise opposites,
    opposite transitions, swapped variance.  A covariant Φ on D becomes the
    contravariant Φ^op on D^op (and back), and ``opposed_fibres`` twice
    gives back the same categories (``c.op.op is c``).  A diagram is
    strictly functorial iff its dual is, so a passing check of Φ holds for
    the dual."""
    dual = CatDiagram(
        phi.shape.op,
        {a: c.op for a, c in phi.fibres.items()},
        {u: t.op for u, t in phi.transitions.items()},
        variance=(
            "contravariant" if phi.variance == "covariant" else "covariant"
        ),
    )
    dual._checked = phi._checked
    return dual


# ---------------------------------------------------------------------------
# diagram-valued families and the hat/check correspondence
# ---------------------------------------------------------------------------


class DiagFamily:
    """A functor D -> Diag(FinSet): member set diagrams X_d on shapes Φd,
    and for each u: d -> e a pair (transition functor Φu, components φ^u),
    which is a Diag morphism X_d -> X_e of the family's variant:

    - forward (the default): Φu: Φd -> Φe and φ^u_x: X_d(x) -> X_e(Φu x),
      with a covariant shape diagram;
    - backward: Φu: Φe -> Φd and φ^u_j: X_d(Φu j) -> X_e(j), with a
      contravariant shape diagram.
    """

    def __init__(self, shape, objects, morphisms, variant="forward"):
        if variant not in _VARIANCE:
            raise VariantMismatch(("family variant", variant))
        self.shape = shape
        self.objects = dict(objects)  # d -> SetDiagram
        # u -> (FinFunctor, dict index object -> FinFunction)
        self.morphisms = dict(morphisms)
        self.variant = variant
        self._cat_diagram = None

    def diagram_at(self, d):
        return self.objects[d]

    def transition(self, u):
        return self.morphisms[u][0]

    def phi(self, u):
        return self.morphisms[u][1]

    def cat_diagram(self):
        """The shape diagram d ↦ Φd, built on first use and cached, so that
        it is checked once."""
        if self._cat_diagram is None:
            self._cat_diagram = CatDiagram(
                self.shape,
                {d: self.objects[d].shape for d in self.shape.objects},
                {u: self.morphisms[u][0] for u in self.shape.mor_tokens},
                variance=_VARIANCE[self.variant],
            )
        return self._cat_diagram

    def check(self):
        """Each transition is a Diag morphism (a failure names its kind,
        the base morphism and the index object or morphism), identities go
        to identities, and φ^{g∘f} is the composite of φ^g and φ^f."""
        from .diagcat import DiagMorphism, DiagObject, diag_composite

        sh = self.shape
        self.cat_diagram().check()
        members = {}
        for d in sh.objects:
            members[d] = DiagObject(self.objects[d].shape, self.objects[d].check())
        arrows = {}
        for u, d, e in sh.morphisms:
            t, comp = self.morphisms[u]
            for x in t.source.objects:
                if x not in comp:
                    raise NonFunctorialFamily(("missing component", u, x))
            arrows[u] = DiagMorphism(
                self.variant, members[d], members[e], t, tuple(comp.items())
            )
            try:
                arrows[u].check()
            except NotAMorphism as err:
                kind, *where = err.args[0]
                raise NonFunctorialFamily((kind, u, *where)) from None
        for d in sh.objects:
            comp = self.morphisms[sh.id_of(d)][1]
            for x in self.objects[d].shape.objects:
                if comp[x] != identity_function(self.objects[d].sets[x]):
                    raise NonFunctorialFamily(("identity components", d, x))
        for g, f in sh.composable_pairs():
            comp = self.morphisms[sh.compose(g, f)][1]
            for x, expect in diag_composite(arrows[g], arrows[f])[1]:
                if comp[x] != expect:
                    raise NonFunctorialFamily(("composition law", g, f, x))
        return self


def guitart_hat(phi, t, gr=None):
    """Turn a diagram T on the total category ∫Φ into the family
    d ↦ T∘J_d with transition components φ^u_x = T(δ^u_x).  ``gr`` is
    ``groth_co(phi)`` when the caller has built it already."""
    g = groth_co(phi) if gr is None else gr
    if t.shape != g.total:
        raise ShapeMismatch(("guitart_hat", "T not on the total category"))
    objects = {}
    for d in phi.shape.objects:
        j = g.injections[d]
        objects[d] = SetDiagram(
            phi.fibre(d),
            {x: t.sets[j.ob(x)] for x in phi.fibre(d).objects},
            {h: t.functions[j.mor(h)] for h in phi.fibre(d).mor_tokens},
        )
    morphisms = {}
    for u, d, e in phi.shape.morphisms:
        comp = {
            x: t.functions[g.cleavage[(u, x)]]
            for x in phi.fibre(d).objects
        }
        morphisms[u] = (phi.transition(u), comp)
    return DiagFamily(phi.shape, objects, morphisms).check()


def guitart_check(family):
    """Turn a family Σ back into a diagram on the total category:
    Σ̌(u, f) = Σ_e(f) ∘ φ^u_x."""
    family.check()
    phi = family.cat_diagram()
    g = groth_co(phi)
    sets = {}
    for d in phi.shape.objects:
        for x in phi.fibre(d).objects:
            sets[obj_token(d, x)] = family.objects[d].sets[x]
    functions = {}
    for m, (u, x, f, _) in g.mor_data.items():
        e = phi.shape.cod(u)
        functions[m] = family.phi(u)[x].then(family.objects[e].fn(f))
    return SetDiagram(g.total, sets, functions).check()


def lax_cocone_extend(phi, sigma, phis):
    """Extend a lax cocone on Φ with vertex a finite category X to the
    unique functor T: ∫Φ -> X with T∘J_a = Σ_a and T(δ^u) = φ^u.

    ``sigma`` maps base objects to functors Φa -> X; ``phis`` maps base
    morphisms u: a -> b to NatTransformations Σ_a -> Σ_b∘Φu.
    """
    phi.check()
    sh = phi.shape
    x_cat = next(iter(sigma.values())).target
    # lax cocone laws
    for a in sh.objects:
        i = sh.id_of(a)
        for x in phi.fibre(a).objects:
            if phis[i].at(x) != x_cat.id_of(sigma[a].ob(x)):
                raise NotALaxCocone(("identity law", a, x))
    for v, u in sh.composable_pairs():
        vu = sh.compose(v, u)
        tu = phi.transition(u)
        for x in phi.fibre(sh.dom(u)).objects:
            expect = x_cat.compose(phis[v].at(tu.ob(x)), phis[u].at(x))
            if phis[vu].at(x) != expect:
                raise NotALaxCocone(("composition law", v, u, x))
    for u in sh.mor_tokens:
        phis[u].check()
        if phis[u].source != sigma[sh.dom(u)]:
            raise NotALaxCocone(("source of phi", u))
        if phis[u].target != compose_functor(
            sigma[sh.cod(u)], phi.transition(u)
        ):
            raise NotALaxCocone(("target of phi", u))
    g = groth_co(phi)
    on_objects = {}
    for a in sh.objects:
        for x in phi.fibre(a).objects:
            on_objects[obj_token(a, x)] = sigma[a].ob(x)
    on_morphisms = {}
    for m, (u, x, f, _) in g.mor_data.items():
        b = sh.cod(u)
        on_morphisms[m] = x_cat.compose(sigma[b].mor(f), phis[u].at(x))
    t = FinFunctor(g.total, x_cat, on_objects, on_morphisms).check()
    # uniqueness: every total morphism is (1_b, f)∘δ^u_x, so any functor
    # agreeing on injections and cocleavage agrees with t.
    for m, (u, x, f, _) in g.mor_data.items():
        b = sh.cod(u)
        if m != g.total.compose(g.injections[b].mor(f), g.cleavage[(u, x)]):
            raise CertificateFailure(("lax cocone extension not unique", m))
    return t
