"""(Co)cartesian morphisms, split (co)fibration verification, bifibrations,
limit lifting, the free split cofibration, and the diagram category of a
functor.

Everything here is certified exactly on finite data.  Cocartesianness of
m: x -> y for a checked functor P is decided by a bijection count: m is
cocartesian iff t ↦ (t∘m, Pt) maps the morphisms out of y one to one onto
the pairs (h: x -> z, w: Py -> Pz) with w∘Pm = Ph, so an injectivity pass
and a count prove a pass (:func:`is_cocartesian`); any other outcome runs
the loop over every such pair and its fillers, which names the first pair
without exactly one filler.  Limits are found by exhaustive terminal-cone
search, adjunctions by exhaustive hom counting.  The fibres of P are
built once and memoised on P (:func:`fibres`): a ∫Φ projection has them
from Φ, any other P by one pass over E; a fibration is verified on P^op
with the opposites of the same fibres.

The filler index.  The injectivity pass keeps what it computes: for m
with cod m = y, :func:`_fillers` maps each pair (t∘m, Pt) to the list of
the t out of y that give it, in E's ``out_of`` order, memoised on P.  Every
unique filler search then reads it instead of scanning a hom-set and
composing: the transition functors u_! (fillers of δ^u_x), the units and
counits of a bifibration (fillers of θ^u and δ^u, for P^op and P), the
fibre diagram of limit lifting (fillers of θ for P^op) and factorization
(fillers of δ).  Each search asked for the t: y -> z of a hom-set, or of a
fibre's hom-set, with t∘m = h and Pt = w.  When y = cod m and z = cod h,
t∘m = h already forces cod t = z, and a fibre's hom-set is the morphisms
over its identity, so the index's list is the scan's list, order
included: a failure names the same candidates.  A search whose lifting
does not type it that way (y is not cod m, or z is not cod h) is reachable
only in the bifibration check, with corrupted liftings behind passing
verifications; there the scan still runs, so it raises the same
MissingComposite or finds the same empty list as before.

Only the cofibration side is written out.  A morphism is P-cartesian iff
it is cocartesian for P^op (``p.op``, same tokens), and a cleavage of P is
the same lifting dict read as a cocleavage of P^op
(:meth:`CleavageData.dual`): θ^u_y of P is the cocartesian lifting of u at
y for P^op.  The fibration operations hand their input to the dual and map
the result back: the extracted diagram through ``opposed_fibres``, the two
halves of a factorization swapped, a split-law pair reported as
[outer, inner, z] in the base of P.  Because the split law is checked over
the composable pairs of B^op, inner morphism first, a cleavage that breaks
it at several pairs can be reported at another pair than the first one in
B's own order.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType

from .errors import (
    HomBijectionFailure,
    NoBaseLimit,
    NoFibreLimit,
    NonFunctorialTransition,
    ShapeMismatch,
    SplitLawViolation,
    SquareNotCommuting,
    TerminalityFailure,
    TriangleViolation,
    UnverifiedCleavage,
)
from .fincat import (
    FinCategory,
    FinFunctor,
    compose_functor,
    distinct_tokens,
    group_by_cod,
)
from .finset import constrained_morphisms, forward_check, search
from .grothendieck import (
    CatDiagram,
    GrothendieckResult,
    groth_co,
    groth_contra,
    obj_token,
    opposed_fibres,
)
from .report import failed, passed


def fibres(p):
    """Every fibre of P: E -> B, by base object in B's order: the objects
    over b, the morphisms over 1_b and their composites, each in E's
    declaration order.  Tokens are reused from E, so fibre categories embed
    literally.  P, E and B are checked first.  The projection of a ∫Φ
    hands over its fibres, Φa renamed through J_a in the order extraction
    gives (:func:`fibrelab.grothendieck._fibres_through`), and the
    opposite of such a projection reads their opposites; any other P has
    them extracted in one pass over E (:func:`_extracted_fibres`).  Each
    is a subcategory of E, so it has a derived certificate, and the result
    is memoised on P (a functor is immutable)."""
    if p._fibres is None:
        for x in (p.source, p.target, p):
            x.check()
        if p._fibre_source is not None:
            parts = p._fibre_source()
        elif p._op is not None and p._op._fibre_source is not None:
            parts = {a: f.op for a, f in fibres(p._op).items()}
        else:
            parts = _extracted_fibres(p)
        p._fibres = MappingProxyType(parts)
    return p._fibres


def _extracted_fibres(p):
    """The fibres of a checked P: E -> B, grouped in one pass over E's
    objects, morphisms and composition entries."""
    e, b = p.source, p.target
    parts = {a: ([], [], {}) for a in b.objects}
    for x in e.objects:
        part = parts.get(p.ob(x))
        if part is not None:
            part[0].append(x)
    over_id = {b.id_of(a): a for a in b.objects}
    over = {}  # vertical morphism -> its base object
    for t, d, c in e.morphisms:
        a = over_id.get(p.mor(t))
        if a is not None:
            over[t] = a
            parts[a][1].append((t, d, c))
    for (g, f), gf in e.composition.items():
        a = over.get(g)
        if a is not None and over.get(f) == a:
            parts[a][2][(g, f)] = gf
    return {
        a: FinCategory(
            objects, morphisms, {x: e.id_of(x) for x in objects}, composition
        )._derived()
        for a, (objects, morphisms, composition) in parts.items()
    }


def fibre(p, b):
    """The fibre of P: E -> B over b: objects over b, morphisms over 1_b."""
    return fibres(p)[b]


def is_cartesian(p, m):
    """P-cartesianness of m: m is cocartesian for P^op."""
    return replace(is_cocartesian(p.op, m), check_name="is_cartesian")


def is_cocartesian(p, m):
    """P-cocartesianness of m: x -> y, with the first witness of a failure.

    m is cocartesian iff every pair (h, w) with h: x -> z and
    w: Py -> Pz in B, w∘Pm = Ph, has exactly one filler t: y -> z with
    t∘m = h and Pt = w.  For a checked functor between checked categories
    the map t ↦ (t∘m, Pt) sends each t to the one pair it fills, so m is
    cocartesian iff that map is a bijection from the morphisms out of y
    onto the pairs: a count and an injectivity pass decide a pass
    (:func:`_counted_cocartesian`).  Otherwise the loop over z, h and w
    runs and reports the first pair without exactly one filler."""
    if _counted_cocartesian(p, m):
        return passed("is_cocartesian", morphism=m)
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
                        {
                            "morphism": m,
                            "test": [z, h, w],
                            "fillers": fillers,
                        },
                    )
    return passed("is_cocartesian", morphism=m)


def _counted_cocartesian(p, m):
    """Whether t ↦ (t∘m, Pt) maps the morphisms out of y = cod m one to one
    onto the pairs (h, w) of :func:`is_cocartesian`: the filler index of m
    (:func:`_fillers`) has one key per t, and as many keys as pairs.  The
    pairs are counted as Σ_{w out of Py} #{h out of x : Ph = w∘Pm}, from
    the images of the morphisms out of x = dom m (:func:`_image_counts`).
    None when P is not a checked functor between checked categories, or a
    table read misses, where the count proves nothing."""
    e, b = p.source, p.target
    if not (p._checked and e._checked and b._checked):
        return None
    try:
        u, y = p._on_morphisms[m], e._cod[m]
        images, bcomp = _image_counts(p, e._dom[m]), b._composition
        pairs = sum(
            images.get(bcomp[(w, u)], 0) for w in b.out_of(p._on_objects[y])
        )
        if len(e.out_of(y)) != pairs:
            return False
        return len(_fillers(p, m)) == pairs
    except KeyError:
        return None


def _image_counts(p, x):
    """How many morphisms h out of x have each image Ph, memoised per x on
    P (a checked functor)."""
    memo = p._image_counts
    if memo is None:
        memo = p._image_counts = {}
    counts = memo.get(x)
    if counts is None:
        pmor, counts = p._on_morphisms, {}
        for h in p.source.out_of(x):
            ph = pmor[h]
            counts[ph] = counts.get(ph, 0) + 1
        memo[x] = counts
    return counts


def _fillers(p, m):
    """The filler index of m: x -> y for a checked P: E -> B over a checked
    E: each pair (t∘m, Pt) mapped to the list of the t out of y that give
    it, in E's ``out_of`` order; memoised per m on P.  The unique filler
    searches read it: the t: y -> z with t∘m = h and Pt = w are
    ``_fillers(p, m).get((h, w))``, in E's order, because t∘m = h forces
    cod t = cod h."""
    memo = p._filler_index
    if memo is None:
        memo = p._filler_index = {}
    index = memo.get(m)
    if index is None:
        e = p.source
        ecomp, pmor, index = e._composition, p._on_morphisms, {}
        for t in e.out_of(e._cod[m]):
            key = (ecomp[(t, m)], pmor[t])
            fillers = index.get(key)
            if fillers is None:
                index[key] = [t]
            else:
                fillers.append(t)
        memo[m] = index
    return index


def _cocartesian(p, m):
    """is_cocartesian as a bool, by the count where it decides."""
    verdict = _counted_cocartesian(p, m)
    return bool(is_cocartesian(p, m)) if verdict is None else verdict


@dataclass
class CleavageData:
    base_functor: FinFunctor  # P: E -> B
    direction: str  # "fibration" | "cofibration"
    # (base morphism u, fibre object) -> total morphism.
    # Fibration: key is (u, y) with y over cod u, value θ^u_y: u*y -> y.
    # Cofibration: key is (u, x) with x over dom u, value δ^u_x: x -> u_!x.
    lifting: dict
    verified: bool = False

    def __post_init__(self):
        if self.direction not in ("fibration", "cofibration"):
            raise ShapeMismatch(("unknown cleavage direction", self.direction))

    def dual(self):
        """The same liftings as a cleavage of the other direction for P^op."""
        other = "cofibration" if self.direction == "fibration" else "fibration"
        return CleavageData(self.base_functor.op, other, self.lifting, self.verified)


def cleavage_from_groth(gr: GrothendieckResult):
    """The canonical CleavageData of a Grothendieck projection.

    The stored cleavage is keyed by fibre-local object tokens; the verifier
    works with total-category objects, so re-key by "a|x" pairs.
    """
    direction = "cofibration" if gr.variance == "covariant" else "fibration"
    base = gr.projection.target
    lifting = {}
    for (u, z), m in gr.cleavage.items():
        over = base.dom(u) if direction == "cofibration" else base.cod(u)
        lifting[(u, obj_token(over, z))] = m
    return CleavageData(gr.projection, direction, lifting)


def search_cleavage(p, direction):
    """Find a canonical cleavage for P by brute-force lifting search.

    Picks the smallest-token (co)cartesian lifting per (base morphism,
    fibre object); returns None when some lifting is missing (P is not a
    (co)fibration).  A fibration is searched as a cofibration of P^op.
    """
    q = p.op if direction == "fibration" else p
    e, b = q.source, q.target
    over, lifts = {}, {}  # base object -> objects; x -> (u -> morphisms)
    for x in e.objects:
        over.setdefault(q.ob(x), []).append(x)
        by_base = lifts[x] = {}
        for m in e.out_of(x):
            by_base.setdefault(q.mor(m), []).append(m)
    lifting = {}
    for u in b.mor_tokens:
        for x in over.get(b.dom(u), ()):
            found = next(
                (m for m in sorted(lifts[x].get(u, ())) if _cocartesian(q, m)),
                None,
            )
            if found is None:
                return None
            lifting[(u, x)] = found
    return CleavageData(p, direction, lifting)


def _transport_functor(data, u, fibres):
    """The reindexing functor u_! : E_a -> E_b induced by a split
    cocleavage along u, for a checked P and liftings that passed their
    endpoint checks.  The image of j: x -> x2 is the unique vertical
    filler t with t∘δ^u_x = δ^u_x2∘j, read off the filler index of
    δ^u_x."""
    p = data.base_functor
    e, b = p.source, p.target
    lifting = data.lifting
    src = fibres[b.dom(u)]
    vertical = b.id_of(b.cod(u))
    on_objects = {x: e.cod(lifting[(u, x)]) for x in src.objects}
    on_morphisms = {}
    for j, x, x2 in src.morphisms:
        want = e.compose(lifting[(u, x2)], j)
        cands = _fillers(p, lifting[(u, x)]).get((want, vertical), ())
        if len(cands) != 1:
            raise NonFunctorialTransition((u, j, list(cands)))
        on_morphisms[j] = cands[0]
    return FinFunctor(src, fibres[b.cod(u)], on_objects, on_morphisms).check()


def _verify_split(data, direction):
    """Common engine behind verify_split_fibration / verify_split_cofibration.

    Returns (report, extracted CatDiagram or None).  A cleavage is verified
    as the cocleavage of P^op and its covariant diagram on B^op is turned
    back by ``opposed_fibres``; a split-law witness is given as
    [outer, inner, z] in the base of P.
    """
    check_name = "verify_split_" + direction
    if data.direction != direction:
        return failed(check_name, {"direction": data.direction}), None
    p = data.base_functor.check()
    if direction == "cofibration":
        return _verify_cocleavage(data, check_name, fibres(p))
    # the fibres of P^op are the opposites of P's
    dual = data.dual()
    report, phi = _verify_cocleavage(
        dual, check_name, {a: f.op for a, f in fibres(p).items()}
    )
    data.verified = dual.verified
    if phi is not None:
        return report, opposed_fibres(phi)
    if "split_law" in report.witness:
        inner, outer, z = report.witness["split_law"]
        report.witness["split_law"] = [outer, inner, z]
    return report, None


def _verify_cocleavage(data, check_name, fibres):
    """_verify_split for a cocleavage of a functor that is checked, with
    its fibres by base object."""
    p = data.base_functor
    e, b = p.source, p.target
    # each lifting present, well-typed, and cocartesian
    for u in b.mor_tokens:
        for z in fibres[b.dom(u)].objects:
            m = data.lifting.get((u, z))
            if m is None or not e.has_mor(m):
                return (
                    failed(check_name, {"missing_lifting": [u, z]}),
                    None,
                )
            if p.mor(m) != u:
                return (
                    failed(check_name, {"lifting_over_wrong_base": [u, z, m]}),
                    None,
                )
            if e.dom(m) != z:
                return (
                    failed(check_name, {"lifting_endpoint": [u, z, m]}),
                    None,
                )
            r = is_cocartesian(p, m)
            if not r:
                return (
                    failed(check_name, {"not_cartesian": [u, z, m], "detail": r.witness}),
                    None,
                )
    # identity liftings are identities
    for a in b.objects:
        for z in fibres[a].objects:
            if data.lifting[(b.id_of(a), z)] != e.id_of(z):
                return (
                    failed(check_name, {"identity_lifting": [a, z]}),
                    None,
                )
    # transitions (functoriality by unique-filler construction)
    transitions = {}
    try:
        for u in b.mor_tokens:
            transitions[u] = _transport_functor(data, u, fibres)
    except NonFunctorialTransition as exc:
        return failed(check_name, {"non_functorial_transition": list(exc.args)}), None
    # split composition law
    for v, u in b.composable_pairs():
        vu = b.compose(v, u)
        for z in fibres[b.dom(u)].objects:
            uz = transitions[u].ob(z)
            if data.lifting[(vu, z)] != e.compose(
                data.lifting[(v, uz)], data.lifting[(u, z)]
            ):
                return (
                    failed(check_name, {"split_law": [v, u, z]}),
                    None,
                )
    try:
        phi = CatDiagram(b, fibres, transitions, "covariant").check()
    except Exception as exc:  # pragma: no cover - guarded above
        return failed(check_name, {"extracted_diagram_invalid": str(exc)}), None
    data.verified = True
    return (
        passed(
            check_name,
            base_morphisms=len(b.morphisms),
            total_morphisms=len(e.morphisms),
        ),
        phi,
    )


def verify_split_fibration(data):
    """Verify a split cleavage; on pass also return the extracted
    contravariant CatDiagram (the indexed category of P)."""
    return _verify_split(data, "fibration")


def verify_split_cofibration(data):
    return _verify_split(data, "cofibration")


@dataclass
class FactorizationResult:
    first: str
    second: str
    style: str  # "(vertical,cartesian)" | "(cocartesian,vertical)"


def factorize(data, f):
    """Factor a total morphism through the cleavage.

    Fibration: f = θ^u_y ∘ ε_f with ε_f vertical (style vertical,cartesian:
    ``first`` is ε_f).  Cofibration: f = ν_f ∘ δ^u_x with ν_f vertical
    (style cocartesian,vertical: ``first`` is δ^u_x).
    """
    if not data.verified:
        raise UnverifiedCleavage((data.direction,))
    if data.direction == "fibration":
        dual = factorize(data.dual(), f)
        return FactorizationResult(dual.second, dual.first, "(vertical,cartesian)")
    p = data.base_functor
    e, b = p.source, p.target
    delta = data.lifting[(p.mor(f), e.dom(f))]
    cands = _fillers(p, delta).get((f, b.id_of(p.ob(e.cod(f)))), ())
    if len(cands) != 1:
        raise UnverifiedCleavage(("cocartesian filler not unique", f, list(cands)))
    return FactorizationResult(delta, cands[0], "(cocartesian,vertical)")


# ---------------------------------------------------------------------------
# bifibrations
# ---------------------------------------------------------------------------


@dataclass
class BifibrationWitness:
    units: dict  # u -> {x over dom u: η^u_x}
    counits: dict  # u -> {y over cod u: ε^u_y}
    fibres: dict = field(default_factory=dict)
    push: dict = field(default_factory=dict)  # u -> u_! functor
    pull: dict = field(default_factory=dict)  # u -> u* functor


def bifibration_check(theta, delta):
    """Certify that a split fibration and cofibration over the same P form a
    bifibration u_! ⊣ u*: unit/counit construction, triangle identities, and
    the hom bijections E_u(x,y) ≅ E_a(x, u*y) ≅ E_b(u_!x, y)."""
    if theta.base_functor != delta.base_functor:
        raise ShapeMismatch(("cleavages over different P",))
    p = theta.base_functor
    e, b = p.source, p.target
    rep_f, phi_f = verify_split_fibration(theta)
    if not rep_f:
        raise UnverifiedCleavage(("fibration", rep_f.witness))
    rep_c, phi_c = verify_split_cofibration(delta)
    if not rep_c:
        raise UnverifiedCleavage(("cofibration", rep_c.witness))
    fibres = phi_c.fibres

    def unit(u, kind, q, over, there, back, lift, through):
        """For each z over ``over`` the one vertical t: z -> back(there z) of
        cat = Q's source^op with through(u, there z)·t = lift(u, z): a
        filler of the cocartesian morphism through(u, there z) of Q, read
        off its filler index.  The unit reads Q = P^op, and the counit is
        the unit of P^op: Q = P, E^op over cod u, transitions and cleavages
        swapped.  A lifting whose endpoints do not type the search (the
        domain in cat of through(u, there z) is not back(there z), or that
        of lift(u, z) is not z), which only corrupted liftings behind
        passing verifications give, is searched by the scan of the hom-set,
        so it fails as it always did."""
        maps, vertical = {}, b.id_of(over)
        cat, ends = q.source.op, q.source._cod
        for z in fibres[over].objects:
            zz, want = there.ob(z), lift[(u, z)]
            target = back.ob(zz)
            m = through.get((u, zz))
            if m is not None and ends.get(m) == target and ends.get(want) == z:
                cands = _fillers(q, m).get((want, vertical), ())
            else:
                cands = [
                    t
                    for t in cat.hom(z, target)
                    if p.mor(t) == vertical
                    and cat.compose(through[(u, zz)], t) == want
                ]
            if len(cands) != 1:
                raise TriangleViolation((u, kind, z, list(cands)))
            maps[z] = cands[0]
        return maps

    units, counits = {}, {}
    for u in b.mor_tokens:
        a_obj, b_obj = b.dom(u), b.cod(u)
        push, pull = phi_c.transition(u), phi_f.transition(u)
        eta = unit(u, "unit", p.op, a_obj, push, pull, delta.lifting, theta.lifting)
        eps = unit(u, "counit", p, b_obj, pull, push, theta.lifting, delta.lifting)
        # triangle identities
        for x in fibres[a_obj].objects:
            if e.compose(eps[push.ob(x)], push.mor(eta[x])) != e.id_of(push.ob(x)):
                raise TriangleViolation((u, "push-triangle", x))
        for y in fibres[b_obj].objects:
            if e.compose(pull.mor(eps[y]), eta[pull.ob(y)]) != e.id_of(pull.ob(y)):
                raise TriangleViolation((u, "pull-triangle", y))
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
                    raise HomBijectionFailure((u, x, y))
        units[u], counits[u] = eta, eps
    return BifibrationWitness(
        units,
        counits,
        fibres,
        {u: phi_c.transition(u) for u in b.mor_tokens},
        {u: phi_f.transition(u) for u in b.mor_tokens},
    )


# ---------------------------------------------------------------------------
# limits by brute force, and limit lifting
# ---------------------------------------------------------------------------


@dataclass
class CatCone:
    apex: str
    legs: dict  # shape object -> morphism apex -> F(d)


def enumerate_cones(f):
    """All cones over a functor F: D -> C, by exhaustive search: for each
    apex, the natural transformations from the constant functor to F."""
    d_cat, c_cat = f.source, f.target
    # a constant functor and F, on a checked shape into a checked C
    functorial = f._checked and d_cat._checked and c_cat._checked
    cones = []
    for apex in c_cat.objects:
        pools = {d: c_cat.hom(apex, f.ob(d)) for d in d_cat.objects}
        at_apex = lambda m: c_cat.id_of(apex)
        for legs in natural_families(
            c_cat, d_cat, pools, at_apex, f.mor, functorial
        ):
            cones.append(CatCone(apex, legs))
    return cones


def terminal_cone(f, cones=None):
    """The limit cone of F, as the terminal object among all cones.

    Among several terminal cones (all uniquely isomorphic) the one with the
    lexicographically least apex (then legs) is returned; None when no limit
    exists.
    """
    c_cat = f.target
    if cones is None:
        cones = enumerate_cones(f)
    objs = list(f.source.objects)
    terminals = []
    for cand in cones:
        ok = True
        for other in cones:
            mediators = [
                m
                for m in c_cat.hom(other.apex, cand.apex)
                if all(
                    c_cat.compose(cand.legs[d], m) == other.legs[d] for d in objs
                )
            ]
            if len(mediators) != 1:
                ok = False
                break
        if ok:
            terminals.append(cand)
    if not terminals:
        return None
    return min(terminals, key=lambda c: (c.apex, sorted(c.legs.items())))


def lift_limit(theta, delta, f):
    """Execute the bifibration limit-lifting construction for F: D -> E.

    Steps: base limit b of P∘F (exhaustive terminal-cone search), cartesian
    liftings α_d of the base legs, the induced fibre diagram L in E_b, its
    fibre limit z, and the composite cone α·λ — then certify terminality
    among all cones over F in E and that P maps the result onto the base
    limit cone.  Returns (cone, report).
    """
    witness = bifibration_check(theta, delta)
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
    # induced fibre diagram L: D -> E_b via unique cartesian fillers
    # L(m) for m: d1 -> d2 is the vertical t with α_d2∘t = F(m)∘α_d1, a
    # filler of α_d2 for P^op
    on_objects = {d: e.dom(alphas[d]) for d in d_cat.objects}
    on_morphisms = {}
    id_b = b_cat.id_of(b)
    for m, d1, d2 in d_cat.morphisms:
        want = e.compose(f.mor(m), alphas[d1])
        cands = _fillers(p.op, alphas[d2]).get((want, id_b), ())
        if len(cands) != 1:
            raise UnverifiedCleavage(
                ("cartesian filler for fibre diagram", m, list(cands))
            )
        on_morphisms[m] = cands[0]
    l_fun = FinFunctor(d_cat, fib, on_objects, on_morphisms).check()
    fib_lim = terminal_cone(l_fun)
    if fib_lim is None:
        raise NoFibreLimit((b,))
    cone = CatCone(
        fib_lim.apex,
        {
            d: e.compose(alphas[d], fib_lim.legs[d])
            for d in d_cat.objects
        },
    )
    # certification: terminal among all cones over F in E
    all_cones = enumerate_cones(f)
    for other in all_cones:
        mediators = [
            m
            for m in e.hom(other.apex, cone.apex)
            if all(
                e.compose(cone.legs[d], m) == other.legs[d]
                for d in d_cat.objects
            )
        ]
        if len(mediators) != 1:
            raise TerminalityFailure((other.apex, mediators))
    # P-image is the base limit cone
    if p.ob(cone.apex) != b or any(
        p.mor(cone.legs[d]) != base.legs[d] for d in d_cat.objects
    ):
        raise TerminalityFailure(("projection mismatch",))
    report = passed(
        "lift_limit",
        base_apex=b,
        apex=cone.apex,
        cones_in_e=len(all_cones),
    )
    return cone, report


# ---------------------------------------------------------------------------
# free split cofibration
# ---------------------------------------------------------------------------


@dataclass
class FreeCofibration:
    result: GrothendieckResult  # for cod on P↓B
    embedding: FinFunctor  # H_P: E -> total, f ↦ (Pf, f)
    slice_obj: dict  # a -> {fibre object token: (x, h: Px -> a)}
    slice_mor: dict  # a -> {fibre morphism token: (f, h, k)}


def _slice_fibre(p, a):
    """The slice fibre P/a: objects (x, h: Px -> a), morphisms f with
    k∘Pf = h.  Morphisms are listed by source object, then target object
    (both in object order), then f in its hom-set; each composite is read
    from the morphisms into the outer one's domain, and from the raw tables
    of E and B.  P, E and B must be checked: P/a is the comma category
    P↓a, so it has a derived certificate."""
    e, b = p.source, p.target
    ecomp, bcomp = e._composition, b._composition
    objects, obj_data, over_x = [], {}, {}
    for x in e.objects:
        over_x[x] = []
        for h in b.hom(p.ob(x), a):
            t = "%s@%s" % (x, h)
            objects.append(t)
            obj_data[t] = (x, h)
            over_x[x].append((t, h))
    position = {x: n for n, x in enumerate(e.objects)}
    morphisms, mor_data = [], {}
    token_of = {}
    for t1, (x, h) in obj_data.items():
        ys = sorted({e.cod(f) for f in e.out_of(x)}, key=position.__getitem__)
        for y in ys:
            fs = [(f, p.mor(f)) for f in e.hom(x, y)]
            for t2, k in over_x[y]:
                for f, pf in fs:
                    if bcomp[(k, pf)] != h:
                        continue
                    m = "%s@%s>%s" % (f, h, k)
                    morphisms.append((m, t1, t2))
                    mor_data[m] = (f, h, k)
                    token_of[(f, h, k)] = m
    # the tables below are keyed by the tokens: refuse a collision first
    if len(obj_data) != len(objects) or len(mor_data) != len(morphisms):
        distinct_tokens(objects, [m for m, _, _ in morphisms])
    identities = {
        t: token_of[(e.id_of(x), h, h)] for t, (x, h) in obj_data.items()
    }
    composition = {}
    into = group_by_cod(morphisms)
    for m2, d2, _ in morphisms:
        g, _, k2 = mor_data[m2]
        for m1, _, _ in into.get(d2, ()):
            f, h1, _ = mor_data[m1]
            composition[(m2, m1)] = token_of[(ecomp[(g, f)], h1, k2)]
    cat = FinCategory(objects, morphisms, identities, composition)._derived()
    return cat, obj_data, mor_data


def free_cofibration(p):
    """Build cod: P↓B -> B as the free split cofibration on P: E -> B.

    The comma category P↓B is realised as the Grothendieck construction of
    the slice fibres a ↦ P/a with transitions u_!(x, h) = (x, u·h); the unit
    H_P sends f to (Pf, f).
    """
    e, b = p.source, p.target
    for x in (e, b, p):
        x.check()
    fibres, objs, mors = {}, {}, {}
    for a in b.objects:
        fibres[a], objs[a], mors[a] = _slice_fibre(p, a)
    transitions = {}
    for u, a, a2 in b.morphisms:
        on_objects = {
            t: "%s@%s" % (x, b.compose(u, h)) for t, (x, h) in objs[a].items()
        }
        on_morphisms = {
            m: "%s@%s>%s" % (f, b.compose(u, h), b.compose(u, k))
            for m, (f, h, k) in mors[a].items()
        }
        transitions[u] = FinFunctor(fibres[a], fibres[a2], on_objects, on_morphisms)
    phi = CatDiagram(b, fibres, transitions, "covariant").check()
    gr = groth_co(phi)
    on_objects = {
        x: obj_token(p.ob(x), "%s@%s" % (x, b.id_of(p.ob(x)))) for x in e.objects
    }
    on_morphisms = {}
    for f, x, y in e.morphisms:
        u = p.mor(f)
        src = "%s@%s" % (x, b.id_of(p.ob(x)))
        fib_m = "%s@%s>%s" % (f, u, b.id_of(p.ob(y)))
        on_morphisms[f] = "%s|%s|%s" % (u, src, fib_m)
    h_p = FinFunctor(e, gr.total, on_objects, on_morphisms).check()
    return FreeCofibration(gr, h_p, objs, mors)


def free_factor(p, s, t, qdata):
    """Factor T through the free split cofibration on P.

    Given a square Q∘T = S∘P with Q: F -> C a verified split cofibration,
    build the unique cocleavage-preserving T~: P↓B -> F over S with
    T~∘H_P = T, via T~(u, f) = (Sk)_!(ν_{Tf}) ∘ δ^{Su} — and certify all
    four equations (functoriality, cocleavage preservation, Q∘T~ = S∘cod,
    T~∘H_P = T).
    """
    q = qdata.base_functor
    if compose_functor(q, t) != compose_functor(s, p):
        raise SquareNotCommuting(("Q∘T != S∘P",))
    rep, phi_q = verify_split_cofibration(qdata)
    if not rep:
        raise UnverifiedCleavage(("cofibration", rep.witness))
    free = free_cofibration(p)
    gr = free.result
    b = p.target
    f_cat = q.source
    push = {c: phi_q.transition(c) for c in s.target.mor_tokens}
    on_objects = {}
    for a, j in gr.injections.items():
        for fib_obj, tok in j.on_objects.items():
            x, h = free.slice_obj[a][fib_obj]
            on_objects[tok] = push[s.mor(h)].ob(t.ob(x))
    on_morphisms = {}
    for m, (u, src_obj, fib_m, _) in gr.mor_data.items():
        a, bb = b.dom(u), b.cod(u)
        f, _, k = free.slice_mor[bb][fib_m]
        nu = factorize(qdata, t.mor(f)).second
        first = qdata.lifting[(s.mor(u), on_objects[obj_token(a, src_obj)])]
        on_morphisms[m] = f_cat.compose(push[s.mor(k)].mor(nu), first)
    t_tilde = FinFunctor(gr.total, f_cat, on_objects, on_morphisms).check()
    # certification equations beyond functoriality (checked above)
    for (u, x), d in gr.cleavage.items():
        a = b.dom(u)
        if t_tilde.mor(d) != qdata.lifting[(s.mor(u), t_tilde.ob(obj_token(a, x)))]:
            raise SplitLawViolation(("cocleavage not preserved", u, x))
    if compose_functor(q, t_tilde) != compose_functor(s, gr.projection):
        raise SquareNotCommuting(("Q∘T~ != S∘cod",))
    if compose_functor(t_tilde, free.embedding) != t:
        raise SquareNotCommuting(("T~∘H_P != T",))
    return t_tilde


# ---------------------------------------------------------------------------
# reconstitution (Grothendieck equivalence round-trip)
# ---------------------------------------------------------------------------


def reconstitute(data):
    """Round-trip a verified split (co)fibration P through the extracted
    indexed category and back.

    Extracts the Cat-valued diagram of P, rebuilds the total category, and
    checks that the comparison functor (u, f) ↦ f∘δ^u is bijective on
    objects and morphisms, commutes with the projections, and preserves the
    cleavage.  A fibration's total is rebuilt by ``groth_contra`` and
    compared as the cofibration P^op, where (u, f) ↦ θ^u∘f reads
    (u, f) ↦ f∘δ^u.
    """
    direction = data.direction
    if direction == "fibration":
        rep, phi = verify_split_fibration(data)
        if not rep:
            return rep
        gr = groth_contra(phi)
        # P^op is compared with the opposite total, fibre objects swapped
        total = gr.total.op
        mor_data = {m: (u, y, f, x) for m, (u, x, f, y) in gr.mor_data.items()}
        data = data.dual()
    else:
        rep, phi = verify_split_cofibration(data)
        if not rep:
            return rep
        gr = groth_co(phi)
        total, mor_data = gr.total, gr.mor_data
    p = data.base_functor
    e = p.source
    on_objects = {
        tok: x for j in gr.injections.values() for x, tok in j.on_objects.items()
    }
    on_morphisms = {
        m: e.compose(fmor, data.lifting[(u, x)])
        for m, (u, x, fmor, _) in mor_data.items()
    }
    try:
        k = FinFunctor(total, e, on_objects, on_morphisms).check()
    except Exception as exc:
        return failed("reconstitute", {"comparison_not_functorial": str(exc)})
    if sorted(on_objects.values()) != sorted(e.objects):
        return failed("reconstitute", {"objects_not_bijective": True})
    if sorted(on_morphisms.values()) != sorted(e.mor_tokens):
        seen = sorted(on_morphisms.values())
        missing = [m for m in e.mor_tokens if m not in set(seen)]
        return failed("reconstitute", {"morphisms_not_bijective": missing})
    for m in mor_data:
        if p.mor(on_morphisms[m]) != gr.projection.mor(m):
            return failed("reconstitute", {"projection_square": m})
    for key, c in gr.cleavage.items():
        if k.mor(c) != data.lifting[key]:
            return failed("reconstitute", {"cleavage_not_preserved": list(key)})
    return passed(
        "reconstitute",
        direction=direction,
        objects=len(e.objects),
        morphisms=len(e.morphisms),
    )


# ---------------------------------------------------------------------------
# the diagram category of a functor (virtual)
# ---------------------------------------------------------------------------


class DiagOfFunctor:
    """On-demand morphism algebra of the diagram category of P: E -> B.

    Objects are triples (a, I, X) with X: I -> E landing in the fibre E_a;
    morphisms (u, F, φ) have Pφ constantly u.  The category is large, so it
    is never enumerated: only its embedding and the hom bijection of a split
    cofibration are computed.
    """

    def __init__(self, p):
        self.p = p.check()

    def embed(self, x):
        """E^P: an object x of E as a ONE-shaped diagram in its fibre."""
        from .fixtures import one

        pt = one()
        e = self.p.source
        return (
            self.p.ob(x),
            pt,
            FinFunctor(pt, e, {"*": x}, {"1": e.id_of(x)}),
        )

    def hom_bijection_check(self, cofib_data, src, tgt):
        """Verify that for a split cofibration P, morphisms (u, F, φ) are in
        bijection with fibre-level transformations ψ: u_!∘X -> Y∘F via
        φ = (J_b ψ)·(δ^u X): enumerate both sides for every (u, F)."""
        rep, phi_p = verify_split_cofibration(cofib_data)
        if not rep:
            return rep
        a, shape_i, x = src
        b, shape_j, y = tgt
        e, base = self.p.source, self.p.target
        objs = shape_i.objects

        def over(w, s, t):
            return [c for c in e.hom(s, t) if self.p.mor(c) == w]

        checked = 0
        for u in base.hom(a, b):
            push = phi_p.transition(u)
            delta = {i: cofib_data.lifting[(u, x.ob(i))] for i in objs}
            for f in enumerate_functors(shape_i, shape_j):
                # side one: lax components φ with Pφ = Δu
                along_f = lambda m: y.mor(f.mor(m))
                pools = {i: over(u, x.ob(i), y.ob(f.ob(i))) for i in objs}
                lax = natural_families(e, shape_i, pools, x.mor, along_f)
                # side two: vertical ψ: u_!X -> Y∘F in the fibre over b; fibre
                # tokens are shared with E, so u_! applies directly
                id_b = base.id_of(b)
                pools = {
                    i: over(id_b, e.cod(delta[i]), y.ob(f.ob(i))) for i in objs
                }
                pushed = lambda m: push.mor(x.mor(m))
                vert = natural_families(e, shape_i, pools, pushed, along_f)
                image = {
                    tuple(sorted((i, e.compose(psi[i], delta[i])) for i in objs))
                    for psi in vert
                }
                lax_set = {tuple(sorted(c.items())) for c in lax}
                if image != lax_set or len(image) != len(vert):
                    return failed(
                        "hom_bijection_check",
                        {"u": u, "functor": dict(f.on_objects),
                         "lhs": len(vert), "rhs": len(lax)},
                    )
                checked += 1
        return passed("hom_bijection_check", pairs_checked=checked)


def enumerate_functors(i_cat, j_cat):
    """All functors I -> J, each checked, sorted by the indices of the
    object images in J, then of the non-identity images in their hom-sets.

    One search assigns the objects of I in order, and the images of I's
    generators.  An object a that a generator g joins to an earlier object
    b is led by g: one variable takes F(g) from the morphisms out of F(b)
    (g: b -> a) or into F(b) (g: a -> b), and F(a) is read off its other
    end, so a costs no node of its own and no object of J is tried that no
    image of g reaches.  Any other object takes its image from J's objects.
    Every other generator comes right after both of its endpoints, with its
    hom-set as candidates.  The assignment extends along
    :attr:`FinCategory.factorization`, F(a∘r) := F(a)∘F(r), to the only
    candidate functor it admits.  Its maps are typed by construction (see
    :mod:`fibrelab.fincat`), so it is kept, and recorded as checked, iff
    F(a∘f) = F(a)∘F(f) for the generators a, a test that a thin J
    skips."""
    i_cat.check()
    j_cat.check()
    objs = i_cat.objects
    position = {a: n for n, a in enumerate(objs)}
    i_dom, i_cod = i_cat.dom, i_cat.cod
    j_dom, j_cod = j_cat._dom, j_cat._cod
    # the variable an object's image is read from, and how
    image_var, lead = {}, {}
    after = {a: [] for a in objs}
    for g in i_cat.generators:
        d, c = i_dom(g), i_cod(g)
        later, earlier = (c, d) if position[d] < position[c] else (d, c)
        if later != earlier and later not in lead:
            # F(later) is the other end of F(g)
            lead[later] = (2, g) if later == c else (3, g)
        else:
            after[later].append((1, g))
    variables = []
    for a in objs:
        var = lead.get(a, (0, a))
        image_var[a] = var
        variables.append(var)
        variables.extend(after[a])

    # F(a) is the value of its variable, or that value's cod or dom
    ends = {0: None, 2: j_cod, 3: j_dom}

    def ob(a, partial):
        var = image_var[a]
        end, value = ends[var[0]], partial[var]
        return value if end is None else end[value]

    def candidates(var, partial):
        kind, x = var
        if kind == 0:
            return j_cat.objects
        if kind == 2:
            return j_cat.out_of(ob(i_dom(x), partial))
        if kind == 3:
            return j_cat.into(ob(i_cod(x), partial))
        return j_cat.hom(ob(i_dom(x), partial), ob(i_cod(x), partial))

    non_ids = [m for m in i_cat.mor_tokens if not i_cat.is_identity(m)]
    ids = [i_cat.id_of(a) for a in objs]
    # the morphism map's keys, non-identities first, to be filled in
    blank = dict.fromkeys(non_ids + ids)
    factors = i_cat.factorization
    j_ids, j_comp = j_cat.identities, j_cat._composition
    ob_pos = {b: n for n, b in enumerate(j_cat.objects)}
    hom_pos = {}
    for t, d, c in j_cat.morphisms:
        if t not in hom_pos:
            hom_pos.update((m, n) for n, m in enumerate(j_cat.hom(d, c)))
    # readers of a combo: each object's image (its variable's place, and
    # the end to take, if any), each generator's image
    ob_readers = [
        (a, variables.index(image_var[a]), ends[image_var[a][0]]) for a in objs
    ]
    gen_readers = [(x, n) for n, (kind, x) in enumerate(variables) if kind]
    id_readers = list(zip(objs, ids))
    # typed maps into a thin J preserve every composite
    outer = None if j_cat._thin else i_cat.generators
    keyed = []
    for combo in search(variables, candidates):
        on_objects = {
            a: combo[n] if end is None else end[combo[n]] for a, n, end in ob_readers
        }
        images = blank.copy()
        for x, n in gen_readers:
            images[x] = combo[n]
        for a, i in id_readers:
            images[i] = j_ids[on_objects[a]]
        for m, a, r in factors:
            images[m] = j_comp[(images[a], images[r])]
        fun = FinFunctor(i_cat, j_cat, on_objects, images)
        if outer is not None and fun._unpreserved(outer) is not None:
            continue
        fun._record_pass()
        key = [ob_pos[on_objects[a]] for a in objs]
        key += [hom_pos[images[m]] for m in non_ids]
        keyed.append((key, fun))
    keyed.sort(key=lambda kf: kf[0])
    return [fun for _, fun in keyed]


def natural_families(e, shape, pools, top, bottom, functorial=False):
    """Components c_i in pools[i] with c_j∘top(m) = bottom(m)∘c_i in E for
    every non-identity m: i -> j of the shape, as dicts over its objects,
    in the order of the product of the pools.

    ``functorial`` is the caller's promise that the shape and E passed
    their checks, that ``top`` and ``bottom`` are the morphism maps of
    functors shape -> E, and that pools[i] holds morphisms top(i) ->
    bottom(i) only.  The squares are then tested along the morphisms of
    :func:`fibrelab.finset.constrained_morphisms`, which imply every other
    square at the same search node; without the promise, along every
    non-identity morphism."""
    if not all(pools.values()):
        return []
    objs = list(shape.objects)
    if functorial:
        records, _ = constrained_morphisms(
            shape, {a: n for n, a in enumerate(objs)}
        )
    else:
        records = [r for r in shape.morphisms if not shape.is_identity(r[0])]
    constraints = []
    for m, d, c in records:
        t, b = top(m), bottom(m)
        constraints.append(
            (
                (d, c),
                lambda ci, cj, t=t, b=b: e.compose(cj, t) == e.compose(b, ci),
            )
        )
    natural = forward_check(pools, constraints)
    return [dict(zip(objs, combo)) for combo in search(objs, natural)]
