"""Finite categories, functors, natural transformations, and the basic
constructions on them (opposites, products, comma categories, finality).

A category is given by explicit tables: object tokens, morphism records
(token, dom, cod), an identity token per object, and a total composition
table on composable pairs.  The composition convention is

    compose(g, f) = "f then g"

throughout the package.

A :class:`FinCategory` is immutable once built.  Its constructor freezes the
tables and indexes the morphisms by (dom, cod), by dom and by cod, so hom-sets
and the composable pairs and triples that validation visits are read off the
indexes instead of found by scanning every morphism.  Each instance is
validated at most once.  A :class:`FinFunctor` keeps the same contract: its
maps are read-only views, and its check walks the source's composable pairs
by table lookups, once.

Associativity is certified over a generating set (Light's associativity
test).  One set A is chosen from the validated table, by ``check()``, or
for a derived certificate (below) on first use of
:attr:`FinCategory.generators`: the indecomposable non-identities first,
then, in declaration order, each morphism that the closure of A under
m -> a∘m (a in A) has not reached, until every morphism is an identity or a∘m with a in A and m generated.  It then
checks (h∘a)∘f = h∘(a∘f) only for a in A.  That suffices, by induction on m:

    (h∘(a∘m))∘f = ((h∘a)∘m)∘f = (h∘a)∘(m∘f)     (a in A, then m)
                = h∘(a∘(m∘f)) = h∘((a∘m)∘f)     (a in A, then m)

and identities associate by the identity laws.  Functors and set diagrams
use the same set: once source and target have passed ``check()``,
F(a∘f) = F(a)∘F(f) for a in A gives F((a∘m)∘f) = F(a)∘F(m∘f) =
F(a)∘F(m)∘F(f) = F(a∘m)∘F(f).  The generator test only proves a pass early:
when it fails, or a source is unchecked, the loop over every composable
triple or pair runs and names the first witness in its order.  ``c.op``
shares the set, since A generates C^op once C is associative.
:attr:`FinCategory.factorization` writes every other non-identity as a∘r
with a in A, so a functor is fixed by its images of A, and
:meth:`FinFunctor.certified` is the check without that fall-back: an
enumerator of functors rejects a candidate with one generator test.

Transformations, cones and cocones are families of squares, one per
morphism, and they use the set too (:func:`first_witness`).  For a
transformation α: F ⇒ G of functors C -> D that passed their checks,
between checked C and D, naturality at a in A and at m gives it at a∘m,
by associativity in D:

    α_c'∘F(a∘m) = α_c'∘F(a)∘F(m) = G(a)∘α_c∘F(m)
                = G(a)∘G(m)∘α_d = G(a∘m)∘α_d

so, by induction along the closure, the squares at the identities and at
A prove every square; the identity squares hold once the components are
typed.  The same induction proves strictness of a Cat-valued diagram from
the pairs with a generator outside (``CatDiagram.check`` in
:mod:`fibrelab.grothendieck`), and the squares of cones, cocones and
transformations of set diagrams (see :mod:`fibrelab.finset`).  The
squares only prove a pass: when one fails, or an input is unchecked, every
square is checked in declaration order, so a failure names the witness it
always named.

Thin categories, where every hom-set has at most one morphism, are
certified by typing.  Once every composite has the right endpoints,
(h∘g)∘f and h∘(g∘f) both lie in hom(dom f, cod h), which holds one
morphism, so they are equal and Light's test is not run.  If the category
is moreover a poset (no two distinct objects with arrows both ways), its
indecomposable non-identities A generate it, and the closure is not run
either: by induction on the length L(x, y) of the longest chain of
non-identities from x to y, a decomposable m = g∘f: x -> y has f: x -> z
and g: z -> y with L(x, z), L(z, y) < L(x, y), so both are composites of
generators, and so is m.  That A is the set the closure would choose, since
it starts from A and then adds only what A leaves unreached.  Likewise a
map into a thin target that preserves endpoints preserves composites, since
F(g∘f) and F(g)∘F(f) lie in one hom-set: between checked categories
:meth:`FinFunctor.certified` then runs no generator test.

Duality goes through the ``op`` properties.  ``c.op`` is built on first use
and cached: the same tokens in the same order, dom and cod swapped, the
composition table transposed.  It is not rebuilt through ``__init__``: its
dom and cod maps are this category's cod and dom maps, its by-dom and
by-cod indexes are the by-cod and by-dom ones, and its hom index has the
keys reversed, which are the tables ``__init__`` would build from the
swapped records, in the same order.  ``c.op.op is c``, and a passing
``check()`` of either one holds for both, so ``opposite(c)`` neither copies
nor re-checks a category that was checked already.  ``F.op`` is the same object and
morphism maps between the opposite categories, also cached, and a passing
check of either functor holds for both.

Derived certificates.  Loaders, the :func:`category` builder, the
Cat-colimit and every final certificate run the full ``check()``.  The
constructors whose result is a category by a theorem (:func:`product`,
:func:`comma` and so the slices and ``Strict(X) = Id↓X``, the Grothendieck
total of a strict diagram, the fibres and slice fibres of a functor) first
check what they are built from, a memo hit on checked input, and then run
only the checks of ``check()`` that are linear in the objects and
morphisms: distinct tokens, declared endpoints, an identity for every
object.  The composition table is not checked; thinness is the same
hom-index test, and the generating set is chosen on first use by the rule
above, so generating sets, factorizations and witnesses are those of
``check()``.
Each theorem is about the structured objects (pairs, triples); the string
tokens encode them injectively exactly when no two tokens collide, which
the duplicate-token checks decide, refusing a collision as ``check()``
does.  The proofs, for checked inputs:

- C×D: identities and composites are taken componentwise, so each entry's
  typing, the table's totality, both identity laws and associativity at a
  triple of C×D are the same statements in C and in D at the components.
- A subcategory S of a checked E, given as a set of objects and of
  morphisms between them that holds their identities and is closed under
  E's composition, with E's composites: each axiom of S is an instance of
  the same axiom in E.  The fibre of a functor P: E -> B over b is one:
  the morphisms over 1_b hold the identities of the objects over b, and
  P(g∘f) = P(g)∘P(f) = 1_b∘1_b = 1_b.
- F↓G for functors F: A -> C, G: B -> C: a morphism is determined by its
  end triples and its components (p, q), and composes componentwise.  If
  G(q)∘u = u'∘F(p) and G(q')∘u' = u''∘F(p'), then G(q'∘q)∘u =
  G(q')∘u'∘F(p) = u''∘F(p'∘p), so every composite is a morphism, and so
  is (1, 1), as F and G preserve identities.  Each axiom then holds at the
  components, in A and in B, as for C×D.  The slice C/a is Id↓a, and the
  slice fibre P/a is P↓a.
- ∫Φ for a strict Φ: B -> Cat, with (v, g)·(u, f) = (v∘u, g∘Φv(f)): the
  composite is typed, as Φv(f): Φv(Φu x) = Φ(v∘u) x -> Φv y.  (1, 1) is a
  two-sided identity since Φ(1) = Id and Φv preserves identities.  Both
  bracketings of (w, h)·(v, g)·(u, f) are (w∘v∘u, h∘Φw(g)∘Φw(Φv(f))), by
  associativity in B and in the fibres, since Φw is a functor and
  Φ(w∘v) = Φw∘Φv.  The projection (u, f) ↦ u and the injections
  J_a: f ↦ (1_a, f) preserve identities and composites by the same
  formula, so they are marked checked as well.  The fibre of the
  projection over a is the image of J_a (the morphisms over 1_a are the
  (1_a, f)), so ``fibrations.fibres`` renames Φa through J_a instead of
  extracting it from the total; it is the same subcategory.
- Ran_F X over a checked J (:func:`fibrelab.kan.ran`): its set at j holds
  the compatible families over j↓F, and (Ran_F X)(v) for v: j -> j'
  sends a family over j to the one over j' whose value at
  (i, u: j' -> F i) is the family's value at (i, u∘v).  That is a
  compatible family, as (Fm∘u)∘v = Fm∘(u∘v), so each function is total
  and typed; u∘1 = u and u∘(w∘v) = (u∘w)∘v make it a functor.  Two
  families that render to one token are refused (``DanglingToken``), so
  the derived certificate always applies over a checked J.

:func:`fibrelab.fibrations.enumerate_functors` certifies its candidates
by construction in the same way.  An object's image is an object of J,
or an end of a generator's image; a generator's image is taken from
hom(F d, F c), or from the morphisms out of F d (into F c) when it fixes
F c (F d) as its other end; an identity's image is the identity of its
object's image; and each other non-identity m = a∘r of
:attr:`FinCategory.factorization` gets F(a)∘F(r), read from J's table,
whose entries passed their endpoint checks, so it runs from F(dom m) to
F(cod m).  So the map checks of :meth:`FinFunctor.certified` hold, and
only its generator test runs, none for a thin J.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .errors import (
    AssociativityViolation,
    DanglingToken,
    IdentityViolation,
    MissingComposite,
    ShapeMismatch,
    TargetMismatch,
)
from .report import failed, passed


class FinCategory:
    """A finite category as explicit, immutable tables.

    The constructor freezes the data (tuples and read-only mappings) and
    builds three indexes over the morphism records, each in declaration
    order: by (dom, cod), by dom and by cod.  It does not validate; use
    :func:`validate_category` (or the :func:`category` builder, which fills
    in identity composites) to get a checked instance.  :meth:`check`
    validates at most once: after it passes, later calls return at once.
    """

    def __init__(self, objects, morphisms, identities, composition, name=""):
        self.objects = tuple(objects)
        self.morphisms = tuple((t, d, c) for (t, d, c) in morphisms)
        self.identities = MappingProxyType(dict(identities))
        self._composition = dict(composition)
        self.composition = MappingProxyType(self._composition)
        self.name = name
        self.mor_tokens = tuple(t for t, _, _ in self.morphisms)
        self._object_set = frozenset(self.objects)
        self._dom = {t: d for t, d, _ in self.morphisms}
        self._cod = {t: c for t, _, c in self.morphisms}
        self._identity_tokens = frozenset(self.identities.values())
        hom, out_of, into = {}, {}, {}
        for t, d, c in self.morphisms:
            hom.setdefault((d, c), []).append(t)
            out_of.setdefault(d, []).append(t)
            into.setdefault(c, []).append(t)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self._out_of = {k: tuple(v) for k, v in out_of.items()}
        self._into = {k: tuple(v) for k, v in into.items()}
        # every hom-set has at most one morphism (which proves associativity
        # once the composites are typed)
        self._thin = len(self._hom) == len(self.morphisms)
        self._checked = False
        self._generators = None
        # whether the generating set is read from the opposite (see ``op``)
        self._shares_generators = False
        self._factorization = None
        self._op = None

    # -- accessors ----------------------------------------------------------

    def dom(self, f):
        return self._dom[f]

    def cod(self, f):
        return self._cod[f]

    def id_of(self, a):
        return self.identities[a]

    def is_identity(self, f):
        return f in self._identity_tokens

    def has_mor(self, f):
        return f in self._dom

    def hom(self, a, b):
        """The morphisms a -> b, in declaration order."""
        return self._hom.get((a, b), ())

    def out_of(self, a):
        """The morphisms with domain a, in declaration order."""
        return self._out_of.get(a, ())

    def into(self, b):
        """The morphisms with codomain b, in declaration order."""
        return self._into.get(b, ())

    def compose(self, g, f):
        """Return g∘f ("f then g")."""
        if self._cod[f] != self._dom[g]:
            raise MissingComposite(("not composable", g, f))
        try:
            return self._composition[(g, f)]
        except KeyError:
            raise MissingComposite((g, f)) from None

    def composable_pairs(self):
        """Every composable pair (g, f), g outer in declaration order."""
        for g in self.mor_tokens:
            for f in self.into(self._dom[g]):
                yield g, f

    # -- validation ---------------------------------------------------------

    def check(self):
        """Validate the tables once; a pass is remembered (by ``op`` too).

        Tokens, endpoints, identities, the composition entries, the
        table's totality and the identity laws are checked in that order,
        each naming its first witness.  Associativity is then a
        theorem of typing when the category is thin, and Light's test over
        the generating set otherwise (the loop over every triple runs only
        to name a witness)."""
        if self._checked:
            return self
        morset = self._check_tokens()
        dom, cod, identity = self._dom, self._cod, self.identities
        ids = {identity[a] for a in self.objects}
        comp = self._composition
        decomposable = set()
        for (g, f), gf in comp.items():
            if g not in morset or f not in morset or gf not in morset:
                raise DanglingToken(("composition entry", g, f, gf))
            if cod[f] != dom[g]:
                raise DanglingToken(("entry for non-composable pair", g, f))
            if dom[gf] != dom[f] or cod[gf] != cod[g]:
                raise IdentityViolation(("dom/cod of composite", g, f, gf))
            if g not in ids and f not in ids:
                decomposable.add(gf)
        # every entry is a composable pair, so the table is total iff it has
        # as many entries as there are composable pairs
        into = self._into
        if len(comp) != sum(len(into[dom[g]]) for g in self.mor_tokens):
            for g, f in self.composable_pairs():
                if (g, f) not in comp:
                    raise MissingComposite((g, f))
        # from here on every composable pair has a composite with the right
        # endpoints, so plain table lookups cannot fail
        for f in self.mor_tokens:
            if comp[(identity[cod[f]], f)] != f:
                raise IdentityViolation(("left identity", f))
            if comp[(f, identity[dom[f]])] != f:
                raise IdentityViolation(("right identity", f))
        gens = self._choose_generators(ids, decomposable)
        if not self._thin and not self._associative_at(gens):
            self._check_every_triple()
        self._generators = gens
        return self._record_pass()

    def _derived(self):
        """Record a pass for tables that a constructor built from checked
        inputs, where a theorem proves the axioms (see the module
        docstring): only the checks of :meth:`check` that are linear in
        the objects and morphisms run, so a token collision is refused
        as there, and the generating set is chosen on first use."""
        self._check_tokens()
        return self._record_pass()

    def _check_tokens(self):
        """The checks of :meth:`check` that read no composition entry: no
        duplicate token, declared endpoints, an identity for every object.
        Returns the set of morphism tokens."""
        morset = distinct_tokens(self.objects, self.mor_tokens)
        objset = self._object_set
        for t, d, c in self.morphisms:
            if d not in objset or c not in objset:
                raise DanglingToken(("morphism endpoints undeclared", t, d, c))
        dom, cod, identity = self._dom, self._cod, self.identities
        for a in self.objects:
            i = identity.get(a)
            if i is None or i not in morset:
                raise DanglingToken(("missing identity", a))
            if dom[i] != a or cod[i] != a:
                raise IdentityViolation(("identity endpoints", a, i))
        return morset

    def _record_pass(self):
        """Mark the category (and its opposite, if built) checked; the
        opposite shares the generating set."""
        self._checked = True
        if self._op is not None:
            self._op._checked = True
            self._op._generators = self._generators
            self._op._shares_generators = True
        return self

    def _choose_generators(self, ids, decomposable):
        """The generating set of a table that passed the checks up to
        Light's test: its indecomposable non-identities when it is a
        poset, and closed greedily otherwise; ``ids`` are the identities
        and ``decomposable`` the composites of two non-identities."""
        hom = self._hom
        if self._thin and not any(d != c and (c, d) in hom for d, c in hom):
            return tuple(
                m for m in self.mor_tokens if m not in ids and m not in decomposable
            )
        return self._generating_set(ids, decomposable)

    def _generating_set(self, ids, decomposable):
        """Generators A such that every morphism is an identity or a∘m with
        a in A and m generated, for a table whose composable pairs all have
        composites; ``ids`` are the identities and ``decomposable`` the
        composites of two non-identities.  The indecomposable non-identities
        come first (every generating set holds them); then each morphism, in
        declaration order, that the closure has not reached yet (groups and
        idempotents need these)."""
        comp, dom, cod = self._composition, self._dom, self._cod
        reached = set(ids)
        reached_into = {a: [self.identities[a]] for a in self.objects}
        gens, gens_out, work = [], {}, []

        def reach(m):
            if m not in reached:
                reached.add(m)
                reached_into[cod[m]].append(m)
                work.append(m)

        def add(new):
            for a in new:
                gens.append(a)
                gens_out.setdefault(dom[a], []).append(a)
                for m in tuple(reached_into[dom[a]]):
                    reach(comp[(a, m)])
            while work:
                m = work.pop()
                for a in gens_out.get(cod[m], ()):
                    reach(comp[(a, m)])

        add([m for m in self.mor_tokens if m not in ids and m not in decomposable])
        for m in self.mor_tokens:
            if m not in reached:
                add([m])
        return tuple(gens)

    def _associative_at(self, middles):
        """Whether (h∘g)∘f = h∘(g∘f) on every composable triple whose
        middle g is in ``middles`` (Light's test when they generate)."""
        comp, dom, cod = self._composition, self._dom, self._cod
        into, out_of = self._into, self._out_of
        for g in middles:
            fs = into[dom[g]]
            gfs = [comp[(g, f)] for f in fs]
            for h in out_of[cod[g]]:
                hg = comp[(h, g)]
                if [comp[(h, gf)] for gf in gfs] != [comp[(hg, f)] for f in fs]:
                    return False
        return True

    def _check_every_triple(self):
        """Raise AssociativityViolation at the first composable triple, in
        the order h, g, f, that does not associate."""
        comp, into = self._composition, self._into
        for h in self.mor_tokens:
            for g in into[self._dom[h]]:
                hg = comp[(h, g)]
                for f in into[self._dom[g]]:
                    if comp[(h, comp[(g, f)])] != comp[(hg, f)]:
                        raise AssociativityViolation((h, g, f))

    @property
    def generators(self):
        """The generating set that :meth:`check` certifies with (checking
        first if need be), in the order it was chosen; for a derived
        certificate, chosen on first use, and an opposite built or checked
        after this category passed reads this category's set."""
        if self._generators is None and self.check()._generators is None:
            if self._shares_generators:
                self._generators = self._op.generators
            else:
                identity = self.identities
                ids = {identity[a] for a in self.objects}
                self._generators = self._choose_generators(
                    ids,
                    {
                        gf
                        for (g, f), gf in self._composition.items()
                        if g not in ids and f not in ids
                    },
                )
        return self._generators

    @property
    def factorization(self):
        """Triples (m, a, r) with m = a∘r and a a generator, one for each
        non-identity m that is no generator, in an order where r is a
        generator or comes earlier: the generator closure replayed.  Built
        on first use (checking first if need be) and cached."""
        if self._factorization is None:
            comp, dom, cod = self._composition, self._dom, self._cod
            gens = self.generators
            gens_out = {}
            for a in gens:
                gens_out.setdefault(dom[a], []).append(a)
            known = {*self._identity_tokens, *gens}
            work, factors = list(gens), []
            for r in work:
                for a in gens_out.get(cod[r], ()):
                    m = comp[(a, r)]
                    if m not in known:
                        known.add(m)
                        factors.append((m, a, r))
                        work.append(m)
            self._factorization = tuple(factors)
        return self._factorization

    @property
    def op(self):
        """The opposite category, built on first use and cached.  Its tables
        are this category's with the dom and cod maps, the by-dom and by-cod
        indexes and the hom keys swapped, and the composition table
        transposed, each in the order ``__init__`` would give them, so it
        is not rebuilt through ``__init__``; the immutable tables that do
        not change (objects, identities, token sets) are shared."""
        if self._op is None:
            op = object.__new__(FinCategory)
            op.objects, op.identities = self.objects, self.identities
            op.morphisms = tuple((t, c, d) for t, d, c in self.morphisms)
            op._composition = {(f, g): gf for (g, f), gf in self._composition.items()}
            op.composition = MappingProxyType(op._composition)
            op.name = (self.name + "^op") if self.name else ""
            op.mor_tokens, op._object_set = self.mor_tokens, self._object_set
            op._dom, op._cod = self._cod, self._dom
            op._identity_tokens = self._identity_tokens
            op._hom = {(c, d): ts for (d, c), ts in self._hom.items()}
            op._out_of, op._into = self._into, self._out_of
            op._thin = self._thin
            op._checked = self._checked
            op._generators = self._generators
            op._shares_generators = self._checked
            op._factorization = None
            op._op = self
            self._op = op
        return self._op

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FinCategory):
            return NotImplemented
        return self is other or (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identities == other.identities
            and self.composition == other.composition
        )

    def __hash__(self):
        return hash((self.objects, self.morphisms))

    def __repr__(self):
        label = self.name or "FinCategory"
        return "%s(%d objects, %d morphisms)" % (
            label,
            len(self.objects),
            len(self.morphisms),
        )

    def to_dict(self):
        return {
            "format": "fibrelab/1",
            "objects": list(self.objects),
            "morphisms": [
                {"id": t, "dom": d, "cod": c} for t, d, c in self.morphisms
            ],
            "identities": dict(self.identities),
            "composition": sorted(
                [g, f, gf]
                for (g, f), gf in self.composition.items()
                if not self.is_identity(g) and not self.is_identity(f)
            ),
        }


def distinct_tokens(objects, mor_tokens):
    """Refuse a repeated object token, then a repeated morphism token, with
    the witnesses of :meth:`FinCategory.check`, for a constructor whose
    tables are keyed by the tokens; returns the set of morphism tokens."""
    if len(set(objects)) != len(objects):
        raise DanglingToken(("duplicate object token", tuple(objects)))
    morset = set(mor_tokens)
    if len(morset) != len(mor_tokens):
        raise DanglingToken(("duplicate morphism token", tuple(mor_tokens)))
    return morset


def group_by_cod(morphisms):
    """Morphism records (token, dom, cod) grouped by codomain, each group in
    declaration order: the composable-pair index of a category under
    construction."""
    into = {}
    for rec in morphisms:
        into.setdefault(rec[2], []).append(rec)
    return into


def category(objects, morphisms, identities, composition, name=""):
    """Build and validate a FinCategory, filling in identity composites."""
    morphisms = [(t, d, c) for (t, d, c) in morphisms]
    dom = {t: d for t, d, _ in morphisms}
    cod = {t: c for t, _, c in morphisms}
    table = dict(composition)
    for t in dom:
        i_cod = identities.get(cod[t])
        i_dom = identities.get(dom[t])
        if i_cod is not None:
            table.setdefault((i_cod, t), t)
        if i_dom is not None:
            table.setdefault((t, i_dom), t)
    return FinCategory(objects, morphisms, identities, table, name=name).check()


def _require_hashable(tokens):
    """Reject a token that cannot key a table (a JSON list or object)."""
    for t in tokens:
        try:
            hash(t)
        except TypeError:
            raise DanglingToken(("unhashable token", t)) from None


def validate_category(raw):
    """Validate a raw description (the JSON shape) into a FinCategory.

    ``raw`` is a mapping with keys objects / morphisms / identities /
    composition; morphism entries are {"id","dom","cod"} mappings or
    (token, dom, cod) triples; composition entries are [g, f, gf] triples
    (identity-involving composites may be omitted).
    """
    if isinstance(raw, FinCategory):
        return raw.check()
    try:
        objects = list(raw["objects"])
        identities = dict(raw["identities"])
        comp_raw = raw.get("composition", [])
        morphisms = []
        for m in raw["morphisms"]:
            if isinstance(m, dict):
                morphisms.append((m["id"], m["dom"], m["cod"]))
            else:
                t, d, c = m
                morphisms.append((t, d, c))
        if isinstance(comp_raw, dict):
            comp_raw = [(*k.split(), gf) for k, gf in comp_raw.items()]
        composition = {}
        for g, f, gf in comp_raw:
            _require_hashable((g, f, gf))
            composition[(g, f)] = gf
    except (KeyError, TypeError, ValueError) as exc:
        raise DanglingToken(("malformed description", str(exc))) from None
    for tokens in (objects, identities.values(), *morphisms):
        _require_hashable(tokens)
    declared = set(objects)
    for a in identities:
        if a not in declared:
            raise DanglingToken(("identity for undeclared object", a))
    return category(
        objects, morphisms, identities, composition, name=raw.get("name", "")
    )


# ---------------------------------------------------------------------------
# functors and natural transformations
# ---------------------------------------------------------------------------


class FinFunctor:
    """A functor between finite categories, as object and morphism maps.

    Like :class:`FinCategory` it is immutable once built: the maps are
    read-only views, and :meth:`check` validates at most once.
    """

    # memo slots of :mod:`fibrelab.fibrations`, set on first use
    _fibre_source = None  # what fibres() builds from, left by a constructor
    _filler_index = None  # m -> {(t∘m, Pt): [t, ...]}
    _image_counts = None  # x -> {Ph: how many h out of x}

    def __init__(self, source, target, on_objects, on_morphisms, name=""):
        self.source = source
        self.target = target
        self._on_objects = dict(on_objects)
        self._on_morphisms = dict(on_morphisms)
        self.on_objects = MappingProxyType(self._on_objects)
        self.on_morphisms = MappingProxyType(self._on_morphisms)
        self.name = name
        self._checked = False
        self._op = None
        self._fibres = None  # every fibre, built by fibrations.fibres

    def ob(self, a):
        return self._on_objects[a]

    def mor(self, f):
        return self._on_morphisms[f]

    @property
    def op(self):
        """The same maps, between the opposite categories, built on first
        use and cached; it is a functor iff this one is, so a passing check
        holds for both."""
        if self._op is None:
            op = FinFunctor(
                self.source.op, self.target.op, self._on_objects, self._on_morphisms
            )
            op._checked = self._checked
            op._op = self
            self._op = op
        return self._op

    def check(self):
        if not self.certified():
            bad = self._unpreserved(self.source.mor_tokens)
            if bad is not None:
                raise ShapeMismatch(("composition not preserved",) + bad)
            self._record_pass()
        return self

    def _record_pass(self):
        self._checked = True
        if self._op is not None:
            self._op._checked = True
        return self

    def certified(self):
        """Whether the generator test alone proves the functor: the maps
        are validated first (a broken one raises as in :meth:`check`), then,
        with source and target checked, a∘f preserved for the source's
        generators a, or nothing more if the target is thin.  A pass is
        recorded.  False means :meth:`check` would run its loop over every
        pair; between checked categories it means that the maps are no
        functor."""
        if self._checked:
            return True
        src, tgt = self.source, self.target
        obs, mors = self._on_objects, self._on_morphisms
        target_objects = tgt._object_set
        for a in src.objects:
            if a not in obs:
                raise DanglingToken(("functor misses object", a))
            if obs[a] not in target_objects:
                raise DanglingToken(("functor image object undeclared", a))
        tdom, tcod = tgt._dom, tgt._cod
        for f, d, c in src.morphisms:
            if f not in mors:
                raise DanglingToken(("functor misses morphism", f))
            ff = mors[f]
            if ff not in tdom:
                raise DanglingToken(("functor image morphism undeclared", f))
            if tdom[ff] != obs[d]:
                raise ShapeMismatch(("dom not preserved", f))
            if tcod[ff] != obs[c]:
                raise ShapeMismatch(("cod not preserved", f))
        for a in src.objects:
            if mors[src.identities[a]] != tgt.identities[obs[a]]:
                raise ShapeMismatch(("identity not preserved", a))
        # with both categories checked, preserving a∘f for the generators a
        # proves functoriality, and preserving endpoints does if the target
        # is thin
        if not (src._checked and tgt._checked):
            return False
        if not tgt._thin and self._unpreserved(src.generators) is not None:
            return False
        self._record_pass()
        return True

    def _unpreserved(self, outer):
        """The first composable pair (g, f), g from ``outer`` and f in the
        source's order, whose composite the functor does not preserve; a
        missing composite goes through compose() for its MissingComposite."""
        src, tgt, mors = self.source, self.target, self._on_morphisms
        scomp, tcomp = src._composition, tgt._composition
        sdom, into = src._dom, src._into
        for g in outer:
            mg = mors[g]
            for f in into.get(sdom[g], ()):
                try:
                    gf = scomp[(g, f)]
                except KeyError:
                    gf = src.compose(g, f)
                mgf, mf = mors[gf], mors[f]
                try:
                    image = tcomp[(mg, mf)]
                except KeyError:
                    image = tgt.compose(mg, mf)
                if mgf != image:
                    return g, f
        return None

    def __eq__(self, other):
        if not isinstance(other, FinFunctor):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._on_objects == other._on_objects
            and self._on_morphisms == other._on_morphisms
        )

    def __repr__(self):
        return "FinFunctor(%s -> %s)" % (
            self.source.name or "?",
            self.target.name or "?",
        )


def identity_functor(c):
    return FinFunctor(
        c,
        c,
        {a: a for a in c.objects},
        {f: f for f in c.mor_tokens},
        name="Id",
    )


def is_identity_functor(f, c):
    """Whether ``f == identity_functor(c)``, without building it: the same
    endpoints, and maps that send every token of c, and nothing else, to
    itself."""
    obs, mors = f._on_objects, f._on_morphisms
    return (
        f.source == c
        and f.target == c
        and len(obs) == len(c.objects)
        and len(mors) == len(c.mor_tokens)
        and all(obs.get(a) == a for a in c.objects)
        and all(mors.get(m) == m for m in c.mor_tokens)
    )


def constant_functor(source, target, obj):
    """The functor sending everything in ``source`` to ``obj`` / its identity."""
    i = target.id_of(obj)
    return FinFunctor(
        source,
        target,
        {a: obj for a in source.objects},
        {f: i for f in source.mor_tokens},
    )


def compose_functor(g, f):
    """g∘f (apply f first); checked when f and g are."""
    if f.target != g.source:
        raise ShapeMismatch(("functor composition", "middle category differs"))
    gf = FinFunctor(
        f.source,
        g.target,
        {a: g.ob(f.ob(a)) for a in f.source.objects},
        {m: g.mor(f.mor(m)) for m in f.source.mor_tokens},
    )
    # a functor followed by a functor is a functor
    if f._checked and g._checked:
        gf._record_pass()
    return gf


def first_witness(shape, witness, fast, identities=True):
    """The first witness that ``witness(f, d, c)`` returns over the morphism
    records of ``shape`` in declaration order, or None when there is none;
    ``witness`` returns None where its square at f holds.

    ``fast`` says that the caller's diagrams have passed their checks.  With
    a checked shape, the squares at the identities (unless ``identities``
    is false) and at the generators are tried first, and when they all
    hold, every square does (see the module docstring).  A failed square
    there, or a KeyError or TypeError from a partial map, runs the loop over
    every morphism, so a witness, or an error, is always the loop's first."""
    if fast and shape._checked:
        dom, cod, identity = shape._dom, shape._cod, shape.identities
        try:
            if (
                not identities
                or all(witness(identity[a], a, a) is None for a in shape.objects)
            ) and all(witness(g, dom[g], cod[g]) is None for g in shape.generators):
                return None
        except (KeyError, TypeError):
            pass
    for f, d, c in shape.morphisms:
        bad = witness(f, d, c)
        if bad is not None:
            return bad
    return None


class NatTransformation:
    """A natural transformation between parallel functors.

    ``components`` maps each source object i to a morphism F(i) -> G(i) of
    the common target category.  Once F and G have passed their checks, and
    so have their source and target, naturality is checked over the
    identities and generators of the source (:func:`first_witness`).
    """

    def __init__(self, source, target, components):
        self.source = source  # F
        self.target = target  # G
        self.components = dict(components)

    def at(self, i):
        return self.components[i]

    def check(self):
        """Parallel functors, a typed component per object, then the
        naturality squares (over the generators when F, G, their source and
        their target are checked, or if that fails, at every morphism)."""
        f, g = self.source, self.target
        if f.source != g.source or f.target != g.target:
            raise ShapeMismatch(("transformation between non-parallel functors",))
        cat = f.target
        for i in f.source.objects:
            c = self.components.get(i)
            if c is None or not cat.has_mor(c):
                raise DanglingToken(("missing component", i))
            if cat.dom(c) != f.ob(i) or cat.cod(c) != g.ob(i):
                raise ShapeMismatch(("component endpoints", i, c))
        components = self.components

        def square(m, d, c):
            left = cat.compose(components[c], f.mor(m))
            right = cat.compose(g.mor(m), components[d])
            return None if left == right else (m, left, right)

        fast = f._checked and g._checked and cat._checked
        bad = first_witness(f.source, square, fast)
        if bad is not None:
            raise ShapeMismatch(("naturality square",) + bad)
        return self

    def __eq__(self, other):
        if not isinstance(other, NatTransformation):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )


def identity_nat(f):
    return NatTransformation(
        f, f, {i: f.target.id_of(f.ob(i)) for i in f.source.objects}
    )


# ---------------------------------------------------------------------------
# opposite, product, comma
# ---------------------------------------------------------------------------


def opposite(c):
    """The checked opposite category ``c.check().op``."""
    return c.check().op


def pair_token(a, b):
    """The token of the pair (a, b) in a product category."""
    return "(%s,%s)" % (a, b)


def product(c, d):
    """The product category with pair tokens :func:`pair_token`, of
    checked factors and with a derived certificate.  Each pair token is
    rendered once, in rows by the left factor, and the tables are read
    from the rows."""
    c.check()
    d.check()
    p = pair_token
    obs = {a: {b: p(a, b) for b in d.objects} for a in c.objects}
    mors = {f: {g: p(f, g) for g in d.mor_tokens} for f in c.mor_tokens}
    objects = [t for row in obs.values() for t in row.values()]
    morphisms = [
        (mors[f][g], obs[fd][gd], obs[fc][gc])
        for f, fd, fc in c.morphisms
        for g, gd, gc in d.morphisms
    ]
    c_id, d_id = c.identities, d.identities
    identities = {
        t: mors[c_id[a]][d_id[b]] for a, row in obs.items() for b, t in row.items()
    }
    # each factor composite once per composable pair of its factor
    d_comp = d._composition
    right = [(g1, f1, d_comp[(g1, f1)]) for g1, f1 in d.composable_pairs()]
    composition = {}
    c_comp = c._composition
    for g2, f2 in c.composable_pairs():
        g2s, f2s, gf2s = mors[g2], mors[f2], mors[c_comp[(g2, f2)]]
        for g1, f1, gf1 in right:
            composition[(g2s[g1], f2s[f1])] = gf2s[gf1]
    return FinCategory(objects, morphisms, identities, composition)._derived()


@dataclass
class CommaCategory:
    category: FinCategory
    left_projection: FinFunctor
    right_projection: FinFunctor
    # object token -> (a, b, u: F a -> G b); morphism token -> (f, g)
    triples: dict
    pairs: dict


def comma(f, g):
    """The comma category F↓G of functors F: A -> C, G: B -> C.

    Objects are triples (a, b, u: F a -> G b); a morphism
    (a,b,u) -> (a',b',u') is a pair (p: a -> a', q: b -> b') with
    G(q)∘u = u'∘F(p).  The functors and their categories are checked
    first, and the comma category has a derived certificate.
    """
    if f.target != g.target:
        raise TargetMismatch(("comma", "functors have different targets"))
    a_cat, b_cat, c_cat = f.source, g.source, f.target
    for x in (a_cat, b_cat, c_cat, f, g):
        x.check()
    objects = []
    triples = {}
    for a in a_cat.objects:
        for b in b_cat.objects:
            for u in c_cat.hom(f.ob(a), g.ob(b)):
                t = "(%s,%s,%s)" % (a, b, u)
                objects.append(t)
                triples[t] = (a, b, u)
    morphisms = []
    pairs = {}
    identities = {}
    for t1, (a1, b1, u1) in triples.items():
        for t2, (a2, b2, u2) in triples.items():
            for p in a_cat.hom(a1, a2):
                for q in b_cat.hom(b1, b2):
                    if c_cat.compose(g.mor(q), u1) != c_cat.compose(u2, f.mor(p)):
                        continue
                    m = "[%s,%s]:%s>%s" % (p, q, u1, u2)
                    morphisms.append((m, t1, t2))
                    pairs[m] = (p, q)
                    if (
                        t1 == t2
                        and p == a_cat.id_of(a1)
                        and q == b_cat.id_of(b1)
                    ):
                        identities[t1] = m
    mor_by_data = {}
    for m, t1, t2 in morphisms:
        mor_by_data[(t1, t2, pairs[m])] = m
    composition = {}
    into = group_by_cod(morphisms)
    for m2, s2, t2 in morphisms:
        for m1, s1, _ in into.get(s2, ()):
            p = a_cat.compose(pairs[m2][0], pairs[m1][0])
            q = b_cat.compose(pairs[m2][1], pairs[m1][1])
            composition[(m2, m1)] = mor_by_data[(s1, t2, (p, q))]
    cat = FinCategory(objects, morphisms, identities, composition)._derived()
    left = FinFunctor(
        cat,
        a_cat,
        {t: triples[t][0] for t in objects},
        {m: pairs[m][0] for m, _, _ in morphisms},
    )
    right = FinFunctor(
        cat,
        b_cat,
        {t: triples[t][1] for t in objects},
        {m: pairs[m][1] for m, _, _ in morphisms},
    )
    return CommaCategory(cat, left, right, triples, pairs)


def slice_over(c, a):
    """The slice C/A as a comma category Id_C ↓ constant-at-A."""
    one = category(["*"], [("1", "*", "*")], {"*": "1"}, {}, name="ONE")
    return comma(identity_functor(c), constant_functor(one, c, a))


# ---------------------------------------------------------------------------
# finality
# ---------------------------------------------------------------------------


def is_final(q):
    """Check that Q: A -> K is a final functor.

    Passes iff for every object k of K the comma category k↓Q is non-empty
    and connected (undirected reachability over comma morphisms).
    """
    a_cat, k_cat = q.source, q.target
    for k in k_cat.objects:
        # objects of k↓Q: pairs (a, u: k -> Q a)
        nodes = [
            (a, u) for a in a_cat.objects for u in k_cat.hom(k, q.ob(a))
        ]
        if not nodes:
            return failed(
                "is_final",
                {"object": k, "reason": "empty comma category"},
                comma_objects=0,
            )
        index = {n: i for i, n in enumerate(nodes)}
        parent = list(range(len(nodes)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for (a1, u1) in nodes:
            for f in a_cat.out_of(a1):
                u2 = k_cat.compose(q.mor(f), u1)
                i, j = find(index[(a1, u1)]), find(index[(a_cat.cod(f), u2)])
                if i != j:
                    parent[i] = j
        roots = {find(i) for i in range(len(nodes))}
        if len(roots) > 1:
            comps = {}
            for n, i in index.items():
                comps.setdefault(find(i), []).append(list(n))
            return failed(
                "is_final",
                {"object": k, "components": sorted(comps.values())},
                comma_objects=len(nodes),
            )
    return passed("is_final", objects_checked=len(k_cat.objects))
