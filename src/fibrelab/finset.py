"""Finite sets, functions, FinSet-valued diagrams, and their (co)limits.

Colimits are computed by union-find over the tagged disjoint union with the
smallest token as canonical representative.  Limits are compatible families,
found by :func:`search`: a backtracking search that checks each constraint as
soon as its variables are assigned.  A constraint that is a function between
two variables (an arrow, such as X(f) between the values at d and c) forces
the later value from the earlier one instead of filtering its pool, as a
join derives a column from a bound relation rather than scanning its domain
(Ngo, Porat, Ré & Rudra, "Worst-case optimal join algorithms", PODS 2012).
The same search enumerates every other kind of compatible family in the
engine (Ran extensions, cones, functors, lax morphisms); a node is one value
assigned to one variable, and it refuses a search that visits more than
``SEARCH_NODE_CAP`` nodes.  Forcing lists the same candidates a filter
would, so node counts and refusals do not depend on it.

A :class:`FinSet` answers membership from a frozenset, and a
:class:`FinFunction`'s ``mapping`` is a read-only view.  A :class:`SetDiagram`
is immutable once built (its sets and functions are read-only views) and
validated at most once; its check compares mappings element by element
instead of building composite functions, and over a checked shape only for
the shape's generators (see :mod:`fibrelab.fincat`).  Cones, cocones and
transformations check the same way, by lookups in the mappings.

Over a checked shape, cones, cocones and transformations of checked diagrams
are certified at the identities and generators only
(:func:`fibrelab.fincat.first_witness`).  Each is a family of squares, one
per morphism f: d -> c: λ_c∘X(f) = λ_d for a cocone, X(f)∘λ_d = λ_c for a
cone, α_c∘X(f) = Y(f)∘α_d for a transformation.  The square at 1_d types
the leg or component at d: a cocone leg is defined on exactly X(d), a cone
leg on exactly its source and into X(d), and a component takes all of X(d)
into Y(d).  With that typing the square at a∘m
(a a generator, m: d -> c, a: c -> c') follows from those at a and m, since
X(a∘m) = X(a)∘X(m) and X(m) lands in X(c):

    cocone:         λ_c'∘X(a)∘X(m) = λ_c∘X(m) = λ_d
    cone:           X(a)∘X(m)∘λ_d = X(a)∘λ_c = λ_c'
    transformation: α_c'∘X(a)∘X(m) = Y(a)∘α_c∘X(m) = Y(a)∘Y(m)∘α_d

and the equalities of sources and targets that a square also asks for are
transitive.  Every morphism is an identity or a∘m with m generated, so by
induction every square holds.  A failed square, or a partial map, sends the
check to the loop over every morphism, which names the first witness.

:func:`colimit_set` of a checked diagram on a checked shape unions along the
generators only.  Its classes are those of e ~ X(f)e over every f, and
X(a∘m)e = X(a)(X(m)e), so by the same induction e and X(f)e are joined by
unions along generators.  The smallest root wins, so each root is the
minimum of its class, and the apex, legs and classify are those of unions
along every morphism.  :func:`restrict` records a pass for X∘F when X and F
passed their checks, as a functor followed by a functor is one.

The compatible-family searches constrain a functorial family along the
morphisms of :func:`constrained_morphisms` only: :func:`limit_set` of a
checked diagram on a checked shape, :func:`fibrelab.kan.ran` over checked
I and J, and :func:`fibrelab.fibrations.natural_families` when its caller
promises functors on a checked shape into a checked E.  A constraint
along m: d -> c asks v_c = X(m)v_d (for natural families, c_c∘top(m) =
bottom(m)∘c_d); the search tests it at its later variable, at position
own(m) = max(pos d, pos c), and lists the values there that pass every
constraint whose variables are all assigned.  The listed morphisms are
the generators and each composite m = a∘r of
:attr:`FinCategory.factorization` (a a generator, r a generator or
earlier in it) whose middle object x = cod r comes after both ends.
Claim: the listed constraints among the variables up to own(m) imply the
one along m.  Generators are listed.  An unlisted m = a∘r has pos x ≤
own(m), so own(a) = max(pos x, pos c) and own(r) = max(pos d, pos x) are
at most own(m); by induction along the factorization the constraints
along a and r hold by then, and

    X(m)v_d = X(a)(X(r)v_d) = X(a)v_x = v_c
    c_c∘top(a∘r) = c_c∘top(a)∘top(r) = bottom(a)∘c_x∘top(r)
                 = bottom(a)∘bottom(r)∘c_d = bottom(a∘r)∘c_d

(the second by associativity in E, with c_x typed from top x to bottom
x).  So every search node lists the candidates that the constraints along
every non-identity morphism list: the same families in the same order,
the same node counts and the same refusals.  Identities need no
constraint, as X(1) = 1.  ``ran`` has one variable per comma object
(i, u: j -> F i), listed by I's objects first, and an arrow from (i1, u)
to (i2, Fm∘u) per m: i1 -> i2; the arrows along a from (x, Fr∘u) and
along r from (i1, u) imply it, as Fa∘(Fr∘u) = Fm∘u, by the same induction
over the places of the comma objects.  When x is one of the ends of m,
that place depends on u, and ``ran`` compares it for each u.  When every
generator goes forward in the order (chains, and posets listed along
their arrows), the middle object of d -> x -> c lies strictly between the
ends, so only the generators are listed, and the factorization is not
read.  An unchecked diagram or shape keeps the constraints along every
non-identity morphism.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    DanglingToken,
    NonUnique,
    NotACoconeError,
    ResourceExceeded,
    ShapeMismatch,
)
from .fincat import first_witness
from .report import failed, passed

SEARCH_NODE_CAP = 10**6
_EXHAUSTED = object()  # no value: an exhausted iterator or a missing key


class UnionFind:
    """Disjoint sets over arbitrary hashable keys, smallest root wins."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        if x not in self.parent:
            self.parent[x] = x
            return x
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        px, py = self.find(x), self.find(y)
        if px != py:
            self.parent[px] = self.parent[py] = min(px, py)

    def named(self, render, what):
        """The name of each member's class, the least ``render`` of its
        members, and the names in order of each class's first member.  Two
        classes of one name are refused, with a member of each, so a
        rendered token never names two classes."""
        roots = [(m, self.find(m)) for m in self.parent]
        least = {}  # root -> (name, member)
        for member, root in roots:
            name = render(member)
            if root not in least or name < least[root][0]:
                least[root] = (name, member)
        owner = {}
        for name, member in least.values():
            other = owner.setdefault(name, member)
            if other != member:
                raise DanglingToken(
                    ("colliding %s tokens" % what, name, other, member)
                )
        return {m: least[root][0] for m, root in roots}, list(owner)


@dataclass(frozen=True)
class FinSet:
    """A finite set: its elements in order, with a frozenset for membership."""

    elements: tuple
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        members = frozenset(elements)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_members", members)
        if len(members) != len(elements):
            seen = set()
            for e in elements:
                if e in seen:
                    raise DanglingToken(("duplicate set element", e))
                seen.add(e)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        try:
            return x in self._members
        except TypeError:  # an unhashable value is no element
            return False

    def __iter__(self):
        return iter(self.elements)


class FinFunction:
    """A function between finite sets; ``mapping`` is a read-only view."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self._mapping = dict(mapping)
        self.mapping = MappingProxyType(self._mapping)

    def __call__(self, x):
        return self._mapping[x]

    def check(self):
        mapping, target = self._mapping, self.target
        for x in self.source:
            if x not in mapping:
                raise ShapeMismatch(("partial function", x))
            if mapping[x] not in target:
                raise ShapeMismatch(("image outside target", x, mapping[x]))
        return self

    def then(self, other):
        """self followed by other."""
        return FinFunction(
            self.source, other.target, {x: other(self(x)) for x in self.source}
        )

    def __eq__(self, other):
        if not isinstance(other, FinFunction):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._mapping == other._mapping
        )

    def __repr__(self):
        return "FinFunction(%r)" % (self._mapping,)


def identity_function(s):
    return FinFunction(s, s, {x: x for x in s})


def _composite(f, g):
    """The values of ``f.then(g)`` in the order of f's source: the lookups
    that ``then`` makes, raising as it does, without building a function."""
    fm, gm = f._mapping, g._mapping
    return [gm[fm[x]] for x in f.source]


def _is_composite(f, g, h):
    """Whether ``f.then(g) == h``, by lookups in the mappings."""
    values = _composite(f, g)
    hm = h._mapping
    return (
        f.source == h.source
        and g.target == h.target
        and len(hm) == len(values)
        and values == [hm.get(x, _EXHAUSTED) for x in f.source]
    )


class SetDiagram:
    """A functor from a finite shape category into finite sets.

    Immutable once built: ``sets`` and ``functions`` are read-only views,
    and :meth:`check` validates at most once.
    """

    def __init__(self, shape, sets, functions):
        self.shape = shape
        self._sets = dict(sets)
        self._functions = dict(functions)
        self.sets = MappingProxyType(self._sets)
        self.functions = MappingProxyType(self._functions)
        self._checked = False

    def fn(self, mor):
        return self._functions[mor]

    def check(self):
        if self._checked:
            return self
        sh, sets, fns = self.shape, self._sets, self._functions
        for a in sh.objects:
            if a not in sets:
                raise ShapeMismatch(("missing set", a))
        for f, d, c in sh.morphisms:
            fn = fns.get(f)
            if fn is None:
                raise ShapeMismatch(("missing function", f))
            if fn.source != sets[d] or fn.target != sets[c]:
                raise ShapeMismatch(("function endpoints", f))
            fn.check()
        # every function is now total on its source, so two mappings on the
        # same source are equal iff they are the same size and agree on it
        for a in sh.objects:
            mapping, elements = fns[sh.identities[a]]._mapping, sets[a]
            if len(mapping) != len(elements):
                raise ShapeMismatch(("identity not preserved", a))
            for x in elements:
                if x not in mapping or mapping[x] != x:
                    raise ShapeMismatch(("identity not preserved", a))
        # over a checked shape, X(a∘f) = X(a)∘X(f) for its generators a
        # proves functoriality; otherwise, or if that fails, every pair
        gens = sh.generators if sh._checked else None
        if gens is None or self._unpreserved(gens) is not None:
            bad = self._unpreserved(sh.mor_tokens)
            if bad is not None:
                raise ShapeMismatch(("composition not preserved",) + bad)
        self._checked = True
        return self

    def _unpreserved(self, outer):
        """The first composable pair (g, f), g from ``outer`` and f in the
        shape's order, whose composite the diagram does not preserve."""
        sh, fns = self.shape, self._functions
        comp, dom, into = sh._composition, sh._dom, sh._into
        for g in outer:
            gn = fns[g]
            gm = gn._mapping
            for f in into.get(dom[g], ()):
                try:
                    gf = comp[(g, f)]
                except KeyError:
                    gf = sh.compose(g, f)
                h, fn = fns[gf], fns[f]
                hm, fm, source, target = h._mapping, fn._mapping, fn.source, gn.target
                if (
                    (h.source is not source and h.source != source)
                    or (h.target is not target and h.target != target)
                    or len(hm) != len(source)
                ):
                    return g, f
                for x in source:
                    if hm[x] != gm[fm[x]]:
                        return g, f
        return None

    def __eq__(self, other):
        if not isinstance(other, SetDiagram):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._sets == other._sets
            and self._functions == other._functions
        )


@dataclass
class SetCocone:
    diagram: SetDiagram
    apex: FinSet
    legs: dict  # object -> FinFunction into the apex
    # internal: (object, element) -> apex element, kept for comparison maps
    classify: dict = field(default_factory=dict)

    def check(self):
        x, legs = self.diagram, self.legs

        def square(f, d, c):
            return None if _is_composite(x.fn(f), legs[c], legs[d]) else (f,)

        bad = first_witness(x.shape, square, x._checked)
        if bad is not None:
            raise NotACoconeError(bad)
        return self


@dataclass
class SetCone:
    diagram: SetDiagram
    apex: FinSet
    legs: dict  # object -> FinFunction out of the apex
    # internal: apex element -> dict object -> element
    families: dict = field(default_factory=dict)

    def check(self):
        x, legs = self.diagram, self.legs

        def square(f, d, c):
            return None if _is_composite(legs[d], x.fn(f), legs[c]) else (f,)

        bad = first_witness(x.shape, square, x._checked)
        if bad is not None:
            raise NotACoconeError(bad)
        return self


class SetNat:
    """A transformation between two SetDiagrams on the same shape."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = dict(components)

    def at(self, obj):
        return self.components[obj]

    def check(self):
        if self.source.shape != self.target.shape:
            raise ShapeMismatch(("transformation across shapes",))
        for a in self.source.shape.objects:
            c = self.components.get(a)
            if c is None:
                raise DanglingToken(("missing component", a))
            if c.source != self.source.sets[a] or c.target != self.target.sets[a]:
                raise ShapeMismatch(("component endpoints", a))
        x, y, components = self.source, self.target, self.components

        def square(f, d, c):
            # top.then(right) == left.then(bottom), read off the mappings
            top, right = x.fn(f), components[c]
            upper = _composite(top, right)
            left, bottom = components[d], y.fn(f)
            if (
                upper == _composite(left, bottom)
                and top.source == left.source
                and right.target == bottom.target
            ):
                return None
            return ("naturality", f)

        bad = first_witness(x.shape, square, x._checked and y._checked)
        if bad is not None:
            raise ShapeMismatch(bad)
        return self

    def __eq__(self, other):
        if not isinstance(other, SetNat):
            return NotImplemented
        return self.components == other.components


# ---------------------------------------------------------------------------
# colimits and limits
# ---------------------------------------------------------------------------


def element_token(obj, elt):
    return "%s.%s" % (obj, elt)


def colimit_set(x):
    """Colimit of a FinSet-valued diagram.

    Apex elements are the union-find classes of the tagged disjoint union,
    keyed by (object, element) and named "object.element" after their
    least member; two classes of one name are refused.
    """
    sh = x.shape
    if x._checked and sh._checked:
        dom, cod = sh._dom, sh._cod
        morphisms = [(g, dom[g], cod[g]) for g in sh.generators]
    else:
        morphisms = sh.morphisms
    uf = UnionFind()
    for a in sh.objects:
        for e in x.sets[a]:
            uf.find((a, e))
    for f, d, c in morphisms:
        fn = x.fn(f)
        for e in x.sets[d]:
            uf.union((d, e), (c, fn(e)))
    # "%s.%s" renders (object, element) as element_token does
    classify, order = uf.named("%s.%s".__mod__, "colimit element")
    apex = FinSet(tuple(order))
    legs = {
        a: FinFunction(x.sets[a], apex, {e: classify[(a, e)] for e in x.sets[a]})
        for a in sh.objects
    }
    return SetCocone(x, apex, legs, classify).check()


def search(variables, candidates):
    """All assignments of ``variables`` that every constraint admits, as
    value tuples in exactly the order of the Cartesian product of the pools.

    ``candidates(var, partial)`` lists, in pool order, the values of ``var``
    that satisfy every constraint whose variables are all in ``partial`` (the
    values of the variables before ``var``) or ``var``.  A node is one value
    assigned to one variable; a value that ``candidates`` rules out, or never
    lists because an arrow forces another (:func:`forward_check`), is no
    node.  The search is iterative; more than ``SEARCH_NODE_CAP`` nodes
    raise ResourceExceeded.
    """
    if not variables:
        return [()]
    found, partial, nodes = [], {}, 0
    stack = [iter(candidates(variables[0], partial))]
    while stack:
        depth = len(stack) - 1
        var = variables[depth]
        value = next(stack[-1], _EXHAUSTED)
        if value is _EXHAUSTED:
            stack.pop()
            partial.pop(var, None)
            continue
        nodes += 1
        if nodes > SEARCH_NODE_CAP:
            raise ResourceExceeded(("search nodes", nodes, SEARCH_NODE_CAP))
        partial[var] = value
        if depth + 1 == len(variables):
            found.append(tuple(partial.values()))
        else:
            stack.append(iter(candidates(variables[depth + 1], partial)))
    return found


def _refuse_free_product(pools):
    """Refuse at once a search without constraints that :func:`search`
    would refuse: it visits every prefix of the product of the pools, so
    Σ_k Π_{i≤k} |pool_i| nodes, and raises as search would at the node
    past ``SEARCH_NODE_CAP``."""
    nodes, prefix = 0, 1
    for pool in pools:
        prefix *= len(pool)
        nodes += prefix
        if nodes > SEARCH_NODE_CAP:
            raise ResourceExceeded(
                ("search nodes", SEARCH_NODE_CAP + 1, SEARCH_NODE_CAP)
            )


def forward_check(pools, constraints=(), arrows=()):
    """The ``candidates`` of :func:`search` over the variables ``list(pools)``
    with values ``pools[var]``, under ``constraints`` and ``arrows``.

    A constraint ``(scope, test)`` holds when ``test`` takes the scope's
    values to a true value; it is checked at its last variable.  An arrow
    ``(d, c, mapping)`` holds when value[c] == mapping[value[d]].  The first
    arrow into c from an earlier variable forces c: its only candidate is
    the pool's value equal to mapping[value[d]], if there is one and it
    passes c's other constraints, so the pool is never scanned.  Every
    other arrow (from a later variable, a self-loop, a second arrow into c)
    is a test at its last variable.  Either way the candidates are the pool
    values that pass every test, in pool order, as a filter of the pool
    would list them.
    """
    position = {v: n for n, v in enumerate(pools)}
    due = {v: [] for v in pools}
    follows = {v: [] for v in pools}
    forced = {}
    for scope, test in constraints:
        due[max(scope, key=position.__getitem__)].append((scope, test))
    for d, c, mapping in arrows:
        if position[d] < position[c] and c not in forced:
            # the pool's own value for each value it holds, so a forced
            # value is listed as the pool lists it
            forced[c] = (d, mapping, {v: v for v in pools[c]})
        else:
            follows[max(d, c, key=position.__getitem__)].append((d, c, mapping))

    def candidates(var, partial):
        if var in forced:
            d, mapping, own = forced[var]
            image = mapping[partial[d]]
            value = own.get(image, _EXHAUSTED)
            if value is _EXHAUSTED or not image == value:
                return ()
            values = (value,)
        else:
            values = pools[var]
        checks = due[var]
        if checks:
            values = [
                value
                for value in values
                if all(
                    test(*[value if s == var else partial[s] for s in scope])
                    for scope, test in checks
                )
            ]
        for d, c, mapping in follows[var]:
            if d == c:
                values = [value for value in values if mapping[value] == value]
            elif d == var:
                values = [value for value in values if mapping[value] == partial[c]]
            else:
                image = mapping[partial[d]]
                values = [value for value in values if image == value]
        return values

    return candidates


def constrained_morphisms(shape, position):
    """The non-identity morphism records (f, d, c) of a checked shape, in
    declaration order, along which a search over its objects, assigned in
    the order ``position``, constrains a functorial family: the generators,
    and each composite a∘r of :attr:`FinCategory.factorization` whose
    middle object cod r comes after both ends.  The constraints along these
    imply every other one as soon as its variables are assigned (see the
    module docstring).  Also returns, as a dict m -> r, the composites
    a∘r whose middle object is their later end, which a search with one
    variable per object need not constrain either.  When every generator
    goes forward in ``position``, every middle object lies strictly
    between the ends, and the factorization is not read."""
    dom, cod = shape._dom, shape._cod
    generators = shape.generators
    listed, tied = set(generators), {}
    if any(position[dom[g]] >= position[cod[g]] for g in generators):
        for m, _, r in shape.factorization:
            ends = max(position[dom[m]], position[cod[m]])
            if position[cod[r]] > ends:
                listed.add(m)
            elif position[cod[r]] == ends:
                tied[m] = r
    return [record for record in shape.morphisms if record[0] in listed], tied


def limit_set(x):
    """Limit of a FinSet-valued diagram: compatible families as tuples.

    The families are found by :func:`search` over the objects in shape
    order, with one arrow ``(d, c, X(f))`` per morphism f: d -> c of
    :func:`constrained_morphisms` when X and its shape passed their checks
    (X must then be a functor), and per non-identity morphism otherwise.
    An arrow from an earlier object forces the value at c from the value
    at d, so the search visits the families and their partial prefixes
    rather than Π|sets|; arrows from later objects and endomorphisms are
    tests.  On a shape without such morphisms the search would visit every
    prefix of the product, so one it would refuse is refused before it
    starts.
    """
    sh = x.shape
    objs = list(sh.objects)
    if x._checked and sh._checked:
        records, _ = constrained_morphisms(sh, {a: n for n, a in enumerate(objs)})
    else:
        records = [r for r in sh.morphisms if not sh.is_identity(r[0])]
    arrows = [(d, c, x.fn(f)._mapping) for f, d, c in records]
    pools = {a: x.sets[a] for a in objs}
    if not arrows:
        _refuse_free_product(pools.values())
    members = []
    families = {}
    for combo in search(objs, forward_check(pools, arrows=arrows)):
        fam = dict(zip(objs, combo))
        tok = "(%s)" % ",".join(element_token(a, fam[a]) for a in objs)
        members.append(tok)
        families[tok] = fam
    apex = FinSet(tuple(members))
    legs = {
        a: FinFunction(apex, x.sets[a], {t: families[t][a] for t in members})
        for a in objs
    }
    return SetCone(x, apex, legs, families).check()


def mediate(colimit, other):
    """The unique map out of a colimit cocone commuting with all legs.

    Raises NotACoconeError if ``other`` is not a cocone and NonUnique if some
    apex element of ``colimit`` is not reached by any leg (so the first
    argument was not actually a colimit).
    """
    if colimit.diagram != other.diagram:
        raise ShapeMismatch(("mediate", "cocones over different diagrams"))
    other.check()
    mapping = {}
    for a in colimit.diagram.shape.objects:
        for e in colimit.diagram.sets[a]:
            rep = colimit.legs[a](e)
            val = other.legs[a](e)
            if rep in mapping and mapping[rep] != val:
                raise NotACoconeError(
                    ("inconsistent identification", a, e, mapping[rep], val)
                )
            mapping[rep] = val
    free = [e for e in colimit.apex if e not in mapping]
    if free:
        raise NonUnique(("unreached apex elements", free))
    return FinFunction(colimit.apex, other.apex, mapping).check()


def is_bijection(h):
    h.check()
    hit = {}
    for x in h.source:
        y = h(x)
        if y in hit:
            return failed(
                "is_bijection",
                {"collision": [hit[y], x, y]},
                source=len(h.source),
                target=len(h.target),
            )
        hit[y] = x
    unhit = [y for y in h.target if y not in hit]
    if unhit:
        return failed(
            "is_bijection",
            {"unhit": unhit},
            source=len(h.source),
            target=len(h.target),
        )
    return passed("is_bijection", size=len(h.source))


def restrict(x, f):
    """Precompose the diagram X on K with a functor F: J -> K; the result
    is checked when X and F are."""
    if f.target != x.shape:
        raise ShapeMismatch(("restrict", "diagram shape differs from F target"))
    xf = SetDiagram(
        f.source,
        {a: x.sets[f.ob(a)] for a in f.source.objects},
        {m: x.functions[f.mor(m)] for m in f.source.mor_tokens},
    )
    # a functor followed by a functor is a functor
    xf._checked = x._checked and f._checked
    return xf


def constant_diagram(shape, s):
    return SetDiagram(
        shape,
        {a: s for a in shape.objects},
        {m: identity_function(s) for m in shape.mor_tokens},
    )
