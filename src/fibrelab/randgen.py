"""Seeded random instances for the verification suites.

Everything here is built so that validity is automatic rather than filtered:
fibres are finite posets (so any monotone object map extends uniquely to a
functor), set diagrams are coproducts of representables and constants (so
functoriality is inherited from composition), and bifibrations use chain
fibres with bottom-preserving monotone transitions (which always have right
adjoints).
"""
from __future__ import annotations

from . import fixtures
from .errors import ShapeMismatch, UnverifiedCleavage
from .fincat import FinFunctor, category
from .finset import FinFunction, FinSet, SetDiagram
from .grothendieck import CatDiagram, groth_co, guitart_hat


# -- posets as categories ----------------------------------------------------

def poset_category(elements, leq, name=""):
    """The category of a finite poset; one morphism x -> y whenever leq(x, y)."""
    elements = list(elements)
    morphisms, identities, composition = [], {}, {}
    tok = {}
    for x in elements:
        for y in elements:
            if leq(x, y):
                t = "%s<%s" % (x, y) if x != y else "id%s" % x
                tok[(x, y)] = t
                morphisms.append((t, x, y))
                if x == y:
                    identities[x] = t
    for (x, y), f in tok.items():
        for (y2, z), g in tok.items():
            if y2 == y:
                composition[(g, f)] = tok[(x, z)]
    return category(elements, morphisms, identities, composition, name)


def chain(n):
    """The linear order 0 < 1 < ... < n-1 as a category."""
    elems = ["c%d" % i for i in range(n)]
    rank = {e: i for i, e in enumerate(elems)}
    return poset_category(elems, lambda x, y: rank[x] <= rank[y])


def random_poset(rng, max_objects=4, prefix="p"):
    """A random finite poset, generated as the reflexive-transitive closure
    of a random relation on a linearly ordered carrier (so antisymmetry is
    free)."""
    n = rng.randint(1, max_objects)
    elems = ["%s%d" % (prefix, i) for i in range(n)]
    below = {e: {e} for e in elems}
    for j in range(n):
        for i in range(j):
            if rng.random() < 0.4:
                below[elems[j]] |= below[elems[i]]
    # transitive closure
    changed = True
    while changed:
        changed = False
        for e in elems:
            extra = set()
            for b in below[e]:
                extra |= below[b]
            if not extra <= below[e]:
                below[e] |= extra
                changed = True
    return poset_category(elems, lambda x, y: x in below[y])


def monotone_functor(src, tgt, on_objects):
    """Extend a monotone object map between poset categories to a functor."""
    on_morphisms = {}
    for f, x, y in src.morphisms:
        hom = tgt.hom(on_objects[x], on_objects[y])
        if not hom:
            raise ShapeMismatch(("not monotone", f))
        on_morphisms[f] = hom[0]
    return FinFunctor(src, tgt, on_objects, on_morphisms).check()


def random_monotone_functor(rng, src, tgt):
    """A uniformly random monotone map src -> tgt, built object by object."""
    for _ in range(50):
        on_objects = {}
        ok = True
        for x in src.objects:
            candidates = [
                y
                for y in tgt.objects
                if all(
                    tgt.hom(on_objects[z], y)
                    for z in on_objects
                    if src.hom(z, x)
                )
                and all(
                    tgt.hom(y, on_objects[z])
                    for z in on_objects
                    if src.hom(x, z)
                )
            ]
            if not candidates:
                ok = False
                break
            on_objects[x] = rng.choice(candidates)
        if ok:
            return monotone_functor(src, tgt, on_objects)
    # fall back to a constant map, which is always monotone
    y = rng.choice(tgt.objects)
    return monotone_functor(src, tgt, {x: y for x in src.objects})


# -- Cat-valued diagrams -----------------------------------------------------

BASE_SHAPES = ("ONE", "TWO", "SPAN", "PAIR", "PUSH3")


def random_cat_diagram(rng, max_fibre_objects=4, bases=BASE_SHAPES):
    """A random strict covariant CatDiagram with poset fibres over a fixture
    base.  Functor equations forced by base composites are satisfied by
    construction (the only base composite among the fixtures is in push3)."""
    base_name = rng.choice(list(bases))
    base = fixtures.all_categories()[base_name]
    fibres = {
        d: random_poset(rng, max_fibre_objects, prefix="%s_" % d)
        for d in base.objects
    }
    transitions = {}
    for u in base.mor_tokens:
        if base.is_identity(u):
            continue
        transitions[u] = random_monotone_functor(
            rng, fibres[base.dom(u)], fibres[base.cod(u)]
        )
    if base_name == "PUSH3":
        from .fincat import compose_functor

        transitions["ba"] = compose_functor(transitions["b"], transitions["a"])
    return CatDiagram(base, fibres, transitions, "covariant")


# -- Set-valued diagrams -----------------------------------------------------

def representable_diagram(shape, c):
    """The representable Hom(c, -) as a SetDiagram on the shape."""
    sets = {d: FinSet(tuple(shape.hom(c, d))) for d in shape.objects}
    functions = {}
    for m in shape.mor_tokens:
        d, e = shape.dom(m), shape.cod(m)
        functions[m] = FinFunction(
            sets[d], sets[e], {f: shape.compose(m, f) for f in sets[d]}
        )
    return SetDiagram(shape, sets, functions).check()


def coproduct_diagrams(shape, parts):
    """Disjoint union of set diagrams on a common shape, with tagged tokens."""
    sets, functions = {}, {}
    for d in shape.objects:
        toks = []
        for idx, p in enumerate(parts):
            toks.extend("%d#%s" % (idx, e) for e in p.sets[d])
        sets[d] = FinSet(tuple(toks))
    for m in shape.mor_tokens:
        d, e = shape.dom(m), shape.cod(m)
        mapping = {}
        for idx, p in enumerate(parts):
            for el in p.sets[d]:
                mapping["%d#%s" % (idx, el)] = "%d#%s" % (idx, p.fn(m)(el))
        functions[m] = FinFunction(sets[d], sets[e], mapping)
    return SetDiagram(shape, sets, functions).check()


def random_set_diagram(rng, shape, max_parts=3):
    """A random SetDiagram on any shape: a coproduct of representables and
    constant singletons (functoriality is inherited, never searched for)."""
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        if rng.random() < 0.6:
            parts.append(representable_diagram(shape, rng.choice(shape.objects)))
        else:
            from .finset import constant_diagram

            parts.append(constant_diagram(shape, FinSet(("*",))))
    return coproduct_diagrams(shape, parts)


def random_diag_family(rng, max_fibre_objects=3, bases=("ONE", "TWO", "SPAN")):
    """A random DiagFamily, as the hat of a random set diagram on a random
    Grothendieck total (so the lax compatibility laws hold by construction)."""
    phi = random_cat_diagram(rng, max_fibre_objects, bases)
    t = random_set_diagram(rng, groth_co(phi).total)
    return guitart_hat(phi, t), phi, t


# -- bifibrations ------------------------------------------------------------

def random_bifibration(rng, max_fibre_objects=4, bases=("TWO", "SPAN", "PAIR")):
    """A random split bifibration: chain fibres over a fixture base, with
    bottom-preserving monotone transitions (these always have right
    adjoints).  Returns (theta, delta, grothendieck result)."""
    from .fibrations import cleavage_from_groth, search_cleavage

    base_name = rng.choice(list(bases))
    base = fixtures.all_categories()[base_name]
    fibres = {d: chain(rng.randint(1, max_fibre_objects)) for d in base.objects}
    transitions = {}
    for u in base.mor_tokens:
        if base.is_identity(u):
            continue
        src, tgt = fibres[base.dom(u)], fibres[base.cod(u)]
        n, m = len(src.objects), len(tgt.objects)
        img = [0]
        for _ in range(n - 1):
            img.append(min(m - 1, img[-1] + rng.randint(0, 1)))
        transitions[u] = monotone_functor(
            src, tgt, {"c%d" % i: "c%d" % img[i] for i in range(n)}
        )
    phi = CatDiagram(base, fibres, transitions, "covariant")
    gr = groth_co(phi)
    delta = cleavage_from_groth(gr)
    theta = search_cleavage(gr.projection, "fibration")
    if theta is None:
        # bottom-preserving monotone maps of chains have right adjoints
        raise UnverifiedCleavage(("no cleavage of chain transitions", base_name))
    return theta, delta, gr
