"""Thin categories are certified by typing; the generator path they skip
lives on here as the oracle.

In a thin category every hom-set has at most one morphism, so once the
composites are correctly typed both sides of an associativity triple are
the one morphism of their hom-set: ``FinCategory.check`` runs no Light's
test.  If the category is moreover a poset, its indecomposable
non-identities generate it, and the closure is not run either.  A functor
between checked categories into a thin target that preserves endpoints
preserves composites, so ``FinFunctor.certified`` runs no generator test.

``old_check``, ``old_factorization`` and ``old_certified`` are the code
these replaced.  On random posets, thin preorders with 2-cycles, products,
Grothendieck totals, free cofibrations and the non-thin fixtures (S3, Z2,
Z3, PAIR), with and without one corrupted table entry, old and new must
agree on the outcome (pass, or the exception class and its witness), the
generating set and the factorization.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.errors import (
    AssociativityViolation,
    DanglingToken,
    FibrelabError,
    IdentityViolation,
    MissingComposite,
    ShapeMismatch,
)
from fibrelab.fibrations import free_cofibration
from fibrelab.fincat import FinCategory, FinFunctor, category, product
from fibrelab.grothendieck import groth_co
from fibrelab.randgen import (
    chain,
    random_cat_diagram,
    random_monotone_functor,
    random_poset,
)
from test_golden_reports import halving_bifibration

CATS = fixtures.all_categories()


# -- the generator path for every category, kept as the oracle ----------------

def old_check(c):
    """FinCategory.check before the thin and poset certificates, on an
    unchecked category: validation, the greedy generating set, Light's test
    and, if it fails, the loop over every triple.  Returns the generating
    set."""
    objset = set(c.objects)
    if len(objset) != len(c.objects):
        raise DanglingToken(("duplicate object token", c.objects))
    morset = set(c.mor_tokens)
    if len(morset) != len(c.morphisms):
        raise DanglingToken(("duplicate morphism token", c.mor_tokens))
    for t, d, e in c.morphisms:
        if d not in objset or e not in objset:
            raise DanglingToken(("morphism endpoints undeclared", t, d, e))
    dom, cod, identity = c._dom, c._cod, c.identities
    for a in c.objects:
        i = identity.get(a)
        if i is None or i not in morset:
            raise DanglingToken(("missing identity", a))
        if dom[i] != a or cod[i] != a:
            raise IdentityViolation(("identity endpoints", a, i))
    comp = c._composition
    for (g, f), gf in comp.items():
        if g not in morset or f not in morset or gf not in morset:
            raise DanglingToken(("composition entry", g, f, gf))
        if cod[f] != dom[g]:
            raise DanglingToken(("entry for non-composable pair", g, f))
        if dom[gf] != dom[f] or cod[gf] != cod[g]:
            raise IdentityViolation(("dom/cod of composite", g, f, gf))
    into = c._into
    if len(comp) != sum(len(into[dom[g]]) for g in c.mor_tokens):
        for g, f in c.composable_pairs():
            if (g, f) not in comp:
                raise MissingComposite((g, f))
    for f in c.mor_tokens:
        if comp[(identity[cod[f]], f)] != f:
            raise IdentityViolation(("left identity", f))
        if comp[(f, identity[dom[f]])] != f:
            raise IdentityViolation(("right identity", f))
    gens = old_generating_set(c)
    if not old_associative_at(c, gens):
        for h in c.mor_tokens:
            for g in into[dom[h]]:
                hg = comp[(h, g)]
                for f in into[dom[g]]:
                    if comp[(h, comp[(g, f)])] != comp[(hg, f)]:
                        raise AssociativityViolation((h, g, f))
    return gens


def old_generating_set(c):
    comp, dom, cod = c._composition, c._dom, c._cod
    ids = {c.identities[a] for a in c.objects}
    decomposable = {
        gf for (g, f), gf in comp.items() if g not in ids and f not in ids
    }
    reached = set(ids)
    reached_into = {a: [c.identities[a]] for a in c.objects}
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

    add([m for m in c.mor_tokens if m not in ids and m not in decomposable])
    for m in c.mor_tokens:
        if m not in reached:
            add([m])
    return tuple(gens)


def old_associative_at(c, middles):
    comp, dom, cod = c._composition, c._dom, c._cod
    for g in middles:
        fs = c._into[dom[g]]
        gfs = [comp[(g, f)] for f in fs]
        for h in c._out_of[cod[g]]:
            hg = comp[(h, g)]
            if [comp[(h, gf)] for gf in gfs] != [comp[(hg, f)] for f in fs]:
                return False
    return True


def old_factorization(c, gens):
    comp, dom, cod = c._composition, c._dom, c._cod
    gens_out = {}
    for a in gens:
        gens_out.setdefault(dom[a], []).append(a)
    known = {*c._identity_tokens, *gens}
    work, factors = list(gens), []
    for r in work:
        for a in gens_out.get(cod[r], ()):
            m = comp[(a, r)]
            if m not in known:
                known.add(m)
                factors.append((m, a, r))
                work.append(m)
    return tuple(factors)


def old_certified(fun):
    """FinFunctor.certified before the thin target certificate: the map
    checks, then the generator test between checked categories."""
    src, tgt = fun.source, fun.target
    obs, mors = fun.on_objects, fun.on_morphisms
    target_objects = set(tgt.objects)
    for a in src.objects:
        if a not in obs:
            raise DanglingToken(("functor misses object", a))
        if obs[a] not in target_objects:
            raise DanglingToken(("functor image object undeclared", a))
    for f, d, c in src.morphisms:
        if f not in mors:
            raise DanglingToken(("functor misses morphism", f))
        ff = mors[f]
        if not tgt.has_mor(ff):
            raise DanglingToken(("functor image morphism undeclared", f))
        if tgt.dom(ff) != obs[d]:
            raise ShapeMismatch(("dom not preserved", f))
        if tgt.cod(ff) != obs[c]:
            raise ShapeMismatch(("cod not preserved", f))
    for a in src.objects:
        if mors[src.identities[a]] != tgt.identities[obs[a]]:
            raise ShapeMismatch(("identity not preserved", a))
    if not (src._checked and tgt._checked):
        return False
    return fun._unpreserved(src.generators) is None


def oracle_is_thin(c):
    return all(len(c.hom(x, y)) <= 1 for x in c.objects for y in c.objects)


def oracle_is_poset(c):
    """Thin, and no two distinct objects with arrows both ways."""
    for x in c.objects:
        for y in c.objects:
            if len(c.hom(x, y)) > 1:
                return False
            if x != y and c.hom(x, y) and c.hom(y, x):
                return False
    return True


# -- inputs -------------------------------------------------------------------

def random_preorder(rng, max_objects=4, prefix="r"):
    """A random thin category with a 2-cycle: the reflexive-transitive
    closure of a random relation that holds both ways between two objects
    (so it is a preorder and no poset)."""
    n = rng.randint(2, max_objects)
    elems = ["%s%d" % (prefix, i) for i in range(n)]
    x, y = rng.sample(elems, 2)
    leq = {(e, e) for e in elems} | {(x, y), (y, x)}
    leq |= {(a, b) for a in elems for b in elems if rng.random() < 0.3}
    changed = True
    while changed:
        closure = {(a, d) for a, b in leq for c, d in leq if b == c}
        changed = not closure <= leq
        leq |= closure
    tok = {
        (a, b): "id%s" % a if a == b else "%s<%s" % (a, b)
        for a in elems
        for b in elems
        if (a, b) in leq
    }
    composition = {
        (g, f): tok[(a, c)]
        for (a, b), f in tok.items()
        for (b2, c), g in tok.items()
        if b2 == b
    }
    return category(
        elems,
        [(t, a, b) for (a, b), t in tok.items()],
        {e: tok[(e, e)] for e in elems},
        composition,
    )


def _poset(rng):
    return random_poset(rng, 5)


def _preorder(rng):
    return random_preorder(rng, 4)


def _product(rng):
    parts = [random_poset(rng, 3, "p"), random_poset(rng, 3, "q"),
             random_preorder(rng, 3), chain(rng.randint(1, 4)),
             CATS[rng.choice(sorted(CATS))]]
    return product(rng.choice(parts), rng.choice(parts))


def _total(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return groth_co(random_cat_diagram(rng, 3)).total
    phi = halving_bifibration(rng.choice(("TWO", "SPAN", "PAIR")), rng.randint(2, 4))
    if kind == 1:
        return groth_co(phi).total
    return free_cofibration(groth_co(phi).projection).result.total


def _non_thin(rng):
    """A non-thin fixture, alone or times a chain (so that a composite can
    be mistyped even when the fixture has one object)."""
    c = CATS[rng.choice(("S3", "Z2", "Z3", "PAIR"))]
    return c if rng.random() < 0.5 else product(c, chain(rng.randint(2, 3)))


SOURCES = {
    "poset": _poset,
    "preorder": _preorder,
    "product": _product,
    "total": _total,
    "non-thin": _non_thin,
}


def _fresh(c):
    return FinCategory(c.objects, c.morphisms, c.identities, c.composition)


# -- corruptions of one table entry -------------------------------------------

def _mistyped(rng, c, table):
    key = rng.choice(sorted(table))
    g, f = key
    wrong = [m for m in c.mor_tokens
             if (c.dom(m), c.cod(m)) != (c.dom(f), c.cod(g))]
    if wrong:
        table[key] = rng.choice(wrong)


def _missing(rng, c, table):
    del table[rng.choice(sorted(table))]


def _identity_law(rng, c, table):
    f = rng.choice(c.mor_tokens)
    key = rng.choice([(c.id_of(c.cod(f)), f), (f, c.id_of(c.dom(f)))])
    table[key] = rng.choice([m for m in c.mor_tokens if m != f] or [f])


CORRUPTIONS = {
    "none": lambda rng, c, table: None,
    "mistyped composite": _mistyped,
    "missing entry": _missing,
    "broken identity law": _identity_law,
}


def _outcome(check, c):
    try:
        return "pass", check(c)
    except FibrelabError as exc:
        return type(exc), exc.args


def _compare(source, corruption, seed):
    """Check one input both ways; returns whether it passed and whether the
    corruption changed its table."""
    rng = random.Random(seed)
    valid = SOURCES[source](rng)
    table = dict(valid.composition)
    CORRUPTIONS[corruption](rng, valid, table)
    c = FinCategory(valid.objects, valid.morphisms, valid.identities, table)
    new = _outcome(lambda d: d.check().generators, c)
    old = _outcome(old_check, _fresh(c))
    assert new == old, (source, corruption, seed)
    if new[0] == "pass":
        assert c.factorization == old_factorization(c, old[1])
        assert c._thin == oracle_is_thin(c)
        assert c.op._thin == c._thin and c.op.generators is c.generators
    return new[0] == "pass", table != valid.composition


CASES = [(s, k) for s in SOURCES for k in CORRUPTIONS]


@pytest.mark.parametrize("source, corruption", CASES)
@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_check_agrees_with_the_generator_path(source, corruption, seed):
    _compare(source, corruption, seed)


@pytest.mark.parametrize("source, corruption", CASES)
def test_every_corruption_is_caught_and_every_input_passes(source, corruption):
    """A table passes iff it is the valid one; most corruptions change it."""
    outcomes = [_compare(source, corruption, seed) for seed in range(30)]
    assert all(passed != changed for passed, changed in outcomes)
    changes = sum(changed for _, changed in outcomes)
    assert changes == 0 if corruption == "none" else changes >= 15


# -- which path each category takes ---------------------------------------------

def _calls(monkeypatch, name):
    calls = []
    orig = getattr(FinCategory, name)

    def counted(self, *args):
        calls.append(self)
        return orig(self, *args)

    monkeypatch.setattr(FinCategory, name, counted)
    return calls


THIN_POSET = (True, True)
THIN = (True, False)
NON_THIN = (False, False)
KINDS = {
    "poset": {THIN_POSET},
    "preorder": {THIN},
    "product": {THIN_POSET, THIN, NON_THIN},
    "total": {THIN_POSET, NON_THIN},
    "non-thin": {NON_THIN},
}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_thin_categories_skip_lights_test_and_posets_the_closure(
    monkeypatch, source
):
    closures = _calls(monkeypatch, "_generating_set")
    lights = _calls(monkeypatch, "_associative_at")
    kinds = set()
    for seed in range(30):
        c = _fresh(SOURCES[source](random.Random(seed)))
        thin, poset = oracle_is_thin(c), oracle_is_poset(c)
        kinds.add((thin, poset))
        del closures[:], lights[:]
        c.check()
        assert closures == ([] if poset else [c]), seed
        assert lights == ([] if thin else [c]), seed
    assert kinds == KINDS[source]


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_posets_are_posets_and_preorders_are_not(seed):
    rng = random.Random(seed)
    assert oracle_is_poset(random_poset(rng))
    preorder = random_preorder(rng)
    assert oracle_is_thin(preorder) and not oracle_is_poset(preorder)


# -- functors into thin targets -------------------------------------------------

def _thin_functor(rng):
    """A functor between checked categories into a thin target: monotone maps of posets and preorders, projections of
    Grothendieck totals onto their thin bases, fibre injections into thin
    totals."""
    kind = rng.randrange(3)
    if kind == 0:
        src = rng.choice((random_poset(rng, 4, "s"), random_preorder(rng, 3, "s")))
        tgt = rng.choice((random_poset(rng, 4, "t"), random_preorder(rng, 3, "t")))
        return random_monotone_functor(rng, src, tgt)
    gr = groth_co(halving_bifibration(rng.choice(("TWO", "SPAN")), rng.randint(2, 4)))
    if kind == 1:
        return gr.projection
    return rng.choice(list(gr.injections.values()))


def _unchecked(fun, on_morphisms=None):
    return FinFunctor(
        fun.source, fun.target, fun.on_objects,
        dict(fun.on_morphisms) if on_morphisms is None else on_morphisms,
    )


def _changed_image(rng, fun):
    f = rng.choice(fun.source.mor_tokens)
    return _unchecked(fun, {**fun.on_morphisms, f: rng.choice(fun.target.mor_tokens)})


def _changed_object(rng, fun):
    """Every morphism out of one object sent along with its new image, so
    only the images of morphisms into it can break."""
    a = rng.choice(fun.source.objects)
    obs = {**fun.on_objects, a: rng.choice(fun.target.objects)}
    return FinFunctor(fun.source, fun.target, obs, fun.on_morphisms)


FUNCTOR_CORRUPTIONS = {
    "none": lambda rng, fun: _unchecked(fun),
    "changed image": _changed_image,
    "changed object": _changed_object,
}


@pytest.mark.parametrize("corruption", sorted(FUNCTOR_CORRUPTIONS))
@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_certified_into_thin_targets_agrees_with_every_pair(corruption, seed):
    rng = random.Random(seed)
    fun = FUNCTOR_CORRUPTIONS[corruption](rng, _thin_functor(rng))
    assert oracle_is_thin(fun.target)
    assert fun.source._checked and fun.target._checked
    new = _outcome(FinFunctor.certified, fun)
    old = _outcome(old_certified, _unchecked(fun))
    assert new == old, seed
    if new[0] == "pass":
        assert new[1] is True
        assert fun._unpreserved(fun.source.mor_tokens) is None


def test_certified_into_a_thin_target_runs_no_pair(monkeypatch):
    fun = _unchecked(groth_co(halving_bifibration("SPAN", 4)).projection)
    calls = []
    monkeypatch.setattr(
        FinFunctor, "_unpreserved", lambda self, outer: calls.append(outer)
    )
    assert fun.certified() and fun.check() is fun
    assert calls == []
