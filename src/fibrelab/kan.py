"""Pointwise Kan extensions of FinSet-valued diagrams, and the joint-Kan
factorization used by the general colimit decomposition.

``lan`` and ``ran`` check their inputs first (the checks are memoised),
and each takes one path.  (Lan_F X)(j), the colimit of X over F↓j, is a
union-find over the tuples (i, u: F i -> j, e in X(i)), united along the
generators of I.
(Ran_F X)(j), the compatible families over j↓F, is found by the
backtracking search of :func:`fibrelab.finset.search`.  Elements are
tokens glued from strings (``i|u|e``, ``(i|u.e,...)``) and may hold the
separators, so two classes or families of one token are refused
(DanglingToken) rather than merged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DanglingToken,
    IncompatibleFamily,
    NaturalityFailure,
    NoSolution,
    ShapeMismatch,
)
from .fincat import first_witness
from .finset import (
    FinFunction,
    FinSet,
    SetDiagram,
    SetNat,
    UnionFind,
    constrained_morphisms,
    forward_check,
    search,
)


@dataclass
class KanResult:
    extension: SetDiagram  # on the codomain shape
    # left: i -> FinFunction X(i) -> L(F i); right: i -> FinFunction R(F i) -> X(i)
    unit_or_counit: dict
    # left case only: j -> {(i, u, x): apex element}, the comma-level classes
    classify: dict = field(default_factory=dict)


def lan(f, x):
    """Pointwise left Kan extension of X: I -> FinSet along F: I -> J.

    (Lan_F X)(j) is a union-find over the tuples (i, u: F i -> j, e in
    X(i)) that unites (i1, u∘Fm, e) with (i2, u, X(m)(e)) for each
    generator m: i1 -> i2 of I.  That suffices: for m = a∘r the unions
    along r at u∘Fa and along a at u join the same two tuples, as F and X
    are functors and J is associative.  Each class is named by its least
    ``i|u|e``, and two classes of one name are refused (DanglingToken).
    The unit is certified at the generators
    (:func:`fibrelab.fincat.first_witness`).
    """
    if x.shape != f.source:
        raise ShapeMismatch(("lan", "diagram not on the source of F"))
    i_cat, j_cat = f.source.check(), f.target.check()
    x.check()
    f.check()
    classify, sets = {}, {}
    for j in j_cat.objects:
        uf = UnionFind()
        for i in i_cat.objects:
            for u in j_cat.hom(f.ob(i), j):
                for e in x.sets[i]:
                    uf.find((i, u, e))
        for m in i_cat.generators:
            i1, i2, fm, xm = i_cat.dom(m), i_cat.cod(m), f.mor(m), x.fn(m)
            for u2 in j_cat.hom(f.ob(i2), j):
                u1 = j_cat.compose(u2, fm)
                for e in x.sets[i1]:
                    uf.union((i1, u1, e), (i2, u2, xm(e)))
        classify[j], order = uf.named("%s|%s|%s".__mod__, "lan element")
        sets[j] = FinSet(tuple(order))
    functions = {}
    for v in j_cat.mor_tokens:
        j1, j2 = j_cat.dom(v), j_cat.cod(v)
        mapping = {}
        for (i, u, e), rep in classify[j1].items():
            mapping.setdefault(rep, classify[j2][(i, j_cat.compose(v, u), e)])
        functions[v] = FinFunction(sets[j1], sets[j2], mapping)
    ext = SetDiagram(j_cat, sets, functions).check()
    unit = {}
    for i in i_cat.objects:
        fi = f.ob(i)
        unit[i] = FinFunction(
            x.sets[i],
            sets[fi],
            {e: classify[fi][(i, j_cat.id_of(fi), e)] for e in x.sets[i]},
        )

    def square(m, i1, i2):
        # unit naturality: κ is a transformation X -> L∘F
        if x.fn(m).then(unit[i2]) != unit[i1].then(ext.fn(f.mor(m))):
            return m

    bad = first_witness(i_cat, square, True)
    if bad is not None:
        raise NaturalityFailure(("lan unit naturality", bad))
    return KanResult(ext, unit, classify)


def ran(f, x):
    """Pointwise right Kan extension: compatible families over j↓F.

    I, J, F and X are checked first.  (Ran_F X)(j) is the limit of X∘π
    over j↓F, found by :func:`search` over the comma objects
    (i, u: j -> F i) in the order of I's objects.  A morphism m: i1 -> i2
    of I gives the arrow (i1, u) -> (i2, Fm∘u) along X(m).  An arrow from
    an earlier comma object forces the value at the later one; arrows from
    later objects and self-loops (endomorphisms with Fm∘u = u) are tests.
    The arrows run along the morphisms of
    :func:`fibrelab.finset.constrained_morphisms` only, which imply the
    others at the same search nodes (proof in :mod:`fibrelab.finset`).
    The extension has a derived certificate (see :mod:`fibrelab.fincat`).
    Elements may contain the separators of a family token, so two families
    of one token are refused (DanglingToken) instead of merged.
    """
    if x.shape != f.source:
        raise ShapeMismatch(("ran", "diagram not on the source of F"))
    i_cat, j_cat = f.source.check(), f.target.check()
    x.check()
    f.check()
    compose, f_ob, f_mor = j_cat.compose, f.ob, f.mor
    # comma objects are listed by I's objects first, so a composite a∘r
    # whose middle object cod r is one of its ends is decided for each u:
    # by the place of the middle comma object (cod r, Fr∘u)
    place = {i: n for n, i in enumerate(i_cat.objects)}
    records, tied = constrained_morphisms(i_cat, place)
    listed = {m for m, _, _ in records}.union(tied)
    morphisms = [record for record in i_cat.morphisms if record[0] in listed]
    along = [(m, i1, i2, f_mor(m), x.fn(m)._mapping) for m, i1, i2 in morphisms]
    sets, families, nodes, index = {}, {}, {}, {}
    for j in j_cat.objects:
        # comma objects (i, u: j -> F i); m: i1 -> i2 sends (i1, u) to
        # (i2, Fm∘u), and a family must follow X(m) along it: an arrow
        homs = {i: j_cat.hom(j, f_ob(i)) for i in i_cat.objects}
        nodes[j] = [(i, u) for i in i_cat.objects for u in homs[i]]
        if tied:
            position = {node: n for n, node in enumerate(nodes[j])}
        arrows = []
        for m, i1, i2, fm, mapping in along:
            for u in homs[i1]:
                d, c = (i1, u), (i2, compose(fm, u))
                if m in tied:
                    r = tied[m]
                    middle = (i_cat.cod(r), compose(f_mor(r), u))
                    if position[middle] <= max(position[d], position[c]):
                        continue
                arrows.append((d, c, mapping))
        pools = {(i, u): x.sets[i] for i, u in nodes[j]}
        toks, index[j] = {}, {}
        combos = search(nodes[j], forward_check(pools, arrows=arrows))
        for combo in combos:
            tok = "(%s)" % ",".join(
                "%s|%s.%s" % (i, u, e) for (i, u), e in zip(nodes[j], combo)
            )
            if tok in toks:
                # elements may contain the separators, so two families can
                # render to one token: refuse rather than merge them
                other = tuple(toks[tok].values())
                raise DanglingToken(("colliding family tokens", j, tok, other, combo))
            toks[tok] = dict(zip(nodes[j], combo))
            index[j][combo] = tok
        sets[j] = FinSet(tuple(toks))
        families[j] = toks
    functions = {}
    for v in j_cat.mor_tokens:
        j1, j2 = j_cat.dom(v), j_cat.cod(v)
        # restrict a family over j1 along u ↦ u∘v
        along_v = [(i, compose(u, v)) for i, u in nodes[j2]]
        mapping = {}
        for tok, fam in families[j1].items():
            mapping[tok] = index[j2][tuple([fam[node] for node in along_v])]
        functions[v] = FinFunction(sets[j1], sets[j2], mapping)
    ext = SetDiagram(j_cat, sets, functions)
    # restriction along u ↦ u∘v is a functor by J's axioms, and the family
    # tokens are distinct
    ext._checked = True
    counit = {}
    for i in i_cat.objects:
        fi = f.ob(i)
        counit[i] = FinFunction(
            sets[fi],
            x.sets[i],
            {
                tok: fam[(i, j_cat.id_of(fi))]
                for tok, fam in families[fi].items()
            },
        )
    return KanResult(ext, counit, families)


def joint_lan_factor(phi, k_cat, k_legs, x_family, phi_maps, x, injections, y, mu):
    """Solve for the unique β: X -> Y determined by a compatible family μ.

    Inputs: a Cat-valued diagram Φ on D with colimit legs K_d: Φd -> K; set
    diagrams X_d on Φd with transition components φ^u; X on K together with
    injection components ι_d: X_d -> X∘K_d presenting X as the joint left
    Kan extension; a target Y on K and a family μ_d: X_d -> Y∘K_d.

    Precondition (checked): μ_e(Φu)·φ^u = μ_d for every u: d -> e.  The
    solver seeds β on injected elements and propagates it along the
    generators of K: β_k2(X(m)(x)) = Y(m)(β_k1(x)).  Every morphism of K is
    an identity or a composite of generators, and X and Y are functors, so
    the propagation along every morphism would reach the same elements
    with the same values.  Two seeds or pushes that disagree, or an
    element left unreached, raise NoSolution; the transformation that
    results is certified by :meth:`SetNat.check`.
    """
    sh = phi.shape
    for u, d, e in sh.morphisms:
        t = phi.transition(u)
        for i in phi.fibre(d).objects:
            if phi_maps[u][i].then(mu[e][t.ob(i)]) != mu[d][i]:
                raise IncompatibleFamily((u, i))
    beta = {kk: {} for kk in k_cat.objects}
    for d in sh.objects:
        for i in phi.fibre(d).objects:
            kd_i = k_legs[d].ob(i)
            for el in x_family[d].sets[i]:
                tgt = injections[d][i](el)
                val = mu[d][i](el)
                prev = beta[kd_i].get(tgt)
                if prev is not None and prev != val:
                    raise NoSolution(
                        ("conflicting seeds", kd_i, tgt, prev, val)
                    )
                beta[kd_i][tgt] = val
    changed = True
    while changed:
        changed = False
        for m in k_cat.generators:
            k1, k2 = k_cat.dom(m), k_cat.cod(m)
            for el, val in list(beta[k1].items()):
                tgt = x.fn(m)(el)
                new = y.fn(m)(val)
                prev = beta[k2].get(tgt)
                if prev is None:
                    beta[k2][tgt] = new
                    changed = True
                elif prev != new:
                    raise NoSolution(("conflict", m, k1, el, prev, new))
    for kk in k_cat.objects:
        for el in x.sets[kk]:
            if el not in beta[kk]:
                raise NoSolution(("free element", kk, el))
    components = {
        kk: FinFunction(x.sets[kk], y.sets[kk], beta[kk])
        for kk in k_cat.objects
    }
    return SetNat(x, y, components).check()
