"""Pointwise Kan extensions of FinSet-valued diagrams, and the joint-Kan
factorization used by the general colimit decomposition.

Left Kan extensions are computed pointwise: (Lan_F X)(j) is the colimit of X
over the comma category F↓j, realised directly by union-find over triples
(i, u: F i -> j, element of X(i)).  Right Kan extensions dually are the
compatible families over j↓F, found by the backtracking search of
:func:`fibrelab.finset.search`, where each arrow of j↓F forces the value at
its codomain from the value at its domain.
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
    """Pointwise left Kan extension of X: I -> FinSet along F: I -> J."""
    if x.shape != f.source:
        raise ShapeMismatch(("lan", "diagram not on the source of F"))
    x.check()
    f.check()
    i_cat, j_cat = f.source, f.target
    classify, sets = {}, {}
    for j in j_cat.objects:
        uf = UnionFind()
        triples = []
        for i in i_cat.objects:
            for u in j_cat.hom(f.ob(i), j):
                for e in x.sets[i]:
                    triples.append((i, u, e))
                    uf.find("%s|%s|%s" % (i, u, e))
        for m in i_cat.mor_tokens:
            i1, i2 = i_cat.dom(m), i_cat.cod(m)
            for u2 in j_cat.hom(f.ob(i2), j):
                u1 = j_cat.compose(u2, f.mor(m))
                for e in x.sets[i1]:
                    uf.union(
                        "%s|%s|%s" % (i1, u1, e),
                        "%s|%s|%s" % (i2, u2, x.fn(m)(e)),
                    )
        seen, order, cls = set(), [], {}
        for t in triples:
            root = uf.find("%s|%s|%s" % t)
            cls[t] = root
            if root not in seen:
                seen.add(root)
                order.append(root)
        sets[j] = FinSet(tuple(order))
        classify[j] = cls
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
    # unit naturality: κ is a transformation X -> L∘F
    for m in i_cat.mor_tokens:
        i1, i2 = i_cat.dom(m), i_cat.cod(m)
        left = x.fn(m).then(unit[i2])
        right = unit[i1].then(ext.fn(f.mor(m)))
        if left != right:
            raise NaturalityFailure(("lan unit naturality", m))
    return KanResult(ext, unit, classify)


def ran(f, x):
    """Pointwise right Kan extension: compatible families over j↓F.

    (Ran_F X)(j) is the limit of X∘π over j↓F, found by :func:`search`
    over the comma objects (i, u: j -> F i) in the order of I's objects.
    A morphism m: i1 -> i2 of I gives the arrow (i1, u) -> (i2, Fm∘u)
    along X(m).  An arrow from an earlier comma object forces the value at
    the later one; arrows from later objects and self-loops (endomorphisms
    with Fm∘u = u) are tests.  X and F are checked here, so they are
    functors; when I and J passed their checks too, the arrows run along
    the morphisms of :func:`fibrelab.finset.constrained_morphisms` only,
    which imply the others at the same search nodes (proof in
    :mod:`fibrelab.finset`).  Otherwise every morphism of I, identities
    included, gives its arrows.  Over a checked J the extension has a
    derived certificate (see :mod:`fibrelab.fincat`).  Elements may contain
    the separators of a family token, so two families of one token are
    refused (DanglingToken) instead of merged.
    """
    if x.shape != f.source:
        raise ShapeMismatch(("ran", "diagram not on the source of F"))
    x.check()
    f.check()
    i_cat, j_cat = f.source, f.target
    compose, f_ob, f_mor = j_cat.compose, f.ob, f.mor
    morphisms, tied = i_cat.morphisms, {}
    if i_cat._checked and j_cat._checked:
        # comma objects are listed by I's objects first, so a composite
        # a∘r whose middle object cod r is one of its ends is decided for
        # each u: by the place of the middle comma object (cod r, Fr∘u)
        place = {i: n for n, i in enumerate(i_cat.objects)}
        records, tied = constrained_morphisms(i_cat, place)
        listed = {m for m, _, _ in records}.union(tied)
        morphisms = [record for record in morphisms if record[0] in listed]
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
    if j_cat._checked:
        # restriction along u ↦ u∘v is a functor by J's axioms, and the
        # family tokens are distinct
        ext._checked = True
    else:
        ext.check()
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
    solver seeds β on injected elements and propagates along the morphisms
    of K, recording the equation chain that determines each value; an
    undetermined element or a conflict raises NoSolution.
    """
    sh = phi.shape
    for u, d, e in sh.morphisms:
        t = phi.transition(u)
        for i in phi.fibre(d).objects:
            if phi_maps[u][i].then(mu[e][t.ob(i)]) != mu[d][i]:
                raise IncompatibleFamily((u, i))
    beta = {kk: {} for kk in k_cat.objects}
    chains = {kk: {} for kk in k_cat.objects}
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
                chains[kd_i][tgt] = ["seed", d, i, el]
    changed = True
    while changed:
        changed = False
        for m in k_cat.mor_tokens:
            k1, k2 = k_cat.dom(m), k_cat.cod(m)
            for el, val in list(beta[k1].items()):
                tgt = x.fn(m)(el)
                new = y.fn(m)(val)
                prev = beta[k2].get(tgt)
                if prev is None:
                    beta[k2][tgt] = new
                    chains[k2][tgt] = ["push", m, k1, el]
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
    nat = SetNat(x, y, components).check()
    nat.chains = chains
    return nat
