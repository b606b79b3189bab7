"""Differential tests of the one Diag-morphism check.

A morphism of diagrams is checked as a natural transformation after
restricting one side along its functor part, and a family of diagrams is
checked as "each transition is a Diag morphism, plus the identity and
composition laws".  The four hand-written checks that this replaced live on
here as oracles: the variant- and kind-branching ``DiagMorphism.check`` and
``diag_compose``, and the mirror-image forward and backward family checks.
The new checks must raise the same error class with the same witness tuple,
or pass where the oracle passes, on random families, on the morphisms of
the strictification bijection, and on corrupted inputs.

The one place the old checks disagreed is a surplus component (indexed by
an object outside the index category): ``DiagMorphism`` rejected it and the
family checks ignored it.  Families now follow ``DiagMorphism``.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.diagcat import (
    DiagMorphism,
    DiagObject,
    diag_compose,
    dualize,
    enumerate_forward,
)
from fibrelab.errors import (
    EndpointMismatch,
    FibrelabError,
    NonFunctorialDiagram,
    NonFunctorialFamily,
    NotAMorphism,
    VariantMismatch,
)
from fibrelab.fincat import FinFunctor, compose_functor, identity_functor
from fibrelab.finset import FinFunction, FinSet, SetDiagram, identity_function
from fibrelab.formulas import backward_hat
from fibrelab.grothendieck import (
    CatDiagram,
    DiagFamily,
    groth_contra,
    opposed_fibres,
)
from fibrelab.randgen import (
    chain,
    random_cat_diagram,
    random_diag_family,
    random_set_diagram,
)

CATS = fixtures.all_categories()


# -- the replaced checks, as oracles -----------------------------------------

def oracle_morphism_check(m):
    src, tgt, f = m.source, m.target, m.functor_part
    if src.kind != tgt.kind:
        raise EndpointMismatch(("kind", src.kind, tgt.kind))
    if m.variant == "forward":
        if f.source != src.shape or f.target != tgt.shape:
            raise EndpointMismatch(("functor part", m.variant))
        index = src.shape
    else:
        if f.source != tgt.shape or f.target != src.shape:
            raise EndpointMismatch(("functor part", m.variant))
        index = tgt.shape
    comp = dict(m.components)
    if set(comp) != set(index.objects):
        raise NotAMorphism(("component index set", sorted(comp)))
    kind = src.kind
    for i in index.objects:
        dom_v = (
            src.value_at(i) if m.variant == "forward" else src.value_at(f.ob(i))
        )
        cod_v = (
            tgt.value_at(f.ob(i)) if m.variant == "forward" else tgt.value_at(i)
        )
        c = comp[i]
        if kind == "set":
            if c.source != dom_v or c.target != cod_v:
                raise NotAMorphism(("component endpoints", i))
        else:
            amb = src.diagram.target
            if amb.dom(c) != dom_v or amb.cod(c) != cod_v:
                raise NotAMorphism(("component endpoints", i))
    for mor in index.mor_tokens:
        i, j = index.dom(mor), index.cod(mor)
        if m.variant == "forward":
            top, bot = src.arrow_at(mor), tgt.arrow_at(f.mor(mor))
        else:
            top, bot = src.arrow_at(f.mor(mor)), tgt.arrow_at(mor)
        if kind == "set":
            if top.then(comp[j]) != comp[i].then(bot):
                raise NotAMorphism(("naturality", mor))
        else:
            amb = src.diagram.target
            if amb.compose(comp[j], top) != amb.compose(bot, comp[i]):
                raise NotAMorphism(("naturality", mor))
    return m


def oracle_diag_compose(m2, m1):
    if m2.variant != m1.variant:
        raise VariantMismatch((m2.variant, m1.variant))
    if m1.target != m2.source:
        raise EndpointMismatch(("composition endpoints",))
    kind = m1.source.kind
    f, g = m1.functor_part, m2.functor_part

    def comp(a, b):  # a after b
        if kind == "set":
            return b.then(a)
        return m1.source.diagram.target.compose(a, b)

    if m1.variant == "forward":
        functor = compose_functor(g, f)
        comps = tuple(
            (i, comp(m2.at(f.ob(i)), m1.at(i))) for i in m1.source.shape.objects
        )
    else:
        functor = compose_functor(f, g)
        comps = tuple(
            (k, comp(m2.at(k), m1.at(g.ob(k)))) for k in m2.target.shape.objects
        )
    return oracle_morphism_check(
        DiagMorphism(m1.variant, m1.source, m2.target, functor, comps)
    )


def oracle_forward_family_check(fam):
    sh = fam.shape
    CatDiagram(
        sh,
        {d: fam.objects[d].shape for d in sh.objects},
        {u: fam.morphisms[u][0] for u in sh.mor_tokens},
        variance="covariant",
    ).check()
    for d in sh.objects:
        fam.objects[d].check()
    for u, d, e in sh.morphisms:
        t, comp = fam.morphisms[u]
        xd, xe = fam.objects[d], fam.objects[e]
        for x in xd.shape.objects:
            c = comp.get(x)
            if c is None:
                raise NonFunctorialFamily(("missing component", u, x))
            if c.source != xd.sets[x] or c.target != xe.sets[t.ob(x)]:
                raise NonFunctorialFamily(("component endpoints", u, x))
        for h in xd.shape.mor_tokens:
            hx, hy = xd.shape.dom(h), xd.shape.cod(h)
            left = xd.fn(h).then(comp[hy])
            right = comp[hx].then(xe.fn(t.mor(h)))
            if left != right:
                raise NonFunctorialFamily(("naturality", u, h))
    for d in sh.objects:
        i = sh.id_of(d)
        for x in fam.objects[d].shape.objects:
            if fam.morphisms[i][1][x] != identity_function(fam.objects[d].sets[x]):
                raise NonFunctorialFamily(("identity components", d, x))
    for g, f in sh.composable_pairs():
        gf = sh.compose(g, f)
        tf = fam.morphisms[f][0]
        for x in fam.objects[sh.dom(f)].shape.objects:
            expect = fam.morphisms[f][1][x].then(fam.morphisms[g][1][tf.ob(x)])
            if fam.morphisms[gf][1][x] != expect:
                raise NonFunctorialFamily(("composition law", g, f, x))
    return fam


def oracle_backward_family_check(fam):
    sh = fam.shape
    CatDiagram(
        sh,
        {d: fam.objects[d].shape for d in sh.objects},
        {u: fam.morphisms[u][0] for u in sh.mor_tokens},
        variance="contravariant",
    ).check()
    for d in sh.objects:
        fam.objects[d].check()
    for u, d, e in sh.morphisms:
        tr, comp = fam.morphisms[u]
        xd, xe = fam.objects[d], fam.objects[e]
        for j in xe.shape.objects:
            c = comp.get(j)
            if c is None:
                raise NonFunctorialFamily(("missing component", u, j))
            if c.source != xd.sets[tr.ob(j)] or c.target != xe.sets[j]:
                raise NonFunctorialFamily(("component endpoints", u, j))
        for h in xe.shape.mor_tokens:
            j1, j2 = xe.shape.dom(h), xe.shape.cod(h)
            left = xd.fn(tr.mor(h)).then(comp[j2])
            right = comp[j1].then(xe.fn(h))
            if left != right:
                raise NonFunctorialFamily(("naturality", u, h))
    for d in sh.objects:
        i = sh.id_of(d)
        for j in fam.objects[d].shape.objects:
            if fam.morphisms[i][1][j] != identity_function(fam.objects[d].sets[j]):
                raise NonFunctorialFamily(("identity components", d, j))
    for g, f in sh.composable_pairs():
        gf = sh.compose(g, f)
        tg = fam.morphisms[g][0]
        for j in fam.objects[sh.cod(g)].shape.objects:
            expect = fam.morphisms[f][1][tg.ob(j)].then(fam.morphisms[g][1][j])
            if fam.morphisms[gf][1][j] != expect:
                raise NonFunctorialFamily(("composition law", g, f, j))
    return fam


def oracle_family_check(fam):
    if fam.variant == "forward":
        return oracle_forward_family_check(fam)
    return oracle_backward_family_check(fam)


def outcome(check, *args):
    """("pass", result) or the error class name and its witness tuple."""
    try:
        return "pass", check(*args)
    except FibrelabError as err:
        return type(err).__name__, err.args


def same_outcome(new, old, *args):
    got, want = outcome(new, *args), outcome(old, *args)
    assert got[0] == want[0], (got, want)
    if got[0] != "pass":
        assert got[1] == want[1]
    return got


# -- inputs ------------------------------------------------------------------

def backward_family(rng):
    """A backward family: the hat of a random set diagram on the total of a
    random contravariant diagram (the pointwise dual of a covariant one)."""
    contra = opposed_fibres(
        random_cat_diagram(rng, max_fibre_objects=3, bases=("TWO", "SPAN", "PUSH3"))
    )
    t = random_set_diagram(rng, groth_contra(contra).total, max_parts=2)
    return backward_hat(contra, t)


def forward_family(rng):
    fam, _, _ = random_diag_family(
        rng, max_fibre_objects=3, bases=("ONE", "TWO", "SPAN", "PUSH3")
    )
    return fam


def replaced(fam, u, comp):
    """``fam`` with the components over u replaced by ``comp``."""
    morphisms = dict(fam.morphisms)
    morphisms[u] = (fam.transition(u), comp)
    return DiagFamily(fam.shape, fam.objects, morphisms, variant=fam.variant)


def constant_like(c):
    """A function with the endpoints of c onto one element of its target,
    or None if that is c itself."""
    if not c.target.elements:
        return None
    first = c.target.elements[-1]
    out = FinFunction(c.source, c.target, {x: first for x in c.source})
    return None if out == c else out


def corruptions(fam, rng):
    """Copies of ``fam`` with one defect each, by name."""
    out = []
    sh = fam.shape
    for u in sh.mor_tokens:
        comp = fam.phi(u)
        if not comp:
            continue
        x = rng.choice(sorted(comp))
        c = comp[x]
        missing = {k: v for k, v in comp.items() if k != x}
        out.append(("missing component", replaced(fam, u, missing)))
        wider = FinSet(c.target.elements + ("extra",))
        widened = dict(comp)
        widened[x] = FinFunction(c.source, wider, c.mapping)
        out.append(("wrong endpoints", replaced(fam, u, widened)))
        bent = constant_like(c)
        if bent is not None:
            name = "identity law" if sh.is_identity(u) else "naturality"
            out.append((name, replaced(fam, u, {**comp, x: bent})))
    return out


# -- families ----------------------------------------------------------------

@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_families_match_the_oracles(seed):
    rng = random.Random(seed)
    for fam in (forward_family(rng), backward_family(rng)):
        assert same_outcome(DiagFamily.check, oracle_family_check, fam)[0] == "pass"
        for _, bad in corruptions(fam, rng):
            same_outcome(DiagFamily.check, oracle_family_check, bad)


def test_corruptions_are_refused_with_the_oracle_witness():
    """Every kind of corruption is met at least once, and refused alike."""
    rng = random.Random(5)
    refused = set()
    for _ in range(30):
        for fam in (forward_family(rng), backward_family(rng)):
            for name, bad in corruptions(fam, rng):
                kind, args = same_outcome(DiagFamily.check, oracle_family_check, bad)
                if kind != "pass":
                    refused.add((fam.variant, name, args[0][0]))
    for variant in ("forward", "backward"):
        assert (variant, "missing component", "missing component") in refused
        assert (variant, "wrong endpoints", "component endpoints") in refused
        assert (variant, "naturality", "naturality") in refused
        assert (variant, "identity law", "identity components") in refused


def one_fibred_chain(variant, broken):
    """A family over chain(3) with ONE-shaped members, each the set {p, q}:
    any components are natural, so only the composition law can fail, and
    it fails iff ``broken``."""
    base, pt = chain(3), CATS["ONE"]
    s = FinSet(("p", "q"))
    member = SetDiagram(pt, {"*": s}, {"1": identity_function(s)})
    swap = FinFunction(s, s, {"p": "q", "q": "p"})
    comps = {u: swap for u in base.mor_tokens if not base.is_identity(u)}
    comps["c0<c2"] = swap if broken else identity_function(s)
    for a in base.objects:
        comps[base.id_of(a)] = identity_function(s)
    return DiagFamily(
        base,
        {a: member for a in base.objects},
        {u: (identity_functor(pt), {"*": c}) for u, c in comps.items()},
        variant=variant,
    )


@pytest.mark.parametrize("variant", ["forward", "backward"])
def test_composition_law_witness_matches_the_oracle(variant):
    fam = one_fibred_chain(variant, broken=False)
    assert same_outcome(DiagFamily.check, oracle_family_check, fam)[0] == "pass"
    bad = one_fibred_chain(variant, broken=True)
    kind, args = same_outcome(DiagFamily.check, oracle_family_check, bad)
    assert kind == "NonFunctorialFamily"
    assert args[0][0] == "composition law" and args[0][-1] == "*"


@pytest.mark.parametrize("variant", ["forward", "backward"])
def test_non_functorial_shape_diagram_matches_the_oracle(variant):
    fam = one_fibred_chain(variant, broken=False)
    morphisms = dict(fam.morphisms)
    morphisms["c0<c1"] = (identity_functor(CATS["TWO"]), fam.phi("c0<c1"))
    bad = DiagFamily(fam.shape, fam.objects, morphisms, variant=variant)
    kind, _ = same_outcome(DiagFamily.check, oracle_family_check, bad)
    assert kind == NonFunctorialDiagram.__name__


def test_unknown_family_variant_is_refused():
    fam = one_fibred_chain("forward", broken=False)
    with pytest.raises(VariantMismatch) as err:
        DiagFamily(fam.shape, fam.objects, fam.morphisms, variant="sideways")
    assert err.value.args == (("family variant", "sideways"),)


@pytest.mark.parametrize("variant", ["forward", "backward"])
def test_surplus_component_is_refused_as_diag_morphism_refuses_it(variant):
    """The old family checks ignored a component over an object outside the
    index category; the Diag morphism check always refused it."""
    rng = random.Random(11)
    fam = forward_family(rng) if variant == "forward" else backward_family(rng)
    u = fam.shape.mor_tokens[0]
    comp = dict(fam.phi(u))
    comp["stray"] = next(iter(comp.values()))
    bad = replaced(fam, u, comp)
    assert outcome(oracle_family_check, bad)[0] == "pass"
    with pytest.raises(NonFunctorialFamily) as err:
        bad.check()
    assert err.value.args == (("component index set", u, sorted(comp)),)
    d, e = fam.shape.dom(u), fam.shape.cod(u)
    arrow = DiagMorphism(
        variant,
        DiagObject(fam.objects[d].shape, fam.objects[d]),
        DiagObject(fam.objects[e].shape, fam.objects[e]),
        fam.transition(u),
        tuple(comp.items()),
    )
    same_outcome(DiagMorphism.check, oracle_morphism_check, arrow)


# -- morphisms ---------------------------------------------------------------

def cat_dobj(functor):
    return DiagObject(functor.source, functor.check(), "cat")


STRICT_PAIRS = [
    (
        FinFunctor(CATS["ONE"], CATS["TWO"], {"*": "0"}, {"1": "id0"}),
        identity_functor(CATS["TWO"]),
    ),
    (identity_functor(CATS["TWO"]), identity_functor(CATS["TWO"])),
    (
        FinFunctor(
            CATS["TWO"], CATS["PUSH3"], {"0": "0", "1": "1"}, {"id0": "id0", "id1": "id1", "a": "a"}
        ),
        identity_functor(CATS["PUSH3"]),
    ),
    (identity_functor(CATS["SPAN"]), identity_functor(CATS["SPAN"])),
    # a non-thin ambient, where a component can break naturality alone
    (identity_functor(CATS["S3"]), identity_functor(CATS["S3"])),
]


def strict_morphisms():
    out = []
    for x, y in STRICT_PAIRS:
        out.extend(enumerate_forward(cat_dobj(x), cat_dobj(y)))
    return out


def morphism_corruptions(m):
    """Copies of the cat-valued morphism m with one defect each."""
    comp = list(m.components)
    out = [
        # missing component
        DiagMorphism(m.variant, m.source, m.target, m.functor_part, tuple(comp[1:])),
        # surplus component
        DiagMorphism(
            m.variant, m.source, m.target, m.functor_part,
            tuple(comp) + (("stray", comp[0][1]),),
        ),
        # functor part with the wrong endpoints
        DiagMorphism(
            m.variant, m.source, m.target, identity_functor(m.target.shape), tuple(comp)
        ),
    ]
    # every other morphism of the ambient in place of one component
    for k, (i, c) in enumerate(comp):
        for other in m.source.diagram.target.mor_tokens:
            if other != c:
                bent = comp[:k] + [(i, other)] + comp[k + 1:]
                out.append(
                    DiagMorphism(
                        m.variant, m.source, m.target, m.functor_part, tuple(bent)
                    )
                )
    return out


def test_strict_bijection_morphisms_match_the_oracles():
    ms = strict_morphisms()
    assert len(ms) == 16
    refused = set()
    for m in ms:
        for variant_m in (m, dualize(m)):
            same_outcome(DiagMorphism.check, oracle_morphism_check, variant_m)
            for bad in morphism_corruptions(variant_m):
                kind, args = same_outcome(
                    DiagMorphism.check, oracle_morphism_check, bad
                )
                if kind != "pass":
                    refused.add((bad.variant, args[0][0]))
    for variant in ("forward", "backward"):
        for witness in ("component index set", "component endpoints", "naturality"):
            assert (variant, witness) in refused
        assert (variant, "functor part") in refused


def test_strict_bijection_composites_match_the_oracle():
    for x, y in STRICT_PAIRS:
        dx, dy = cat_dobj(x), cat_dobj(y)
        loops = enumerate_forward(dy, dy)
        for m1 in enumerate_forward(dx, dy):
            for m2 in loops:
                got = same_outcome(diag_compose, oracle_diag_compose, m2, m1)
                assert got[1] == oracle_diag_compose(m2, m1)
                back = same_outcome(
                    diag_compose, oracle_diag_compose, dualize(m1), dualize(m2)
                )
                assert back[1] == oracle_diag_compose(dualize(m1), dualize(m2))


def test_set_morphisms_of_random_families_match_the_oracle():
    """The transitions of random families as set-valued Diag morphisms,
    their composites, and the same corruptions as for families."""
    rng = random.Random(3)
    for _ in range(15):
        for fam in (forward_family(rng), backward_family(rng)):
            members = {
                d: DiagObject(x.shape, x, "set") for d, x in fam.objects.items()
            }
            arrows = {}
            for u, d, e in fam.shape.morphisms:
                arrows[u] = DiagMorphism(
                    fam.variant,
                    members[d],
                    members[e],
                    fam.transition(u),
                    tuple(fam.phi(u).items()),
                )
                same_outcome(DiagMorphism.check, oracle_morphism_check, arrows[u])
            for g, f in fam.shape.composable_pairs():
                got = same_outcome(
                    diag_compose, oracle_diag_compose, arrows[g], arrows[f]
                )
                assert got[1] == oracle_diag_compose(arrows[g], arrows[f])
            for _, bad in corruptions(fam, rng):
                for u, d, e in fam.shape.morphisms:
                    arrow = DiagMorphism(
                        fam.variant,
                        members[d],
                        members[e],
                        bad.transition(u),
                        tuple(bad.phi(u).items()),
                    )
                    same_outcome(DiagMorphism.check, oracle_morphism_check, arrow)
