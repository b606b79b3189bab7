import random

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import diagcat, finset, fixtures
from fibrelab.catcolim import colimit_cat
from fibrelab.diagcat import (
    DiagMorphism,
    DiagObject,
    colimit_in_diag,
    diag_compose,
    diag_identity,
    dualize,
    embed,
    embed_and_reflect,
    enumerate_forward,
    enumerate_strict,
    lax_to_strict,
    reflect_factor,
    strict_hom_bijection,
    strict_to_lax,
    strictify,
    verify_2cell,
)
from fibrelab.errors import (
    AmbientNotFinite,
    CertificateFailure,
    NotAMorphism,
    ShapeMismatch,
    VariantMismatch,
)
from fibrelab.fincat import FinFunctor, constant_functor, identity_functor
from fibrelab.finset import (
    FinFunction,
    FinSet,
    SetDiagram,
    colimit_set,
    identity_function,
    is_bijection,
)
from fibrelab.grothendieck import groth_co, guitart_hat
from fibrelab.randgen import random_diag_family, random_set_diagram

CATS = fixtures.all_categories()


def set_dobj(shape_name="TWO"):
    rng = random.Random(7)
    shape = CATS[shape_name]
    return DiagObject(shape, random_set_diagram(rng, shape), "set")


def cat_dobj(on_objects, on_morphisms, src="ONE", amb="TWO"):
    f = FinFunctor(CATS[src], CATS[amb], on_objects, on_morphisms).check()
    return DiagObject(CATS[src], f, "cat")


def test_diag_identity_is_two_sided_unit():
    x = set_dobj()
    i = diag_identity(x).check()
    assert diag_compose(i, i).check().functor_part.on_objects == i.functor_part.on_objects


def test_forward_composition_associates():
    # three ONE-shaped set diagrams with maps between their fibres
    a, b, c, d = (embed(FinSet(("%d" % k,))) for k in range(4))

    def arrow(src, tgt):
        return DiagMorphism(
            "forward",
            src,
            tgt,
            identity_functor(src.shape),
            (
                (
                    "*",
                    FinFunction(
                        src.value_at("*"),
                        tgt.value_at("*"),
                        {e: tgt.value_at("*").elements[0] for e in src.value_at("*")},
                    ),
                ),
            ),
        ).check()

    f, g, h = arrow(a, b), arrow(b, c), arrow(c, d)
    lhs = diag_compose(h, diag_compose(g, f))
    rhs = diag_compose(diag_compose(h, g), f)
    assert lhs.at("*") == rhs.at("*")
    assert lhs.functor_part.on_objects == rhs.functor_part.on_objects


def test_variant_mismatch_rejected():
    x = set_dobj()
    i = diag_identity(x)
    back = DiagMorphism(
        "backward", x, x, i.functor_part, i.components
    )
    with pytest.raises(VariantMismatch):
        diag_compose(i, back)


def test_check_catches_broken_naturality():
    shape = CATS["TWO"]
    p, q = FinSet(("a", "b")), FinSet(("0", "1"))
    x = SetDiagram(
        shape,
        {"0": p, "1": q},
        {
            "id0": identity_function(p),
            "id1": identity_function(q),
            "a": FinFunction(p, q, {"a": "0", "b": "1"}),
        },
    ).check()
    dx = DiagObject(shape, x, "set")
    swap = FinFunction(q, q, {"0": "1", "1": "0"})
    bad = DiagMorphism(
        "forward",
        dx,
        dx,
        identity_functor(shape),
        (("0", identity_function(p)), ("1", swap)),
    )
    with pytest.raises(NotAMorphism):
        bad.check()


def test_embed_and_reflect_factors_uniquely():
    x = set_dobj("SPAN")
    unit = embed_and_reflect(x).check()
    # any map into an embedded set factors through the unit
    col = colimit_set(x.diagram)
    target = embed(FinSet(("z",)))
    m = DiagMorphism(
        "forward",
        x,
        target,
        unit.functor_part,
        tuple(
            (
                i,
                FinFunction(
                    x.value_at(i), target.value_at("*"), {e: "z" for e in x.value_at(i)}
                ),
            )
            for i in x.shape.objects
        ),
    ).check()
    h = reflect_factor(unit, m)
    for i in x.shape.objects:
        assert unit.at(i).then(h.at("*")) == m.at(i)


def test_backward_morphism_naturality_checked():
    # the backward variant indexes components by the *target* shape
    shape = CATS["TWO"]
    rng = random.Random(3)
    x = random_set_diagram(rng, shape)
    dx = DiagObject(shape, x, "set")
    back = DiagMorphism(
        "backward",
        dx,
        dx,
        identity_functor(shape),
        tuple((i, identity_function(x.sets[i])) for i in shape.objects),
    )
    back.check()


def test_dualize_is_an_involution():
    # dualize works on cat-valued diagrams (it needs opposites of the
    # ambient); identities dualize to identities with the same components
    dx = cat_dobj({"*": "0"}, {"1": "id0"})
    i = diag_identity(dx).check()
    d = dualize(i)
    assert d.variant == "backward"
    dd = dualize(d)
    assert dd.variant == "forward"
    assert dd.source.shape == i.source.shape
    assert dict(dd.components) == dict(i.components)


def test_strict_hom_bijection_point_into_arrow():
    # cat-valued: a point of TWO against the identity arrow diagram on TWO
    dx = cat_dobj({"*": "0"}, {"1": "id0"})
    dy = DiagObject(CATS["TWO"], identity_functor(CATS["TWO"]), "cat")
    rep = strict_hom_bijection(dx, dy)
    assert rep.ok, rep.witness
    # frozen: maps ONE -> TWO over TWO from the point 0: into 0 or along a
    assert rep.stats["count"] == 2


def test_lax_strict_round_trip_explicit():
    dx = cat_dobj({"*": "0"}, {"1": "id0"})
    dy = DiagObject(CATS["TWO"], identity_functor(CATS["TWO"]), "cat")
    for m in enumerate_forward(dx, dy):
        h = lax_to_strict(dx, dy, m)
        again = strict_to_lax(dx, dy, h)
        assert again.functor_part.on_objects == m.functor_part.on_objects
        assert dict(again.components) == dict(m.components)


def test_strictify_functor_acts_on_comma_objects():
    dx = cat_dobj({"*": "0"}, {"1": "id0"})
    dy = DiagObject(CATS["TWO"], identity_functor(CATS["TWO"]), "cat")
    m = enumerate_forward(dx, dy)[0]
    _, s = strictify(m)
    s.check()
    from fibrelab.diagcat import strict_category

    assert s.source == strict_category(dx).category


def test_verify_2cell_identity():
    from fibrelab.fincat import identity_nat

    dx = cat_dobj({"*": "0"}, {"1": "id0"})
    dy = DiagObject(CATS["TWO"], identity_functor(CATS["TWO"]), "cat")
    m = enumerate_forward(dx, dy)[0]
    alpha = identity_nat(m.functor_part)
    assert verify_2cell(alpha, m, m).ok


def test_colimit_in_diag_degenerate_family_is_plain_colimit():
    # a ONE-indexed family is just one diagram; its diagram-category colimit
    # must be the ordinary colimit of sets
    rng = random.Random(9)
    fam, phi, t = random_diag_family(rng, bases=("ONE",))
    res = colimit_in_diag(fam)
    direct = colimit_set(t)
    glued = res.result.diagram
    assert res.result.shape == res.shape_colimit.colimit
    # the single member has identity transitions, so the glued diagram's
    # total size matches the member's Lan, and its colimit matches direct
    assert len(colimit_set(glued).apex) == len(direct.apex)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_random_family_colimit_injections_are_morphisms(seed):
    rng = random.Random(seed)
    fam, phi, t = random_diag_family(rng, bases=("ONE", "TWO"))
    res = colimit_in_diag(fam)
    for d in phi.shape.objects:
        res.injections[d].check()


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_random_forward_morphism_dualize_round_trip(seed):
    rng = random.Random(seed)
    dy = DiagObject(CATS["TWO"], identity_functor(CATS["TWO"]), "cat")
    dx = cat_dobj({"*": "0"}, {"1": "id0"}) if rng.random() < 0.5 else dy
    for m in enumerate_forward(dx, dy):
        dd = dualize(dualize(m))
        assert dict(dd.components) == dict(m.components)
        assert dd.functor_part.on_objects == m.functor_part.on_objects


# -- typed guards: none of them is an assert, so all hold under python -O ----

def z2_point_lax():
    """The identity diagram X of Z2, and the strict functor H of a forward
    morphism out of the constant diagram at *: H lies over X on the object
    but not on the morphism s."""
    z2 = CATS["Z2"]
    dx = DiagObject(z2, identity_functor(z2), "cat")
    dc = DiagObject(z2, constant_functor(z2, z2, "*"), "cat")
    m = enumerate_forward(dc, dx)[0]
    return dx, lax_to_strict(dc, dx, m)


def point_into_arrow():
    dx = cat_dobj({"*": "0"}, {"1": "id0"})
    dy = DiagObject(CATS["TWO"], identity_functor(CATS["TWO"]), "cat")
    return dx, dy


class NoUnion(finset.UnionFind):
    """A union-find that never merges: the pointwise colimit of a family
    becomes a disjoint union, which is no cocone under a transition."""

    def union(self, x, y):
        pass


def glue_without_unions(monkeypatch):
    phi = fixtures.span_push3_diagram()
    t = finset.constant_diagram(groth_co(phi).total, FinSet(("*",)))
    kres = colimit_cat(phi)
    monkeypatch.setattr(diagcat, "UnionFind", NoUnion)
    return colimit_in_diag(guitart_hat(phi, t), kres=kres)


def strict_to_lax_elsewhere(_):
    dx, dy = point_into_arrow()
    return strict_to_lax(dx, dy, identity_functor(CATS["TWO"]))


def strict_to_lax_other_object(_):
    dx, dy = point_into_arrow()
    d1 = cat_dobj({"*": "1"}, {"1": "id1"})
    h = lax_to_strict(d1, dy, enumerate_forward(d1, dy)[0])
    return strict_to_lax(dx, dy, h)


def strict_to_lax_other_morphism(_):
    dx, h = z2_point_lax()
    return strict_to_lax(dx, dx, h)


# (name, call, error, its args; None for a certificate whose place varies)
GUARDS = [
    ("object kind", lambda _: DiagObject(CATS["TWO"], set_dobj().diagram, "graph"),
     VariantMismatch, (("diagram kind", "graph"),)),
    ("set object not a set diagram",
     lambda _: DiagObject(CATS["TWO"], identity_functor(CATS["TWO"]), "set"),
     ShapeMismatch, (("not a set-valued diagram",),)),
    ("set object off its shape", lambda _: DiagObject(CATS["SPAN"], set_dobj().diagram),
     ShapeMismatch, (("diagram not on its shape",),)),
    ("cat object not a functor",
     lambda _: DiagObject(CATS["TWO"], set_dobj().diagram, "cat"),
     ShapeMismatch, (("not a cat-valued diagram",),)),
    ("cat object off its shape",
     lambda _: DiagObject(CATS["SPAN"], identity_functor(CATS["TWO"]), "cat"),
     ShapeMismatch, (("diagram not on its shape",),)),
    ("morphism variant",
     lambda _: DiagMorphism(
         "sideways", set_dobj(), set_dobj(), identity_functor(CATS["TWO"]), ()
     ),
     VariantMismatch, (("morphism variant", "sideways"),)),
    ("reflection of a cat diagram", lambda _: embed_and_reflect(point_into_arrow()[1]),
     AmbientNotFinite, ("the reflection needs a set-valued diagram",)),
    ("strictify a backward morphism",
     lambda _: strictify(dualize(diag_identity(point_into_arrow()[0]))),
     VariantMismatch, (("strictify needs a forward morphism", "backward"),)),
    ("strictify a set morphism", lambda _: strictify(diag_identity(set_dobj())),
     AmbientNotFinite, ("strictification needs a cat-valued diagram",)),
    ("strict functor elsewhere", strict_to_lax_elsewhere,
     NotAMorphism, (("not into the strict category",),)),
    ("strict functor off the objects", strict_to_lax_other_object,
     NotAMorphism, (("not over the ambient", "*"),)),
    ("strict functor off the morphisms", strict_to_lax_other_morphism,
     NotAMorphism, (("not over the ambient", "s"),)),
    ("cocone certificate", glue_without_unions, CertificateFailure, None),
    ("dualize a set morphism", lambda _: dualize(diag_identity(set_dobj())),
     AmbientNotFinite, ("duality needs a cat-valued diagram",)),
]


@pytest.mark.parametrize("guard", GUARDS, ids=[g[0] for g in GUARDS])
def test_guards_raise_typed_errors(guard, monkeypatch):
    _, call, error, args = guard
    with pytest.raises(error) as err:
        call(monkeypatch)
    if args is None:
        assert err.value.args[0][0] == "colimit injections not a cocone"
    else:
        assert err.value.args == args
