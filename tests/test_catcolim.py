import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from fibrelab import catcolim, fixtures
from fibrelab.catcolim import (
    certify_cofinal_quotient,
    colimit_cat,
    comparison_q,
    verify_cat_cocone,
)
from fibrelab.errors import BoundExceeded
from fibrelab.fincat import FinFunctor, identity_functor
from fibrelab.finset import colimit_set, is_bijection, mediate
from fibrelab.grothendieck import groth_co
from fibrelab.randgen import random_cat_diagram

CATS = fixtures.all_categories()
DIAGS = fixtures.all_cat_diagrams()


def test_pushout_gluing_has_pushout_shape():
    # two copies of TWO glued along their source object: three objects, and
    # one composite besides the two generators — the shape of PUSH3
    res = colimit_cat(DIAGS["span-push3"])
    k = res.colimit
    assert len(k.objects) == 3
    assert len(k.morphisms) == 6
    k.check()
    # exactly one object receives both generators
    non_id = [m for m in k.mor_tokens if not k.is_identity(m)]
    assert len(non_id) == 3
    doms = sorted(k.dom(m) for m in non_id)
    assert doms[0] == doms[1]  # generator pair plus their composite


def test_pushout_gluing_matches_push3_up_to_iso():
    res = colimit_cat(DIAGS["span-push3"])
    push3 = CATS["PUSH3"]
    # brute-force search for an isomorphism of categories
    from fibrelab.fibrations import enumerate_functors

    isos = [
        f
        for f in enumerate_functors(res.colimit, push3)
        if sorted(f.on_objects.values()) == sorted(push3.objects)
        and sorted(f.on_morphisms.values()) == sorted(push3.mor_tokens)
    ]
    assert isos, "no isomorphism onto the pushout shape"


def test_group_coequalizer_collapses_to_trivial_category():
    # coequalizing Z3 --id,inv--> Z3 forces r = r^2, hence r = e: the colimit
    # of the semidirect-product diagram is the terminal category
    res = colimit_cat(DIAGS["semidirect"])
    assert len(res.colimit.objects) == 1
    assert len(res.colimit.morphisms) == 1


def test_free_loop_coequalizer_exceeds_any_bound():
    # identifying the two arrows of TWO makes an endo with no relations: the
    # colimit is the free monoid on one generator, which is infinite
    for bound in (10, 100, 10000):
        with pytest.raises(BoundExceeded) as exc:
            colimit_cat(DIAGS["loop-coeq"], bound=bound)
        assert exc.value.trace  # growth trace is reported


def test_free_loop_detection_is_fast():
    start = time.time()
    with pytest.raises(BoundExceeded):
        colimit_cat(DIAGS["loop-coeq"], bound=10000)
    assert time.time() - start < 1.0


def test_cocone_legs_are_natural_and_jointly_surjective():
    for name in ("span-push3", "semidirect"):
        phi = DIAGS[name]
        res = colimit_cat(phi)
        sh = phi.shape
        for u, d, e in sh.morphisms:
            from fibrelab.fincat import compose_functor

            assert (
                compose_functor(res.cocone[e], phi.transition(u))
                == res.cocone[d]
            ), (name, u)
        hit = set()
        for d in sh.objects:
            hit.update(res.cocone[d].on_objects.values())
        assert hit == set(res.colimit.objects)


def test_verify_cat_cocone_accepts_own_output():
    for name in ("span-push3", "semidirect"):
        phi = DIAGS[name]
        res = colimit_cat(phi)
        rep = verify_cat_cocone(phi, res.colimit, res.cocone, kres=res)
        assert rep.ok, (name, rep.witness)


def test_verify_cat_cocone_reuses_the_callers_colimit(monkeypatch):
    phi = DIAGS["span-push3"]
    res = colimit_cat(phi)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return colimit_cat(*args, **kwargs)

    monkeypatch.setattr(catcolim, "colimit_cat", counted)
    assert verify_cat_cocone(phi, res.colimit, res.cocone, kres=res).ok
    assert len(calls) == 0
    assert verify_cat_cocone(phi, res.colimit, res.cocone).ok
    assert len(calls) == 1


def test_verify_cat_cocone_rejects_wrong_vertex():
    phi = DIAGS["span-push3"]
    res = colimit_cat(phi)
    # PUSH3 itself with constant legs is not a natural cocone here
    bad = {
        d: FinFunctor(
            phi.fibre(d),
            CATS["ONE"],
            {x: "*" for x in phi.fibre(d).objects},
            {m: "1" for m in phi.fibre(d).mor_tokens},
        )
        for d in phi.shape.objects
    }
    rep = verify_cat_cocone(phi, CATS["ONE"], bad)
    assert not rep.ok  # ONE is not the colimit (it has 3 objects' worth)


def test_object_classes_refine_object_colimit():
    # Ob(colim Φ) is the colimit of the object sets — check cardinalities
    from fibrelab.finset import FinFunction, FinSet, SetDiagram

    for name in ("span-push3", "semidirect"):
        phi = DIAGS[name]
        res = colimit_cat(phi)
        sh = phi.shape
        sets = {d: FinSet(tuple(phi.fibre(d).objects)) for d in sh.objects}
        functions = {
            u: FinFunction(
                sets[sh.dom(u)],
                sets[sh.cod(u)],
                {x: phi.transition(u).ob(x) for x in sets[sh.dom(u)]},
            )
            for u in sh.mor_tokens
        }
        ob_diag = SetDiagram(sh, sets, functions).check()
        assert len(colimit_set(ob_diag).apex) == len(res.colimit.objects)


def test_comparison_q_is_a_cofinal_quotient_on_fixtures():
    for name in ("span-push3", "semidirect"):
        phi = DIAGS[name]
        res = colimit_cat(phi)
        q = comparison_q(phi, res)
        q.check()
        rep = certify_cofinal_quotient(q)
        assert rep.ok, (name, rep.witness)


def test_comparison_q_need_not_be_full():
    # the glued category contains the cross composite of the two pushed
    # generators, which is not the image of any single total morphism —
    # fullness genuinely fails, only generation holds
    phi = DIAGS["span-push3"]
    res = colimit_cat(phi)
    q = comparison_q(phi, res)
    images = set(q.on_morphisms.values())
    assert any(m not in images for m in res.colimit.mor_tokens)
    assert certify_cofinal_quotient(q).ok


def test_saturation_stats_are_reported():
    res = colimit_cat(DIAGS["span-push3"])
    stats = res.saturation_stats
    assert stats["object_classes"] == 3
    assert stats["morphism_classes"] == 6
    assert stats["discovered_words"] >= stats["morphism_classes"]


def test_letter_equal_to_identity_collapses_composites():
    # regression: a fibre generator can be identified with an identity only
    # through a zigzag via another fibre; composites through it must then
    # collapse too, or the cocone legs stop being functorial
    phi = random_cat_diagram(
        random.Random(11049), max_fibre_objects=3, bases=("TWO", "SPAN")
    )
    res = colimit_cat(phi, bound=400)
    assert verify_cat_cocone(phi, res.colimit, res.cocone, kres=res).ok


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_random_poset_diagram_colimits_verify(seed):
    rng = random.Random(seed)
    phi = random_cat_diagram(rng, max_fibre_objects=3, bases=("TWO", "SPAN"))
    try:
        res = colimit_cat(phi, bound=400)
    except BoundExceeded:
        return  # gluing posets can create free loops; divergence is legal
    assert verify_cat_cocone(phi, res.colimit, res.cocone, kres=res).ok
    q = comparison_q(phi, res)
    assert certify_cofinal_quotient(q).ok
