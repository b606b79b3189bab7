"""Differential tests of ``enumerate_functors`` against the enumerator it
replaced.

The old enumerator searched an image for every non-identity morphism, with
every composable pair as a constraint, and then ran ``FinFunctor.check``.
It lives on below as an oracle.  The new one searches images of the
source's generators only and certifies each extension with the generator
test; on randgen posets, the fixtures (the non-thin S3, Z2 and Z3, where
generator candidates are rejected) and Grothendieck totals it must return
the same functors, in the same order, with the same map item order.
"""
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.errors import AssociativityViolation, DanglingToken, ShapeMismatch
from fibrelab.fibrations import enumerate_functors
from fibrelab.fincat import FinCategory, FinFunctor, product
from fibrelab.finset import forward_check, search
from fibrelab.grothendieck import groth_co
from fibrelab.randgen import chain, random_cat_diagram, random_poset

CATS = fixtures.all_categories()
TOTALS = {
    name: groth_co(phi).total
    for name, phi in fixtures.all_cat_diagrams().items()
    if name != "loop-coeq"
}


def oracle_enumerate_functors(i_cat, j_cat):
    """All functors I -> J, by exhaustive search: object maps that give
    every non-identity morphism a nonempty hom-set, then morphism maps
    that preserve composition."""
    objs = list(i_cat.objects)
    mors = [m for m in i_cat.mor_tokens if not i_cat.is_identity(m)]
    variables = mors + [i_cat.id_of(a) for a in objs]
    hom_exists = [
        ((i_cat.dom(m), i_cat.cod(m)), lambda a, b: bool(j_cat.hom(a, b)))
        for m in mors
    ]
    preserves = [
        ((g, h, i_cat.compose(g, h)), lambda g2, h2, gh2: j_cat.compose(g2, h2) == gh2)
        for g, h in i_cat.composable_pairs()
    ]
    out = []
    object_pools = {a: j_cat.objects for a in objs}
    for ob_combo in search(objs, forward_check(object_pools, hom_exists)):
        on_objects = dict(zip(objs, ob_combo))
        pools = {
            m: j_cat.hom(on_objects[i_cat.dom(m)], on_objects[i_cat.cod(m)])
            for m in mors
        }
        for a in objs:
            pools[i_cat.id_of(a)] = [j_cat.id_of(on_objects[a])]
        for mor_combo in search(variables, forward_check(pools, preserves)):
            on_morphisms = dict(zip(variables, mor_combo))
            try:
                out.append(
                    FinFunctor(i_cat, j_cat, on_objects, on_morphisms).check()
                )
            except (DanglingToken, ShapeMismatch):
                continue
    return out


def tables(functors):
    return [
        (list(f.on_objects.items()), list(f.on_morphisms.items())) for f in functors
    ]


def _candidate_maps(i_cat, j_cat):
    """Object maps times non-identity images with the right endpoints: the
    work bound of the oracle's search."""
    total = 0
    for ob_combo in itertools.product(j_cat.objects, repeat=len(i_cat.objects)):
        on_objects = dict(zip(i_cat.objects, ob_combo))
        total += math.prod(
            len(j_cat.hom(on_objects[d], on_objects[c]))
            for m, d, c in i_cat.morphisms
            if not i_cat.is_identity(m)
        )
    return total


def _category(rng, kind, prefix):
    if kind == "poset":
        return random_poset(rng, 4, prefix=prefix)
    if kind == "total":
        random_total = groth_co(random_cat_diagram(rng, 3)).total
        return rng.choice([*TOTALS.values(), random_total])
    if kind == "chain":
        return chain(rng.randint(1, 4))
    return CATS[kind]


KINDS = tuple(CATS) + ("poset", "total", "chain")


@st.composite
def category_pairs(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    src = _category(rng, draw(st.sampled_from(KINDS)), "p")
    tgt = _category(rng, draw(st.sampled_from(KINDS)), "q")
    assume(_candidate_maps(src, tgt) <= 20000)
    return src, tgt


@given(category_pairs())
@settings(max_examples=150, deadline=None)
def test_enumerate_functors_agrees_with_oracle(pair):
    src, tgt = pair
    found = enumerate_functors(src, tgt)
    assert tables(found) == tables(oracle_enumerate_functors(src, tgt))
    assert all(f._checked for f in found)


NON_THIN = [
    ("S3", "S3"),
    ("Z3", "S3"),
    ("S3", "Z2"),
    ("Z2", "Z3"),
    ("Z3", "Z3"),
    ("semidirect", "S3"),
    ("S3", "semidirect"),
    ("span-push3", "span-push3"),
]


def _named(name):
    return CATS.get(name) or TOTALS[name]


@pytest.mark.parametrize("src, tgt", NON_THIN, ids=["->".join(p) for p in NON_THIN])
def test_non_thin_pairs_agree_with_oracle(src, tgt):
    src, tgt = _named(src), _named(tgt)
    assert tables(enumerate_functors(src, tgt)) == tables(
        oracle_enumerate_functors(src, tgt)
    )


def _count_generator_tests(monkeypatch):
    outers = []
    orig = FinFunctor._unpreserved

    def counted(self, outer):
        outers.append(tuple(outer))
        return orig(self, outer)

    monkeypatch.setattr(FinFunctor, "_unpreserved", counted)
    return outers


def test_a_rejected_candidate_costs_one_generator_test(monkeypatch):
    s3 = CATS["S3"]
    outers = _count_generator_tests(monkeypatch)
    found = enumerate_functors(s3, s3)
    # S3 has 10 endomorphisms among 6**2 generator images
    assert len(found) == 10
    assert len(s3.generators) == 2
    assert outers == [s3.generators] * 6 ** 2


def test_chain_functors_count_the_monotone_maps():
    for a in range(1, 6):
        found = enumerate_functors(chain(a), chain(a + 1))
        assert len(found) == math.comb(2 * a, a)


def test_factorization_covers_every_non_generator():
    extra = [chain(5), product(CATS["Z2"], CATS["S3"])]
    for c in [*CATS.values(), *TOTALS.values(), *extra]:
        gens = set(c.generators)
        known = {c.id_of(a) for a in c.objects} | gens
        for m, a, r in c.factorization:
            assert a in gens and r in known and m not in known
            assert c.compose(a, r) == m
            known.add(m)
        assert known == set(c.mor_tokens)


def test_a_non_associative_source_raises_its_check_error():
    s3 = CATS["S3"]
    table = dict(s3.composition)
    g, f = next(
        (g, f) for g, f in table if not s3.is_identity(g) and not s3.is_identity(f)
    )
    table[(g, f)] = next(m for m in s3.mor_tokens if m != table[(g, f)])
    broken = FinCategory(s3.objects, s3.morphisms, s3.identities, table)
    with pytest.raises(AssociativityViolation) as expected:
        FinCategory(s3.objects, s3.morphisms, s3.identities, table).check()
    with pytest.raises(AssociativityViolation) as raised:
        enumerate_functors(broken, s3)
    assert raised.value.args == expected.value.args
