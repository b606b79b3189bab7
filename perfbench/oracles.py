"""Known answers for the benchmark inputs.

Every function here is a closed form or a plain count over the benchmark's
own description of an input.  None of them imports fibrelab, so a verdict
checked against them does not depend on the code under test.
"""
from __future__ import annotations

from math import comb


def chain_morphisms(n):
    """chain(n) is the order 0 < ... < n-1: one morphism i -> j per i <= j."""
    return n * (n + 1) // 2


def glued_chain(n, m):
    """Gluing chain(n) end to start onto chain(m) gives chain(n + m - 1):
    (objects, morphisms)."""
    k = n + m - 1
    return k, chain_morphisms(k)


def glued_total_morphisms(n):
    """Morphisms of the Grothendieck total category of the SPAN gluing of
    two chain(n): both fibres, the apex point, one morphism out of the left
    top c(n-1) over ``le`` and n morphisms out of the right bottom c0 over
    ``ri``."""
    return 2 * chain_morphisms(n) + 1 + 1 + n


def functor_count(a, b):
    """Functors chain(a) -> chain(b) are monotone maps: C(a + b - 1, a)."""
    return comb(a + b - 1, a)


def ran_sizes(a, b, k):
    """Ran of a constant k-element diagram along the initial segment
    chain(a) -> chain(b): the comma category j/F has an initial object
    below the cut (k elements) and is empty above it (one element)."""
    return [k] * a + [1] * (b - a)


def colimit_of_parts(parts):
    """The colimit of a coproduct of representables and constant singletons
    over a connected category has one element per part."""
    return len(parts)


def chain_limit(parts, bottom):
    """The limit of a set diagram over a category with an initial object is
    its value there.  A representable Hom(c, -) is non-empty at the bottom
    only when c is the bottom; a constant singleton is one element."""
    return sum(1 for p in parts if p == ("const",) or p == ("rep", bottom))


def split_chain_total(base_objects, base_non_identities, k):
    """Morphisms of the Grothendieck total category of chain(k) fibres over
    a base whose non-identity morphisms all act by c_i -> c_(i // 2)."""
    over_identities = base_objects * chain_morphisms(k)
    over_u = sum(k - i // 2 for i in range(k))
    return over_identities + base_non_identities * over_u


def free_cofibration_objects(base_morphisms, k):
    """Objects of P/B for P: E -> B with k objects of E over every base
    object: one per pair (x, h: Px -> a), i.e. k per base morphism."""
    return k * base_morphisms


def product_of_chains(a):
    """product(chain(a), chain(a)): (objects, morphisms)."""
    return a * a, chain_morphisms(a) ** 2
