"""Input builders that several test modules share: discrete categories and
glued chains."""
from fibrelab import fixtures
from fibrelab.fincat import FinFunctor, category
from fibrelab.grothendieck import CatDiagram
from fibrelab.randgen import chain


def discrete(objects, ids=None):
    """The discrete category on ``objects``; the identity of the n-th
    object is ``ids[n]``, or ``"id_"`` and the object."""
    ids = ids or ["id_" + o for o in objects]
    return category(
        objects, [(i, o, o) for o, i in zip(objects, ids)], dict(zip(objects, ids)), {}
    )


def glued_chains(n, m):
    """chain(n) glued end to start onto chain(m) along SPAN, checked: its
    Cat-colimit is chain(n + m - 1)."""
    pt, left, right = fixtures.one(), chain(n), chain(m)
    top = "c%d" % (n - 1)
    return CatDiagram(
        fixtures.span(),
        {"l": left, "s": pt, "r": right},
        {
            "le": FinFunctor(pt, left, {"*": top}, {"1": "id" + top}),
            "ri": FinFunctor(pt, right, {"*": "c0"}, {"1": "idc0"}),
        },
    ).check()
