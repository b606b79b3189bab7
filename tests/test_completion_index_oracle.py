"""Differential tests of indexed completion against the bucket scans it
replaced.

``_Saturator.reduce`` finds the left side at a position by one dict lookup
per left-side length, retirement reads a bigram index, and the overlap
candidates come from first- and last-letter indexes.  The completion below
scanned whole first-letter and letter buckets instead.  It lives on here as
an oracle: on random and adversarial Cat diagrams both must pop the same
pairs in the same order, keep the same rules under the same ids, count the
same critical pairs, and give the same colimit, stats and refusals.  The
relations of the generator presentation have left sides of any length (one
letter more than a fibre normal form), which the indexes must serve too.
"""
import random
from collections import deque
from unittest import mock

from hypothesis import given, settings, strategies as st

from fibrelab import catcolim, fixtures
from fibrelab.catcolim import _Saturator, colimit_cat
from fibrelab.errors import BoundExceeded
from fibrelab.fibrations import enumerate_functors
from fibrelab.fincat import FinFunctor, category
from fibrelab.grothendieck import CatDiagram
from fibrelab.randgen import chain, poset_category, random_cat_diagram

# at module level: an import inside a @given body would run that module's
# own @given functions there
from test_catcolim_oracle import layered_poset

BOUND = 50


# -- the completion that the indexes replaced, kept as an oracle -------------

def _occurs(needle, word):
    n = len(needle)
    return any(word[i : i + n] == needle for i in range(len(word) - n + 1))


class BucketScanSaturator(_Saturator):
    def reduce(self, word, start=0):
        i = max(start, 0)
        while i < len(word):
            for lhs, rhs in self._by_first.get(word[i], {}).values():
                n = len(lhs)
                if word[i : i + n] == lhs:
                    word = word[:i] + rhs + word[i + n :]
                    i = max(0, i - self.max_lhs + 1)
                    break
            else:
                i += 1
        return word

    def _add_rule(self, rid, rule):
        lhs = rule[0]
        self.rules[rid] = rule
        self._by_first.setdefault(lhs[0], {})[rid] = rule
        for a in dict.fromkeys(lhs):
            self._containing.setdefault(a, {})[rid] = rule
        self.max_lhs = max(self.max_lhs, len(lhs))

    def _retire_rule(self, rid):
        lhs = self.rules.pop(rid)[0]
        del self._by_first[lhs[0]][rid]
        for a in dict.fromkeys(lhs):
            del self._containing[a][rid]

    def complete(self):
        self.rules = {}
        self._by_first = {}
        self._containing = {}
        self.max_lhs = 1
        self.critical_pairs = 0
        # catcolim's deque, which completion() replaces to record the pops
        queue = catcolim.deque(self.equations)
        next_id = 0
        while queue:
            u, v = queue.popleft()
            u, v = self.reduce(u), self.reduce(v)
            if u == v:
                continue
            rule = (u, v) if (len(u), u) > (len(v), v) else (v, u)
            lhs = rule[0]
            for rid, old in list(self._containing.get(lhs[0], {}).items()):
                if _occurs(lhs, old[0]):
                    self._retire_rule(rid)
                    queue.append(old)
            self._add_rule(next_id, rule)
            next_id += 1
            if len(self.rules) > self.rule_bound:
                raise BoundExceeded(
                    "rewrite rule count %d exceeds bound %d"
                    % (len(self.rules), self.rule_bound),
                    [("rules", len(self.rules)), ("critical_pairs", self.critical_pairs)],
                )
            ahead = {}
            for a in dict.fromkeys(lhs):
                ahead.update(self._by_first.get(a, {}))
            for other in ahead.values():
                for pair in catcolim._overlaps(rule, other):
                    self.critical_pairs += 1
                    queue.append(pair)
            for other in self._containing[lhs[0]].values():
                if other is not rule:
                    for pair in catcolim._overlaps(other, rule):
                        self.critical_pairs += 1
                        queue.append(pair)
        for rid, (lhs, rhs) in list(self.rules.items()):
            self._add_rule(rid, (lhs, self.reduce(rhs)))


# -- what each completion does --------------------------------------------------

def _recording_deque(log):
    class RecordingDeque(deque):
        def popleft(self):
            item = super().popleft()
            log.append(item)
            return item

    return RecordingDeque


def completion(cls, phi, bound=BOUND):
    """The pairs popped, the rules with their ids, the critical pairs, the
    retirements and the refusal of completing Φ's presentation with
    ``cls``, and its normal form of every product of two rule sides."""
    popped, retired = [], []
    sat = cls(phi, bound)
    sat.build_object_classes()
    sat.build_presentation()
    retire = sat._retire_rule

    def counted(rid):
        retired.append(rid)
        retire(rid)

    sat._retire_rule = counted
    refusal = None
    with mock.patch.object(catcolim, "deque", _recording_deque(popped)):
        try:
            sat.complete()
        except BoundExceeded as exc:
            refusal = (str(exc), exc.trace)
    sides = [side for rule in sat.rules.values() for side in rule]
    forms = [sat.reduce(a + b) for a in sides[:40] for b in sides[:40]]
    return {
        "popped": popped,
        "rules": list(sat.rules.items()),
        "critical_pairs": sat.critical_pairs,
        "retired": retired,
        "refusal": refusal,
        "normal_forms": forms,
    }


def colimit_answer(cls, phi, bound=BOUND):
    """colimit_cat(Φ) computed with the saturator ``cls``: its colimit table,
    stats and cocone, or its refusal message and trace."""
    with mock.patch.object(catcolim, "_Saturator", cls):
        try:
            res = colimit_cat(phi, bound=bound)
        except BoundExceeded as exc:
            return ("refused", str(exc), exc.trace)
    return (
        "answered",
        res.colimit.to_dict(),
        dict(res.colimit.composition),
        res.saturation_stats,
        res.obj_class,
        res.mor_class,
    )


def assert_same(phi, bound=BOUND):
    old = completion(BucketScanSaturator, phi, bound)
    new = completion(_Saturator, phi, bound)
    assert new == old
    assert colimit_answer(_Saturator, phi, bound) == colimit_answer(
        BucketScanSaturator, phi, bound
    )
    return new


# -- inputs ----------------------------------------------------------------------

CATS = fixtures.all_categories()
FIBRES = {
    "ONE": CATS["ONE"],
    "TWO": CATS["TWO"],
    "PAIR": CATS["PAIR"],
    "Z2": CATS["Z2"],
    "Z3": CATS["Z3"],
    "S3": CATS["S3"],
    "chain3": chain(3),
}
_FUNCTORS = {}


def functors(src, tgt):
    """Every functor between two named fibres, enumerated once."""
    if (src, tgt) not in _FUNCTORS:
        _FUNCTORS[(src, tgt)] = enumerate_functors(FIBRES[src], FIBRES[tgt])
    return _FUNCTORS[(src, tgt)]


@st.composite
def adversarial_diagrams(draw):
    """Group, non-thin and chain fibres over TWO, SPAN or PAIR with any
    functors as transitions: letters are identified across fibres, and
    coequalizers and amalgams make loops and infinite colimits."""
    base = CATS[draw(st.sampled_from(["TWO", "SPAN", "PAIR"]))]
    names = {d: draw(st.sampled_from(sorted(FIBRES))) for d in base.objects}
    transitions = {}
    for u, d, e in base.morphisms:
        if not base.is_identity(u):
            transitions[u] = draw(st.sampled_from(functors(names[d], names[e])))
    fibres = {d: FIBRES[names[d]] for d in base.objects}
    return CatDiagram(base, fibres, transitions).check()


def glued_chains(n, m):
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


def hom(src, tgt, on_objects, on_morphisms):
    return FinFunctor(FIBRES[src], FIBRES[tgt], on_objects, on_morphisms).check()


def s3_amalgam():
    """Two copies of S3 glued along Z2 at different transpositions: an
    infinite group, proved infinite by a pump."""
    z2 = CATS["Z2"]
    return CatDiagram(
        CATS["SPAN"],
        {"l": CATS["S3"], "s": z2, "r": CATS["S3"]},
        {
            "le": hom("Z2", "S3", {"*": "*"}, {"e": "p012", "s": "p102"}),
            "ri": hom("Z2", "S3", {"*": "*"}, {"e": "p012", "s": "p021"}),
        },
    ).check()


def s3_with_a_transposition_killed():
    """S3 glued to ONE along the Z2 of the transposition (02): the letter
    becomes an identity, the quotient is trivial, and completion retires
    rules on the way."""
    return CatDiagram(
        CATS["SPAN"],
        {"l": CATS["ONE"], "s": CATS["Z2"], "r": CATS["S3"]},
        {
            "le": hom("Z2", "ONE", {"*": "*"}, {"e": "1", "s": "1"}),
            "ri": hom("Z2", "S3", {"*": "*"}, {"e": "p012", "s": "p210"}),
        },
    ).check()


def s3_coequalizer():
    """S3 with two transpositions identified: letters of one fibre merge."""
    return CatDiagram(
        CATS["PAIR"],
        {"p": CATS["Z2"], "q": CATS["S3"]},
        {
            "fst": hom("Z2", "S3", {"*": "*"}, {"e": "p012", "s": "p102"}),
            "snd": hom("Z2", "S3", {"*": "*"}, {"e": "p012", "s": "p021"}),
        },
    ).check()


# -- differential checks -----------------------------------------------------------

@given(st.integers(0, 10**6), st.sampled_from([("TWO", "SPAN"), ("PAIR",), ("PUSH3",)]))
@settings(max_examples=60, deadline=None)
def test_indexed_completion_agrees_on_random_cat_diagrams(seed, bases):
    phi = random_cat_diagram(random.Random(seed), max_fibre_objects=4, bases=bases)
    assert_same(phi.check())


@given(adversarial_diagrams())
@settings(max_examples=60, deadline=None)
def test_indexed_completion_agrees_on_adversarial_diagrams(phi):
    assert_same(phi)


def test_named_diagrams_agree():
    for phi in fixtures.all_cat_diagrams().values():
        assert_same(phi.check())
    for name in ("Z2", "Z3", "S3", "PAIR"):
        assert_same(CatDiagram(CATS["ONE"], {"*": FIBRES[name]}, {}).check())
    for n, m in ((2, 2), (3, 5), (5, 5), (8, 8)):
        assert_same(glued_chains(n, m))


def test_a_coequalizer_of_group_letters_agrees():
    got = assert_same(s3_coequalizer())
    assert got["refusal"] is None
    res = colimit_cat(s3_coequalizer(), bound=BOUND)
    # (01) = (12) in S3 generates the quotient Z2
    assert res.saturation_stats["morphism_classes"] == 2


def test_an_amalgam_of_groups_agrees():
    assert_same(s3_amalgam())
    answer = colimit_answer(_Saturator, s3_amalgam())
    assert answer[0] == "refused"
    assert answer[2][-1][0] == "pump"


def test_a_rule_retirement_agrees():
    got = assert_same(s3_with_a_transposition_killed())
    assert got["retired"], "completion must retire a rule"
    res = colimit_cat(s3_with_a_transposition_killed(), bound=BOUND)
    assert res.saturation_stats["morphism_classes"] == 1


def test_a_rule_bound_refusal_agrees():
    phi = CatDiagram(CATS["ONE"], {"*": layered_poset(8, 5)}, {}).check()
    got = assert_same(phi, bound=10)
    assert got["refusal"] == (
        "rewrite rule count 1001 exceeds bound 1000",
        [("rules", 1001), ("critical_pairs", got["refusal"][1][1][1])],
    )


def long_diamond(k):
    """Two chains of k arrows from b to t: free but for one relation, the
    two paths from b to t."""
    objects = ["b", *("%s%d" % (s, i) for s in "lr" for i in range(1, k)), "t"]

    def leq(x, y):
        return x == y or x == "b" or y == "t" or (
            x[0] == y[0] and int(x[1:]) <= int(y[1:])
        )

    return poset_category(objects, leq)


def cyclic(n):
    """Z_n on r0 (the identity), r1, ..., r(n-1): generated by r1, with the
    one relation r1ⁿ = 1."""
    toks = ["r%d" % i for i in range(n)]
    return category(
        ["*"],
        [(t, "*", "*") for t in toks],
        {"*": "r0"},
        {(toks[i], toks[j]): toks[(i + j) % n] for i in range(n) for j in range(n)},
    )


def power_coequalizer(n, k):
    """Z_n with r1 identified with r1ᵏ: the quotient by r1ᵏ⁻¹."""
    z = cyclic(n)
    on = {"*": "*"}
    legs = {
        "fst": FinFunctor(z, z, on, {t: t for t in z.mor_tokens}).check(),
        "snd": FinFunctor(
            z, z, on, {"r%d" % i: "r%d" % (i * k % n) for i in range(n)}
        ).check(),
    }
    return CatDiagram(CATS["PAIR"], {"p": z, "q": z}, legs).check()


def longest(got):
    return max(len(lhs) for _, (lhs, _) in got["rules"])


def test_long_left_sides_agree():
    # (R1) writes a∘m as nf(m)·a, one letter longer than the normal form of
    # m: the two paths of a long diamond give a left side of k letters, and
    # r1ⁿ = 1 in Z_n one of n letters that overlaps itself n - 1 times
    for k in (3, 5, 8):
        got = assert_same(
            CatDiagram(CATS["ONE"], {"*": long_diamond(k)}, {}).check()
        )
        assert longest(got) == k
    for name in ("Z3", "S3"):
        got = assert_same(CatDiagram(CATS["ONE"], {"*": FIBRES[name]}, {}).check())
        assert longest(got) == 3
    for n in (5, 8):
        got = assert_same(CatDiagram(CATS["ONE"], {"*": cyclic(n)}, {}).check())
        assert longest(got) == n
        assert got["critical_pairs"] == n - 1
    # identifying r1 with r1ᵏ retires the long left side: Z_8 / r1⁴ = Z_4
    got = assert_same(power_coequalizer(8, 5))
    assert got["retired"] and longest(got) == 4
    res = colimit_cat(power_coequalizer(8, 5), bound=BOUND)
    assert res.saturation_stats["morphism_classes"] == 4
