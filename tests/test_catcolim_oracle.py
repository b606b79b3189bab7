"""Differential tests of the Cat-colimit against the saturator it replaced.

The saturator below closed the letter normal forms under composition until
no new word appeared, and refused when a word grew past a length cap.  It
lives on here as an oracle: where it answers, the automaton-based
``colimit_cat`` must give the same category, token for token; where the new
code proves a colimit infinite, its pump must really pump; where only the
new code answers, its colimit must certify.
"""
import random
import time
from collections import deque

from hypothesis import given, settings, strategies as st

from fibrelab import fixtures
from fibrelab.catcolim import (
    CatColimitResult,
    _Saturator,
    colimit_cat,
    verify_cat_cocone,
)
from fibrelab.errors import BoundExceeded, NaturalityFailure
from fibrelab.fincat import FinCategory, FinFunctor, category, compose_functor
from fibrelab.finset import UnionFind
from fibrelab.grothendieck import CatDiagram
from fibrelab.randgen import chain, poset_category, random_cat_diagram

BOUND = 300


# -- the saturator that colimit_cat replaced, kept as an oracle ---------------

class OracleSaturator:
    def __init__(self, phi, bound):
        self.phi = phi
        self.sh = phi.shape
        self.bound = bound
        # secondary resource guard: a diverging completion grows its rule
        # set without bound, and a diverging enumeration examines ever more
        # words, long before the class bound becomes reachable
        self.word_bound = max(20 * bound, 1000)
        # in the non-terminating case irreducible word lengths double every
        # pass while the class count only doubles with them, so a length cap
        # detects divergence long before the class bound becomes reachable
        self.length_cap = 64
        self.trace = []
        self.obj_uf = UnionFind()
        self.rules = []
        self._rules_by_first = {}

    def _oc(self, d, x):
        return self.obj_uf.find("%s|%s" % (d, x))

    def build_object_classes(self):
        for d in self.sh.objects:
            for x in self.phi.fibre(d).objects:
                self.obj_uf.find("%s|%s" % (d, x))
        for u, d, e in self.sh.morphisms:
            t = self.phi.transition(u)
            for x in self.phi.fibre(d).objects:
                self.obj_uf.union("%s|%s" % (d, x), "%s|%s" % (e, t.ob(x)))

    def build_letter_classes(self):
        uf = UnionFind()
        letters = []
        for d in self.sh.objects:
            for f in self.phi.fibre(d).mor_tokens:
                letters.append((d, f))
                uf.find((d, f))
        for u, d, e in self.sh.morphisms:
            t = self.phi.transition(u)
            for f in self.phi.fibre(d).mor_tokens:
                uf.union((d, f), (e, t.mor(f)))
        members = {}
        for lt in letters:
            members.setdefault(uf.find(lt), []).append(lt)
        # canonical letter per class; None marks classes that contain an
        # identity letter and are therefore identities of the colimit
        self.letter_class = {}
        self.alphabet = []
        for ms in members.values():
            is_id = any(self.phi.fibre(d).is_identity(f) for d, f in ms)
            canon = min(ms)
            for lt in ms:
                self.letter_class[lt] = None if is_id else canon
            if not is_id:
                self.alphabet.append(canon)
        self.alphabet.sort()

    def strip(self, raw_word):
        """Canonicalize letters and drop the ones that are identities."""
        out = []
        for lt in raw_word:
            canon = self.letter_class[lt]
            if canon is not None:
                out.append(canon)
        return tuple(out)

    def word_dom(self, word):
        d, f = word[0]
        return self._oc(d, self.phi.fibre(d).dom(f))

    def word_cod(self, word):
        d, f = word[-1]
        return self._oc(d, self.phi.fibre(d).cod(f))

    # -- completion ---------------------------------------------------------

    def reduce(self, word):
        changed = True
        while changed:
            changed = False
            for i in range(len(word)):
                for lhs, rhs in self._rules_by_first.get(word[i], ()):
                    n = len(lhs)
                    if word[i : i + n] == lhs:
                        word = word[:i] + rhs + word[i + n :]
                        changed = True
                        break
                if changed:
                    break
        return word

    @staticmethod
    def _critical_pairs(rule1, rule2):
        l1, r1 = rule1
        l2, r2 = rule2
        out = []
        # proper overlap: a suffix of l1 is a prefix of l2
        for k in range(1, min(len(l1), len(l2))):
            if l1[len(l1) - k :] == l2[:k]:
                out.append((r1 + l2[k:], l1[: len(l1) - k] + r2))
        # containment: l2 occurs inside l1
        if len(l2) < len(l1) or (len(l2) == len(l1) and rule1 is not rule2):
            for i in range(len(l1) - len(l2) + 1):
                if l1[i : i + len(l2)] == l2:
                    out.append((r1, l1[:i] + r2 + l1[i + len(l2) :]))
        return out

    def complete(self):
        eqs = set()
        for d in self.sh.objects:
            fib = self.phi.fibre(d)
            for g, f in fib.composable_pairs():
                if fib.is_identity(f) or fib.is_identity(g):
                    continue
                lhs = self.strip(((d, f), (d, g)))
                rhs = self.strip(((d, fib.compose(g, f)),))
                if lhs != rhs:
                    eqs.add((lhs, rhs))
        queue = deque(sorted(eqs))
        while queue:
            u, v = queue.popleft()
            u, v = self.reduce(u), self.reduce(v)
            if u == v:
                continue
            lhs, rhs = (u, v) if (len(u), u) > (len(v), v) else (v, u)
            if len(lhs) > self.length_cap:
                raise BoundExceeded(
                    "rewrite rule length %d exceeds cap %d"
                    % (len(lhs), self.length_cap),
                    self.trace + [("rule-length", len(lhs))],
                )
            rule = (lhs, rhs)
            self.rules.append(rule)
            self._rules_by_first.setdefault(lhs[0], []).append(rule)
            if len(self.rules) > self.word_bound:
                raise BoundExceeded(
                    "rewrite rule count %d exceeds bound %d"
                    % (len(self.rules), self.word_bound),
                    self.trace + [("rules", len(self.rules))],
                )
            for other in self.rules:
                queue.extend(self._critical_pairs(rule, other))
                if other is not rule:
                    queue.extend(self._critical_pairs(other, rule))

    def saturate(self):
        self.build_object_classes()
        self.build_letter_classes()
        self.complete()
        examined = set()
        normal_forms = set()
        for d in self.sh.objects:
            for x in self.phi.fibre(d).objects:
                examined.add(("id", self._oc(d, x)))
        for letter in self.alphabet:
            w = self.reduce((letter,))
            examined.add((letter,))
            examined.add(w)
            if w:
                normal_forms.add(w)
        iterations = 0
        while True:
            iterations += 1
            self.trace.append(len(normal_forms))
            if len(normal_forms) > self.bound:
                raise BoundExceeded(
                    "morphism class count %d exceeds bound %d"
                    % (len(normal_forms), self.bound),
                    self.trace,
                )
            new = set()
            for w1 in normal_forms:
                for w2 in normal_forms:
                    if self.word_cod(w1) != self.word_dom(w2):
                        continue
                    nf = self.reduce(w1 + w2)  # w1 then w2
                    if len(nf) > self.length_cap:
                        raise BoundExceeded(
                            "word length %d exceeds cap %d"
                            % (len(nf), self.length_cap),
                            self.trace + [("length", len(nf))],
                        )
                    examined.add(nf)
                    if len(examined) > self.word_bound:
                        raise BoundExceeded(
                            "examined word count %d exceeds bound %d"
                            % (len(examined), self.word_bound),
                            self.trace + [("words", len(examined))],
                        )
                    if nf and nf not in normal_forms:
                        new.add(nf)
            if not new:
                break
            normal_forms |= new
        self.examined = examined
        return normal_forms, self.trace, iterations



def oracle_colimit_cat(phi, bound=10000):
    """The colimit by saturation: close the letter normal forms under
    composition until no new word appears."""
    phi.check()
    sat = OracleSaturator(phi, bound)
    normal_forms, trace, iterations = sat.saturate()
    sh = phi.shape
    # deterministic object order: first occurrence in declared order
    obj_order, seen = [], set()
    for d in sh.objects:
        for x in phi.fibre(d).objects:
            root = sat._oc(d, x)
            if root not in seen:
                seen.add(root)
                obj_order.append(root)

    def word_token(word):
        return ";".join("%s:%s" % (d, f) for d, f in word)

    def id_token(oc):
        return "id@%s" % oc

    identities = {oc: id_token(oc) for oc in obj_order}
    mor_order = [(id_token(oc), oc, oc) for oc in obj_order]
    for w in sorted(normal_forms, key=lambda w: (len(w), w)):
        mor_order.append((word_token(w), sat.word_dom(w), sat.word_cod(w)))
    composition = {}
    for w2 in normal_forms:
        for w1 in normal_forms:
            if sat.word_cod(w1) != sat.word_dom(w2):
                continue
            nf = sat.reduce(w1 + w2)  # w1 then w2
            composition[(word_token(w2), word_token(w1))] = (
                word_token(nf) if nf else id_token(sat.word_dom(w1))
            )
    for tok, a, b in mor_order:
        composition[(id_token(b), tok)] = tok
        composition[(tok, id_token(a))] = tok
    colimit = FinCategory(
        obj_order, mor_order, identities, composition
    ).check()
    obj_class, mor_class = {}, {}
    cocone = {}
    for d in sh.objects:
        fib = phi.fibre(d)
        on_objects = {x: sat._oc(d, x) for x in fib.objects}
        on_morphisms = {}
        for f in fib.mor_tokens:
            w = sat.reduce(sat.strip(((d, f),)))
            on_morphisms[f] = (
                word_token(w) if w else id_token(sat._oc(d, fib.dom(f)))
            )
        cocone[d] = FinFunctor(fib, colimit, on_objects, on_morphisms).check()
        obj_class.update({(d, x): on_objects[x] for x in fib.objects})
        mor_class.update({(d, f): on_morphisms[f] for f in fib.mor_tokens})
    result = CatColimitResult(
        colimit,
        cocone,
        {
            "object_classes": len(obj_order),
            "morphism_classes": len(mor_order),
            "iterations": iterations,
            "discovered_words": len(sat.examined),
            "growth_trace": trace,
        },
        obj_class,
        mor_class,
    )
    # internal consistency: legs commute with transitions
    for u, d, e in sh.morphisms:
        if compose_functor(cocone[e], phi.transition(u)) != cocone[d]:
            raise NaturalityFailure(("own cocone not natural", u))
    return result


# -- inputs --------------------------------------------------------------------

def glued_chains(n, m):
    """chain(n) glued end to start onto chain(m) along SPAN: chain(n + m - 1)."""
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


def zigzag_chains(k):
    """k copies of chain(2), each glued end to start onto the next along a
    zigzag base c0 <- p0 -> c1 <- p1 -> ...: the colimit is chain(k + 1)."""
    pt = fixtures.one()
    cs = ["c%02d" % i for i in range(k)]
    ps = ["p%02d" % i for i in range(k - 1)]
    fibres = {c: chain(2) for c in cs}
    fibres.update({p: pt for p in ps})
    morphisms = [("id" + o, o, o) for o in cs + ps]
    composition = {("id" + o, "id" + o): "id" + o for o in cs + ps}
    transitions = {}
    for i, p in enumerate(ps):
        for u, c, x in (("t" + p, cs[i], "c1"), ("b" + p, cs[i + 1], "c0")):
            morphisms.append((u, p, c))
            composition[(u, "id" + p)] = composition[("id" + c, u)] = u
            transitions[u] = FinFunctor(pt, fibres[c], {"*": x}, {"1": "id" + x})
    base = category(cs + ps, morphisms, {o: "id" + o for o in cs + ps}, composition)
    return CatDiagram(base, fibres, transitions).check()


def _inputs():
    named = list(fixtures.all_cat_diagrams().values())
    chains = st.builds(glued_chains, st.integers(2, 5), st.integers(2, 5))
    zigzags = st.builds(zigzag_chains, st.integers(2, 6))
    randoms = st.builds(
        lambda seed, bases: random_cat_diagram(
            random.Random(seed), max_fibre_objects=3, bases=bases
        ),
        st.integers(0, 10**6),
        st.sampled_from([("TWO", "SPAN"), ("PAIR",), ("PUSH3",)]),
    )
    return st.one_of(st.sampled_from(named), chains, zigzags, randoms)


# -- differential checks ---------------------------------------------------------

def _answer(colimit, phi, bound):
    try:
        return colimit(phi, bound=bound), None
    except BoundExceeded as exc:
        return None, exc


def _pump(exc):
    kind, u, v, w = exc.trace[-1]
    assert kind == "pump"
    return u, v, w


def _completed(phi, bound):
    sat = _Saturator(phi.check(), bound)
    sat.build_object_classes()
    sat.build_presentation()
    sat.complete()
    return sat


def _assert_pump_pumps(phi, exc):
    u, v, w = _pump(exc)
    assert v, "the pumped factor must not be empty"
    sat = _completed(phi, BOUND)
    rules = list(sat.rules.values())
    # the system is confluent: every overlap of two rules is joinable
    for r1 in rules:
        for r2 in rules:
            for a, b in OracleSaturator._critical_pairs(r1, r2):
                assert sat.reduce(a) == sat.reduce(b), (r1, r2)
    # so distinct irreducible words are distinct morphisms; the pump is
    # written in the generator letters (d, a) of the presentation
    number = {lt: i for i, lt in enumerate(sat.letters)}
    for k in range(5):
        word = tuple(number[lt] for lt in u + v * k + w)
        assert sat.reduce(word) == word, k
        for a, b in zip(word, word[1:]):
            assert sat.cod_of[a] == sat.dom_of[b], (k, a, b)


def _same_colimit(new, old):
    assert new.colimit.to_dict() == old.colimit.to_dict()
    assert new.colimit.mor_tokens == old.colimit.mor_tokens
    assert dict(new.colimit.composition) == dict(old.colimit.composition)
    assert new.obj_class == old.obj_class
    assert new.mor_class == old.mor_class
    for d, leg in old.cocone.items():
        assert new.cocone[d].on_objects == leg.on_objects
        assert new.cocone[d].on_morphisms == leg.on_morphisms
    assert new.saturation_stats["object_classes"] == old.saturation_stats["object_classes"]
    assert (
        new.saturation_stats["morphism_classes"]
        == old.saturation_stats["morphism_classes"]
    )


@given(_inputs())
@settings(max_examples=60, deadline=None)
def test_colimit_cat_agrees_with_the_saturation_oracle(phi):
    phi.check()
    new, refusal = _answer(colimit_cat, phi, BOUND)
    old, old_refusal = _answer(oracle_colimit_cat, phi, BOUND)
    if new is not None:
        stats = new.saturation_stats
        assert stats["discovered_words"] >= stats["morphism_classes"]
        assert len(stats["growth_trace"]) == stats["iterations"]
        assert (stats["growth_trace"] or [0])[-1] == (
            stats["morphism_classes"] - stats["object_classes"]
        )
    if old is not None:
        assert new is not None, str(refusal)
        _same_colimit(new, old)
    elif new is not None:
        assert verify_cat_cocone(phi, new.colimit, new.cocone, kres=new).ok
    if refusal is not None and refusal.trace[-1][0] == "pump":
        _assert_pump_pumps(phi, refusal)


def test_loop_coequalizers_are_proved_infinite():
    # identify both ends of chain(n): a free loop through every object
    for n in (2, 3, 4, 5):
        pt, c = fixtures.one(), chain(n)
        top = "c%d" % (n - 1)
        phi = CatDiagram(
            fixtures.pair(),
            {"p": pt, "q": c},
            {
                "fst": FinFunctor(pt, c, {"*": "c0"}, {"1": "idc0"}),
                "snd": FinFunctor(pt, c, {"*": top}, {"1": "id" + top}),
            },
        ).check()
        for bound in (100, 10000):
            new, refusal = _answer(colimit_cat, phi, bound)
            assert new is None
            _assert_pump_pumps(phi, refusal)


def test_count_refusal_is_exact():
    # chain(9) glued from two chain(5): 36 non-identity morphisms
    phi = glued_chains(5, 5)
    assert colimit_cat(phi, bound=36).saturation_stats["morphism_classes"] == 45
    _, refusal = _answer(colimit_cat, phi, 35)
    assert str(refusal) == "morphism class count 36 exceeds bound 35"
    assert refusal.trace[-1] == ("normal_forms", 36)


def layered_poset(width, height):
    """``height`` antichains of ``width`` objects, each below every object
    of the later ones: width² · (width - 1) commuting squares between each
    layer and the next but one."""
    rank = {"l%d_%d" % (i, j): i for i in range(height) for j in range(width)}
    return poset_category(list(rank), lambda x, y: x == y or rank[x] < rank[y])


def test_rule_count_is_bounded():
    # five layers of eight complete to 3 * 8² * 7 = 1344 rules; chain(16)
    # glued onto chain(16), which completed to 1120 rules over the letter
    # classes, completes with none over the generators
    phi = CatDiagram(fixtures.one(), {"*": layered_poset(8, 5)}, {}).check()
    _, refusal = _answer(colimit_cat, phi, 10)
    assert str(refusal) == "rewrite rule count 1001 exceeds bound 1000"
    assert refusal.trace[0] == ("rules", 1001)


def test_long_zigzag_gluing_is_answered():
    # the saturator refused this finite colimit after 8 s: "word length 65
    # exceeds cap 64"
    phi = zigzag_chains(65)
    start = time.time()
    res = colimit_cat(phi)
    elapsed = time.time() - start
    assert len(res.colimit.objects) == 66
    assert len(res.colimit.morphisms) == 2211
    assert res.saturation_stats["iterations"] == 65
    assert elapsed < 4.0
    assert verify_cat_cocone(phi, res.colimit, res.cocone, kres=res).ok
