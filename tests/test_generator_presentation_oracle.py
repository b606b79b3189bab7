"""The Cat-colimit by letter classes, kept as an oracle for the presentation
by generators.

``LetterClassSaturator`` and ``letter_class_colimit_cat`` are the saturator
and the ``colimit_cat`` that :mod:`fibrelab.catcolim` used before it
presented each fibre by its generators: every non-identity fibre morphism is
a letter, letters are classed under (d, f) ~ (e, Φu f), and every composable
pair of a fibre is an equation, so completion rediscovers each fibre's
composition table.  Its normal forms are the shortlex-least words over the
letter classes, which the new code renders from its own colimit, so both must
give the same tokens, tables, cocones, classes and stats (the four work
counters of the completion aside) and the same kinds of refusal.
"""
import random
from collections import deque

from hypothesis import given, settings

from fibrelab import fixtures
from fibrelab.catcolim import (
    DEFAULT_BOUND,
    _START,
    CatColimitResult,
    _occurs,
    _overlaps,
    _word_token,
    colimit_cat,
)
from fibrelab.errors import BoundExceeded, NaturalityFailure
from fibrelab.fincat import FinCategory, FinFunctor, compose_functor
from fibrelab.finset import UnionFind
from fibrelab.grothendieck import CatDiagram
from fibrelab.randgen import random_cat_diagram

# at module level: an import inside a @given body would run that module's
# own @given functions there
from test_catcolim_oracle import _assert_pump_pumps, glued_chains, zigzag_chains
from test_completion_index_oracle import (
    adversarial_diagrams,
    cyclic,
    long_diamond,
    power_coequalizer,
    s3_amalgam,
    s3_coequalizer,
    s3_with_a_transposition_killed,
)
from test_golden_reports import halving_bifibration, loop_coequalizer


# -- the letter-class saturator, kept as an oracle -------------------------------

class LetterClassSaturator:
    def __init__(self, phi, bound):
        self.phi = phi
        self.sh = phi.shape
        self.bound = bound
        # completion of an infinite colimit can add rules forever
        self.rule_bound = max(20 * bound, 1000)
        self.obj_uf = UnionFind()

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
        # pushes preserve endpoints up to object class, so every member of a
        # letter class has the same ones
        self.dom_of, self.cod_of = {}, {}
        self.letters_from = {None: self.alphabet}
        for d, f in self.alphabet:
            fib = self.phi.fibre(d)
            dom = self.dom_of[(d, f)] = self._oc(d, fib.dom(f))
            self.cod_of[(d, f)] = self._oc(d, fib.cod(f))
            self.letters_from.setdefault(dom, []).append((d, f))

    def strip(self, raw_word):
        """Canonicalize letters and drop the ones that are identities."""
        out = []
        for lt in raw_word:
            canon = self.letter_class[lt]
            if canon is not None:
                out.append(canon)
        return tuple(out)

    def word_dom(self, word):
        return self.dom_of[word[0]]

    def word_cod(self, word):
        return self.cod_of[word[-1]]

    # -- 1. completion ------------------------------------------------------

    def reduce(self, word, start=0):
        """The normal form of ``word`` under the current rules, where no left
        side occurs at a position before ``start``."""
        rule_at, lengths, back = self._rule_at, self._lengths, self.max_lhs - 1
        i = start if start > 0 else 0
        while i < len(word):
            # left sides are reduced, so at most one occurs at i
            for n in lengths:
                rule = rule_at.get(word[i : i + n])
                if rule is not None:
                    word = word[:i] + rule[1] + word[i + n :]
                    # a new occurrence overlaps the replaced span
                    i = i - back if i > back else 0
                    break
            else:
                i += 1
        return word

    def _add_rule(self, rid, rule):
        lhs = rule[0]
        self.rules[rid] = self._rule_at[lhs] = rule
        self._lengths[len(lhs)] = self._lengths.get(len(lhs), 0) + 1
        self._by_first.setdefault(lhs[0], {})[rid] = rule
        self._by_last.setdefault(lhs[-1], {})[rid] = rule
        for a in dict.fromkeys(lhs):
            self._containing.setdefault(a, {})[rid] = rule
        for ab in dict.fromkeys(zip(lhs, lhs[1:])):
            self._by_bigram.setdefault(ab, {})[rid] = rule
        self.max_lhs = max(self.max_lhs, len(lhs))

    def _retire_rule(self, rid):
        lhs = self.rules.pop(rid)[0]
        del self._rule_at[lhs]
        self._lengths[len(lhs)] -= 1
        if not self._lengths[len(lhs)]:
            del self._lengths[len(lhs)]
        del self._by_first[lhs[0]][rid]
        del self._by_last[lhs[-1]][rid]
        for a in dict.fromkeys(lhs):
            del self._containing[a][rid]
        for ab in dict.fromkeys(zip(lhs, lhs[1:])):
            del self._by_bigram[ab][rid]

    def complete(self):
        self.rules = {}  # rule id -> (lhs, rhs), alive rules in creation order
        self._rule_at = {}  # lhs -> rule
        self._lengths = {}  # left-side length -> number of alive rules
        # letter (or bigram) -> {rule id: rule}, in rule-id order, for the
        # rules whose lhs starts with it / ends with it / contains it
        self._by_first, self._by_last = {}, {}
        self._containing, self._by_bigram = {}, {}
        self.max_lhs = 1
        self.critical_pairs = 0
        eqs = {}
        for d in self.sh.objects:
            fib = self.phi.fibre(d)
            for g, f in fib.composable_pairs():
                if fib.is_identity(f) or fib.is_identity(g):
                    continue
                lhs = self.strip(((d, f), (d, g)))
                rhs = self.strip(((d, fib.compose(g, f)),))
                if lhs != rhs:
                    eqs[(lhs, rhs)] = None
        queue = deque(sorted(eqs))
        next_id = 0
        while queue:
            u, v = queue.popleft()
            u, v = self.reduce(u), self.reduce(v)
            if u == v:
                continue
            rule = (u, v) if (len(u), u) > (len(v), v) else (v, u)
            lhs = rule[0]
            # lhs is irreducible, so it contains no older left side; an older
            # left side that contains lhs (so its first bigram, or its one
            # letter) is retired and its equation reprocessed, which keeps
            # the left sides reduced
            holders = (
                self._by_bigram.get(lhs[:2], {})
                if len(lhs) > 1
                else self._containing.get(lhs[0], {})
            )
            for rid, old in list(holders.items()):
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
            # a proper overlap with lhs in front needs the other left side to
            # start at a letter of lhs after its first; the buckets are read
            # in order of first occurrence in lhs
            inner = set(lhs[1:])
            for a in dict.fromkeys(lhs):
                if a in inner:
                    for other in self._by_first.get(a, {}).values():
                        for pair in _overlaps(rule, other):
                            self.critical_pairs += 1
                            queue.append(pair)
            # with lhs behind, the other left side ends at a letter of lhs
            # before its last; those rules are read in rule-id order
            behind = {}
            for a in dict.fromkeys(lhs[:-1]):
                behind.update(self._by_last.get(a, {}))
            for rid in sorted(behind):
                other = behind[rid]
                if other is not rule:
                    for pair in _overlaps(other, rule):
                        self.critical_pairs += 1
                        queue.append(pair)
        # only ``rules`` and ``_rule_at`` are read after completion
        for rid, (lhs, rhs) in list(self.rules.items()):
            self.rules[rid] = self._rule_at[lhs] = (lhs, self.reduce(rhs))

    # -- 2. finiteness ------------------------------------------------------

    def build_automaton(self):
        """The Aho–Corasick trie of the left sides: ``children``, ``fail``,
        ``depth`` per node, and ``match`` — the rule whose left side ends
        there, or None."""
        self.children, self.depth, self.match = [{}], [0], [None]
        for lhs, rhs in self.rules.values():
            node = 0
            for a in lhs:
                nxt = self.children[node].get(a)
                if nxt is None:
                    nxt = len(self.children)
                    self.children[node][a] = nxt
                    self.children.append({})
                    self.depth.append(self.depth[node] + 1)
                    self.match.append(None)
                node = nxt
            self.match[node] = (lhs, rhs)
        self.fail = [0] * len(self.children)
        queue = deque(self.children[0].values())
        while queue:
            node = queue.popleft()
            if self.match[node] is None:
                self.match[node] = self.match[self.fail[node]]
            for a, child in self.children[node].items():
                self.fail[child] = self.step(self.fail[node], a)
                queue.append(child)
        self._edges = {}

    def step(self, node, a):
        """The trie node after reading letter ``a`` at ``node``."""
        while node and a not in self.children[node]:
            node = self.fail[node]
        return self.children[node].get(a, 0)

    def edges(self, state):
        """(letter, next state) for each letter that extends an irreducible
        composable word ending at ``state`` to another one."""
        out = self._edges.get(state)
        if out is None:
            node, cls = state
            out = []
            for a in self.letters_from.get(cls, ()):
                nxt = self.step(node, a)
                if self.match[nxt] is None:
                    out.append((a, (nxt, self.cod_of[a])))
            self._edges[state] = out
        return out

    def decide(self):
        """The reachable states in topological order, or BoundExceeded with
        a pump if a cycle is reachable."""
        position = {_START: 0}  # states on the depth-first path
        done = {}
        path = [(_START, None, iter(self.edges(_START)))]
        order = []
        while path:
            state, _, todo = path[-1]
            for a, nxt in todo:
                if nxt in done:
                    continue
                if nxt in position:
                    letters = [lt for _, lt, _ in path[1:]] + [a]
                    i = position[nxt]
                    pump = (tuple(letters[:i]), tuple(letters[i:]), ())
                    raise BoundExceeded(
                        "colimit is infinite: u v^k w is a composable "
                        "irreducible word for every k, with u = [%s], "
                        "v = [%s], w = []"
                        % (_word_token(pump[0]), _word_token(pump[1])),
                        self._stats_trace(len(position) + len(done) - 1)
                        + [("pump",) + pump],
                    )
                position[nxt] = len(path)
                path.append((nxt, a, iter(self.edges(nxt))))
                break
            else:
                del position[state]
                done[state] = None
                order.append(state)
                path.pop()
        order.reverse()
        return order

    def _stats_trace(self, states):
        return [
            ("rules", len(self.rules)),
            ("critical_pairs", self.critical_pairs),
            ("automaton_states", states),
        ]

    # -- 3. count and 4. enumeration ----------------------------------------

    def count(self, order):
        """The exact number of non-identity normal forms."""
        ways = dict.fromkeys(order, 0)
        ways[_START] = 1
        for state in order:
            for _, nxt in self.edges(state):
                ways[nxt] += ways[state]
        return sum(ways.values()) - 1

    def normal_forms(self):
        """Every non-identity normal form, shortest first and then
        lexicographically, with the trie node it ends at."""
        self.node_of = {}
        todo = [(_START, ())]
        while todo:
            state, word = todo.pop()
            for a, nxt in self.edges(state):
                w = word + (a,)
                self.node_of[w] = nxt[0]
                todo.append((nxt, w))
        return sorted(self.node_of, key=lambda w: (len(w), w))

    def product(self, w1, w2):
        """The normal form of w1 then w2, for composable normal forms, and
        whether it had to be rewritten."""
        node = self.node_of[w1]
        for j, a in enumerate(w2):
            # once the tracked suffix lies inside w2, no left side can
            # straddle the seam: w2 is irreducible
            if self.depth[node] <= j:
                break
            node = self.step(node, a)
            if self.match[node] is not None:
                return self.reduce(w1 + w2, len(w1) - self.max_lhs + 1), True
        return w1 + w2, False

    def saturate(self):
        self.build_object_classes()
        self.build_letter_classes()
        self.complete()
        self.build_automaton()
        order = self.decide()
        self.states = len(order) - 1  # the start reads no word
        total = self.count(order)
        if total > self.bound:
            raise BoundExceeded(
                "morphism class count %d exceeds bound %d" % (total, self.bound),
                self._stats_trace(self.states) + [("normal_forms", total)],
            )
        return self.normal_forms()


def letter_class_colimit_cat(phi, bound=DEFAULT_BOUND):
    """The colimit of a strict covariant Cat-valued diagram.

    ``saturation_stats`` holds deterministic counts:

    - object_classes, morphism_classes: objects and morphisms of the
      colimit, identities included;
    - iterations: the length of the longest normal form;
    - growth_trace: the non-identity normal forms of length at most
      1, 2, ..., iterations;
    - discovered_words: the morphism classes plus the composable products
      of two normal forms that had to be rewritten, each such word examined
      once, so never below morphism_classes;
    - rules, critical_pairs: the size of the reduced complete system and the
      critical pairs formed while completing it;
    - automaton_states: the automaton states reachable from the start.
    """
    phi.check()
    sat = LetterClassSaturator(phi, bound)
    normal_forms = sat.saturate()
    sh = phi.shape
    # deterministic object order: first occurrence in declared order
    obj_order, seen = [], set()
    for d in sh.objects:
        for x in phi.fibre(d).objects:
            root = sat._oc(d, x)
            if root not in seen:
                seen.add(root)
                obj_order.append(root)

    def id_token(oc):
        return "id@%s" % oc

    identities = {oc: id_token(oc) for oc in obj_order}
    mor_order = [(id_token(oc), oc, oc) for oc in obj_order]
    token = {}
    by_dom = {}
    growth = []  # normal forms of length at most 1, 2, ...
    for w in normal_forms:
        token[w] = _word_token(w)
        mor_order.append((token[w], sat.word_dom(w), sat.word_cod(w)))
        by_dom.setdefault(sat.word_dom(w), []).append(w)
        if len(w) > len(growth):
            growth.append(growth[-1] if growth else 0)
        growth[-1] += 1
    composition = {}
    rewritten = 0
    for w1 in normal_forms:
        for w2 in by_dom.get(sat.word_cod(w1), ()):
            nf, changed = sat.product(w1, w2)
            rewritten += changed
            composition[(token[w2], token[w1])] = (
                token[nf] if nf else id_token(sat.word_dom(w1))
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
            on_morphisms[f] = token[w] if w else id_token(sat._oc(d, fib.dom(f)))
        cocone[d] = FinFunctor(fib, colimit, on_objects, on_morphisms).check()
        obj_class.update({(d, x): on_objects[x] for x in fib.objects})
        mor_class.update({(d, f): on_morphisms[f] for f in fib.mor_tokens})
    result = CatColimitResult(
        colimit,
        cocone,
        {
            "object_classes": len(obj_order),
            "morphism_classes": len(mor_order),
            "iterations": len(growth),
            "discovered_words": len(mor_order) + rewritten,
            "growth_trace": growth,
            "rules": len(sat.rules),
            "critical_pairs": sat.critical_pairs,
            "automaton_states": sat.states,
        },
        obj_class,
        mor_class,
    )
    # internal consistency: legs commute with transitions
    for u, d, e in sh.morphisms:
        if compose_functor(cocone[e], phi.transition(u)) != cocone[d]:
            raise NaturalityFailure(("own cocone not natural", u))
    return result


# -- differential checks -------------------------------------------------------------

# the work counters of the completion, which count a different presentation
COUNTERS = ("rules", "critical_pairs", "automaton_states", "discovered_words")


def _answer(colimit, phi, bound):
    try:
        return colimit(phi, bound=bound), None
    except BoundExceeded as exc:
        return None, exc


def _kind(refusal):
    """pump, the exact count, or the rule count."""
    last = refusal.trace[-1]
    if last[0] == "pump":
        return ("pump",)
    if last[0] == "normal_forms":
        return last
    return ("rules",)


def assert_agree(phi, bound=DEFAULT_BOUND):
    """The same colimit, token for token, or the same kind of refusal; a
    pump must pump.  Returns the new answer."""
    phi.check()
    new, refusal = _answer(colimit_cat, phi, bound)
    old, old_refusal = _answer(letter_class_colimit_cat, phi, bound)
    if old is None:
        assert new is None, str(old_refusal)
        assert _kind(refusal) == _kind(old_refusal), (str(refusal), str(old_refusal))
        if refusal.trace[-1][0] == "pump":
            _assert_pump_pumps(phi, refusal)
        return refusal
    assert new is not None, str(refusal)
    assert new.colimit.to_dict() == old.colimit.to_dict()
    assert new.colimit.mor_tokens == old.colimit.mor_tokens
    assert dict(new.colimit.composition) == dict(old.colimit.composition)
    assert new.obj_class == old.obj_class
    assert new.mor_class == old.mor_class
    assert new.cocone.keys() == old.cocone.keys()
    for d, leg in old.cocone.items():
        assert new.cocone[d].on_objects == leg.on_objects
        assert new.cocone[d].on_morphisms == leg.on_morphisms
    stats, old_stats = new.saturation_stats, old.saturation_stats
    assert stats.keys() == old_stats.keys()
    for key in stats:
        if key not in COUNTERS:
            assert stats[key] == old_stats[key], key
    assert stats["discovered_words"] >= stats["morphism_classes"]
    return new


def test_fixtures_and_golden_inputs_agree():
    for phi in fixtures.all_cat_diagrams().values():
        assert_agree(phi, bound=300)
    for base in ("TWO", "SPAN", "PAIR"):
        assert_agree(halving_bifibration(base, 3))
    assert_agree(glued_chains(3, 4))
    assert_agree(loop_coequalizer(4), bound=40)


def test_random_cat_diagrams_agree():
    finite = 0
    for seed in range(600):
        phi = random_cat_diagram(random.Random(seed), max_fibre_objects=4)
        finite += not isinstance(assert_agree(phi, bound=2000), BoundExceeded)
    assert finite == 554


def test_glued_chains_agree():
    for n in range(2, 9):
        assert_agree(glued_chains(n, n))
    for n, m in ((3, 5), (12, 12), (16, 9), (24, 24), (32, 32)):
        res = assert_agree(glued_chains(n, m))
        # a chain fibre is free on its generators: no rule, no pair
        stats = res.saturation_stats
        assert stats["rules"] == stats["critical_pairs"] == 0
        assert stats["discovered_words"] == stats["morphism_classes"]
    assert_agree(zigzag_chains(12))


def test_loop_coequalizers_refuse_alike():
    for n in range(2, 7):
        for bound in (40, 1000):
            refusal = assert_agree(loop_coequalizer(n), bound=bound)
            assert refusal.trace[-1][0] == "pump"
    # the pump of chain(4) is in generator letters: once up, then around
    _, u, v, w = assert_agree(loop_coequalizer(4), bound=1000).trace[-1]
    assert u == (("q", "c0<c1"),)
    assert v == (("q", "c1<c2"), ("q", "c2<c3"), ("q", "c0<c1"))
    assert w == ()


def test_count_refusals_agree():
    for bound in (35, 36, 100):
        assert_agree(glued_chains(5, 5), bound=bound)
        assert_agree(glued_chains(12, 12), bound=bound)


def test_group_fibres_agree():
    for phi in (s3_amalgam(), s3_coequalizer(), s3_with_a_transposition_killed()):
        assert_agree(phi, bound=50)
    for n in (5, 8):
        for k in (2, 3, 5):
            assert_agree(power_coequalizer(n, k), bound=50)
    one = fixtures.one()
    for k in (3, 5):
        assert_agree(CatDiagram(one, {"*": long_diamond(k)}, {}), bound=50)
        assert_agree(CatDiagram(one, {"*": cyclic(k)}, {}), bound=50)


@given(adversarial_diagrams())
@settings(max_examples=60, deadline=None)
def test_adversarial_diagrams_agree(phi):
    assert_agree(phi, bound=50)
