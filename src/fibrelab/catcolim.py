"""Colimits in Cat by completion and a finite automaton.

Objects of the colimit are union-find classes of fibre objects under
(d, x) ~ (e, Φu x).  Letters (fibre morphisms) are classed the same way
under (d, f) ~ (e, Φu f); this is exact at the letter level because
union-find closes the push relation symmetrically — two letters are
identified whenever a zigzag of pushes connects them, e.g. through a common
preimage in a third fibre.  A letter class containing an identity letter is
an identity of its object class and is dropped from words.

Morphisms of the colimit are then presented by the free category on the
non-identity letter classes modulo one equation per composable pair in each
fibre: the stripped word (f, g) equals the stripped word (g∘f).  The
presentation is decided in four steps.

1. Completion.  Knuth–Bendix completion with the shortlex order makes the
   equations a confluent rewriting system (rules only shorten words or
   decrease them lexicographically, so rewriting terminates).  A rule whose
   left side contains a newer left side is retired and its equation
   processed again, so no left side ever contains another.  The result is
   the reduced complete system, which is unique for the order.  Completion
   can diverge on an infinite colimit, so the rule count is bounded.

   The rules are indexed so that no step scans them all:

   - ``reduce`` looks the word up at a position once per distinct
     left-side length, in a dict from left side to rule.  Two left sides
     that occur at one position are prefixes of one another, so one
     contains the other; since left sides are reduced, at most one occurs,
     and the lookup rewrites what a scan of the rules would.
   - Retirement finds the left sides that contain a new one through its
     first two letters (a bigram index), or its one letter.
   - A proper overlap with the new left side l in front starts the other
     left side at a letter of l after its first (first-letter index); with
     l behind, the other ends at a letter of l before its last (last-letter
     index, read in rule-id order).  Critical pairs are queued in the order
     a scan of every rule sharing a letter with l would queue them.

   Every fibre equation has a left side of at most two letters and a right
   side of at most one, so every critical pair does too: left sides stay
   within two letters, and at most two lengths are looked up.
2. Finiteness.  The morphism classes are the irreducible composable words,
   and these are the words a finite automaton accepts: a state is the
   longest suffix read that is a proper prefix of a left side (a node of the
   Aho–Corasick trie of the left sides) together with the object class the
   word ends at.  The colimit is infinite exactly when a cycle is reachable;
   the refusal then carries a pump u·v·w such that u·vᵏ·w is composable and
   irreducible for every k.
3. Count.  On the acyclic automaton the non-identity normal forms are
   counted exactly by dynamic programming over a topological order, and a
   count above ``bound`` is refused before any word is listed.
4. Enumeration.  The normal forms are listed once, and the composition table
   takes one reduction per composable pair.

Every refusal is a BoundExceeded: a proof of infinity, an exact count above
the bound, or a rule count above its bound.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import BoundExceeded, NaturalityFailure
from .fincat import FinCategory, FinFunctor, compose_functor
from .finset import UnionFind
from .report import failed, passed

DEFAULT_BOUND = 10000

# the automaton's start: no letter read yet, so any letter may follow
_START = (0, None)


@dataclass
class CatColimitResult:
    colimit: FinCategory
    cocone: dict  # d -> FinFunctor Φd -> colimit
    saturation_stats: dict  # see colimit_cat
    # internals for comparison functors
    obj_class: dict = field(default_factory=dict)  # (d, x) -> colimit object
    mor_class: dict = field(default_factory=dict)  # (d, f) -> colimit morphism


def _overlaps(rule1, rule2):
    """Critical pairs of the proper overlaps where a suffix of the first
    left side is a prefix of the second."""
    l1, r1 = rule1
    l2, r2 = rule2
    for k in range(1, min(len(l1), len(l2))):
        if l1[-k:] == l2[:k]:
            yield r1 + l2[k:], l1[:-k] + r2


def _word_token(word):
    return ";".join("%s:%s" % (d, f) for d, f in word)


def _occurs(needle, word):
    n = len(needle)
    return any(word[i : i + n] == needle for i in range(len(word) - n + 1))


class _Saturator:
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


def colimit_cat(phi, bound=DEFAULT_BOUND):
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
    sat = _Saturator(phi, bound)
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


def verify_cat_cocone(phi, k, cocone, bound=DEFAULT_BOUND, kres=None):
    """Certify a user-supplied cocone (K, K_d) as the colimit of Φ.

    Checks naturality of the legs, then builds the mediating functor from
    the saturated colimit and certifies it is functorial and bijective.
    ``kres`` is ``colimit_cat(phi, bound)`` when the caller has it already.
    """
    sh = phi.shape
    for u, d, e in sh.morphisms:
        if compose_functor(cocone[e], phi.transition(u)) != cocone[d]:
            return failed("verify_cat_cocone", {"naturality": u})
    own = colimit_cat(phi, bound) if kres is None else kres
    on_objects = {}
    for (d, x), cls in own.obj_class.items():
        val = cocone[d].ob(x)
        if cls in on_objects and on_objects[cls] != val:
            return failed(
                "verify_cat_cocone", {"object_class_not_respected": [d, x]}
            )
        on_objects[cls] = val
    on_morphisms = {}
    for (d, f), cls in own.mor_class.items():
        val = cocone[d].mor(f)
        if cls in on_morphisms and on_morphisms[cls] != val:
            return failed(
                "verify_cat_cocone", {"morphism_class_not_respected": [d, f]}
            )
        on_morphisms[cls] = val
    if set(on_morphisms) != set(own.colimit.mor_tokens):
        # canonical words that are composites of generators
        c = own.colimit
        changed = True
        while changed:
            changed = False
            for g, f in c.composable_pairs():
                gf = c.compose(g, f)
                if gf not in on_morphisms and g in on_morphisms and f in on_morphisms:
                    on_morphisms[gf] = k.compose(on_morphisms[g], on_morphisms[f])
                    changed = True
        if set(on_morphisms) != set(c.mor_tokens):
            return failed(
                "verify_cat_cocone",
                {"mediator_undetermined": sorted(set(c.mor_tokens) - set(on_morphisms))},
            )
    try:
        mediator = FinFunctor(own.colimit, k, on_objects, on_morphisms).check()
    except Exception as exc:
        return failed("verify_cat_cocone", {"mediator_not_functorial": str(exc)})
    if sorted(on_objects.values()) != sorted(k.objects):
        return failed("verify_cat_cocone", {"mediator_objects_not_bijective": True})
    if sorted(mediator.on_morphisms[m] for m in own.colimit.mor_tokens) != sorted(
        k.mor_tokens
    ):
        return failed("verify_cat_cocone", {"mediator_morphisms_not_bijective": True})
    return passed(
        "verify_cat_cocone",
        objects=len(k.objects),
        morphisms=len(k.morphisms),
    )


def comparison_q(phi, result):
    """The comparison functor Q: ∫Φ -> colim Φ, (u, f) ↦ K_e(f)."""
    from .grothendieck import groth_co

    gr = groth_co(phi)
    sh = phi.shape
    on_objects = {
        tok: result.obj_class[(d, x)]
        for d, j in gr.injections.items()
        for x, tok in j.on_objects.items()
    }
    on_morphisms = {}
    for m, (u, x, f, _) in gr.mor_data.items():
        e = sh.cod(u)
        on_morphisms[m] = result.mor_class[(e, f)]
    return FinFunctor(gr.total, result.colimit, on_objects, on_morphisms).check()


def certify_cofinal_quotient(q):
    """Certify that Q is final and presents its target as a quotient.

    Quotient here is by a generalized congruence, which may identify
    objects: Q must be surjective on objects and every target morphism
    must be a composite of Q-images (identified objects make previously
    non-composable morphisms composable, so Q need not be full).
    """
    from .fincat import is_final

    finality = is_final(q)
    if not finality:
        return failed(
            "certify_cofinal_quotient", {"finality": finality.witness}
        )
    obj_image = {q.ob(a) for a in q.source.objects}
    if obj_image != set(q.target.objects):
        return failed(
            "certify_cofinal_quotient",
            {"objects_unhit": sorted(set(q.target.objects) - obj_image)},
        )
    generated = {q.mor(m) for m in q.source.mor_tokens}
    changed = True
    while changed:
        changed = False
        for g, f in q.target.composable_pairs():
            if g in generated and f in generated:
                gf = q.target.compose(g, f)
                if gf not in generated:
                    generated.add(gf)
                    changed = True
    if generated != set(q.target.mor_tokens):
        return failed(
            "certify_cofinal_quotient",
            {"morphisms_not_generated": sorted(set(q.target.mor_tokens) - generated)},
        )
    return passed(
        "certify_cofinal_quotient",
        source_morphisms=len(q.source.morphisms),
        target_morphisms=len(q.target.morphisms),
    )
