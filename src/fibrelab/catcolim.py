"""Colimits in Cat from generator presentations of the fibres.

The colimit of a strict covariant Cat-valued diagram Φ: D -> Cat is
computed from a presentation by generators and relations, which is then
decided by completion and a finite automaton.

Objects.  The objects of colim Φ are the classes of the fibre objects (d, x)
under (d, x) ~ (e, Φu x), found by union-find on the pairs and known by
their roots while the presentation is decided.  A finite colimit is then
rendered: each class is named by the least of its members' tokens ``d|x``.
Tokens may contain ``|``, so two classes can render to one name; that is
refused with both members as witness (DanglingToken), never answered as one
object.

The presentation.  Each checked fibre Φd carries a generating set A_d
(``FinCategory.generators``) and a factorization m = a∘r of each other
non-identity morphism (``FinCategory.factorization``, r a generator or
factored earlier).  So every morphism m of Φd is a word nf_d(m) in A_d:
the empty word for an identity, the letter a for a generator, and
nf_d(r)·a for m = a∘r.  Words are read left to right: f·g is g∘f.  The
letters are the pairs (d, a) with a in A_d, between the classes of their
endpoints, and the relations are

- (R1) nf_d(m)·a = nf_d(a∘m) for each generator a of Φd and each
  non-identity m into dom a, unless a∘m is factored as (a, m), when both
  sides are one word;
- (R2) (d, a) = nf_e(Φu a) for each non-identity u: d -> e of D and each
  generator a of Φd.

Proof that (R1) presents Φd.  Each relation holds in Φd, since both sides
compose to a∘m.  Conversely, let a1⋯ak be a composable word in A_d.  By
induction on i, the prefix a1⋯ai is equivalent to nf_d(m_i), m_i its
composite: nf_d(m_i)·a(i+1) is nf_d(a(i+1)∘m_i) by (R1) when m_i is no
identity, and as a word when m_i is one or a(i+1)∘m_i is factored as
(a(i+1), m_i).  So two words with one composite are equivalent, and the free
category on A_d modulo (R1) is Φd, since A_d generates it.

Proof that (R2) makes the cocones.  A family of functors K_d: Φd -> K is a
cocone when K_e∘Φu = K_d for each u: d -> e (for identities of D this holds
at once, Φ being strict).  Both sides are functors on Φd, and a functor on
Φd is determined by its values on objects and on A_d, because every
morphism of Φd is an identity or a composite of generators.  So the
equation holds once it holds on objects, which the object classes say, and
on each generator a, where K_e(Φu a) is the composite of K_e along the word
nf_e(Φu a): that is (R2).  With the first proof, a cocone is exactly an
assignment of the letters over the object classes that respects (R1) and
(R2), so colim Φ is the free category on the letters modulo (R1) and (R2).

Tokens, and proof that they are those of the letter classes.  The tokens of
the colimit's morphisms are those of the presentation that this one
replaced.  There every non-identity fibre morphism was a letter, letters
were classed under (d, f) ~ (e, Φu f), the classes holding an identity were
dropped, each class was written as its least member, and the morphism n got
the token of its normal form under the reduced complete shortlex system.
A shortlex rule rewrites a word to a smaller one, so the least word of n is
irreducible, and n has only one irreducible word: the token is the
shortlex-least word least(n) over the classes.  It is found here without the
classes.  A prefix of a least word is the least word of its own composite,
since putting a smaller word of that composite in its place would give a
smaller word of n.  So least(n) is the least of least(m)·x over the pairs
x∘m = n, and a breadth-first search that takes each length's morphisms in
order, and each one's letters in order, reaches n first along it.  The
members of a class have one image in the colimit (its cocone is natural),
and a least word takes, among the classes of one image, the one written
least: the least fibre morphism (d, f) sent to that image, since each class
is written as its least member.  A class whose image is an identity never
occurs in a least word.  So the search reads, for each non-identity
morphism that some fibre morphism is sent to, the least such (d, f).

The presentation is decided in four steps.

1. Completion.  Knuth–Bendix completion with the shortlex order makes the
   relations a confluent rewriting system (rules only shorten words or
   decrease them lexicographically, so rewriting terminates).  A rule whose
   left side contains a newer left side is retired and its equation
   processed again, so no left side ever contains another.  The result is
   the reduced complete system, which is unique for the order.  Completion
   can diverge on an infinite colimit, so the rule count is bounded.  A
   chain fibre is free on its generators and has no relation (R1), so
   chains glued along points complete with no rule at all.

   The rules are indexed so that no step scans them all, and no index
   assumes a bound on the length of a left side ((R1) has left sides one
   letter longer than nf_d(m)):

   - ``reduce`` looks the word up at a position once per distinct
     left-side length, in a dict from left side to rule.  Two left sides
     that occur at one position are prefixes of one another, so one
     contains the other; since left sides are reduced, at most one occurs,
     and the lookup rewrites what a scan of the rules would.  A rewrite can
     only make an occurrence that overlaps the new span, so the scan
     resumes at most one left side's length minus one before it.
   - Retirement finds the left sides that contain a new one through its
     first two letters (a bigram index), or its one letter: any left side
     that contains it contains those.
   - A proper overlap with the new left side l in front starts the other
     left side at a letter of l after its first (first-letter index); with
     l behind, the other ends at a letter of l before its last (last-letter
     index, read in rule-id order).  Both hold for left sides of any
     length.  Critical pairs are queued in the order a scan of every rule
     sharing a letter with l would queue them.
2. Finiteness.  The morphisms are the irreducible composable words, and
   these are the words a finite automaton accepts: a state is the longest
   suffix read that is a proper prefix of a left side (a node of the
   Aho–Corasick trie of the left sides) together with the object class the
   word ends at.  The colimit is infinite exactly when a cycle is reachable;
   the refusal then carries a pump u·v·w, in generator letters, such that
   u·vᵏ·w is composable and irreducible for every k.
3. Count.  On the acyclic automaton the non-identity normal forms are
   counted exactly by dynamic programming over a topological order, and a
   count above ``bound`` is refused before any word is listed.
4. Enumeration and table.  The normal forms are listed once, as a trie:
   each is its longest proper prefix and its last letter.  The table is
   keyed by their ids.  n2∘n1 is found by walking the trie of the words out
   of cod n1: the composite of n1 with the word m·a is the child along a of
   the composite c of n1 with m when the word c·a is irreducible, and
   otherwise the normal form of c·a, which is reduced from the seam once
   and remembered.  The least words of the tokens are then found
   breadth-first on that table.

Colliding object names aside, every refusal is a BoundExceeded: a proof of
infinity, an exact count above the bound, or a rule count above its bound.
A refusal names no class and builds no token.
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
    """The presentation of colim Φ by the fibres' generators, and the
    completion, automaton, count and enumeration that decide it.  Letters
    are numbered in the order of their pairs (d, a), so words are tuples
    of ints and the shortlex order of words is that of the pairs."""

    def __init__(self, phi, bound):
        self.phi = phi
        self.sh = phi.shape
        self.bound = bound
        # completion of an infinite colimit can add rules forever
        self.rule_bound = max(20 * bound, 1000)

    # -- 0. the presentation ------------------------------------------------

    def build_object_classes(self):
        """The union-find of the fibre objects (d, x); a class is known by
        its root (``find``) until :meth:`name_classes` names it."""
        phi, sh = self.phi, self.sh
        self.uf = uf = UnionFind()
        self.find = find = uf.find
        for d in sh.objects:
            for x in phi.fibre(d).objects:
                find((d, x))
        for u, d, e in sh.morphisms:
            if not sh.is_identity(u):
                ob = phi.transition(u)._on_objects
                for x in phi.fibre(d).objects:
                    uf.union((d, x), (e, ob[x]))

    def name_classes(self):
        """After a finite verdict: ``obj_of[(d, x)]``, the name of each fibre
        object's class, the least token d|x of its members (two classes of
        one name are refused); ``name`` of each root; ``classes``, the roots
        in order of first occurrence in declared order."""
        self.obj_of, _ = self.uf.named("%s|%s".__mod__, "colimit object")
        self.classes = list(dict.fromkeys(map(self.find, self.uf.parent)))
        self.name = {root: self.obj_of[root] for root in self.classes}

    def build_presentation(self):
        """The letters with their endpoints, each fibre morphism's word
        (``words[d][m]``) and the relations (R1) and (R2), sorted."""
        phi, sh, find = self.phi, self.sh, self.find
        fibres = {d: phi.fibre(d) for d in sh.objects}
        self.letters = sorted(
            (d, a) for d, fib in fibres.items() for a in fib.generators
        )
        number, self.dom_of, self.cod_of = {}, [], []
        self.letters_from = {None: range(len(self.letters))}
        for i, (d, a) in enumerate(self.letters):
            number[(d, a)] = i
            fib = fibres[d]
            dom = find((d, fib._dom[a]))
            self.dom_of.append(dom)
            self.cod_of.append(find((d, fib._cod[a])))
            self.letters_from.setdefault(dom, []).append(i)
        eqs = {}
        self.words = {}
        for d, fib in fibres.items():
            comp, ids = fib._composition, fib._identity_tokens
            into, dom = fib._into, fib._dom
            words = dict.fromkeys(ids, ())
            for a in fib.generators:
                words[a] = (number[(d, a)],)
            factor = {}
            for m, a, r in fib.factorization:
                words[m] = words[r] + words[a]
                factor[m] = (a, r)
            self.words[d] = words
            for a in fib.generators:
                for m in into[dom[a]]:
                    if m not in ids:
                        am = comp[(a, m)]
                        if factor.get(am) != (a, m):
                            eqs[(words[m] + words[a], words[am])] = None
        for u, d, e in sh.morphisms:
            if not sh.is_identity(u):
                mor, lhs_words, words = (
                    phi.transition(u)._on_morphisms, self.words[d], self.words[e]
                )
                for a in fibres[d].generators:
                    lhs, rhs = lhs_words[a], words[mor[a]]
                    if lhs != rhs:
                        eqs[(lhs, rhs)] = None
        self.equations = sorted(eqs)

    def named(self, word):
        """The word as its (d, a) pairs."""
        return tuple(map(self.letters.__getitem__, word))

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
        queue = deque(self.equations)
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
        """The Aho–Corasick trie of the left sides: ``children`` and
        ``fail`` per node, and ``match`` — the rule whose left side ends
        there, or None."""
        self.children, self.match = [{}], [None]
        for lhs, rhs in self.rules.values():
            node = 0
            for a in lhs:
                nxt = self.children[node].get(a)
                if nxt is None:
                    nxt = len(self.children)
                    self.children[node][a] = nxt
                    self.children.append({})
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
                    u, v = self.named(letters[:i]), self.named(letters[i:])
                    raise BoundExceeded(
                        "colimit is infinite: u v^k w is a composable "
                        "irreducible word for every k, with u = [%s], "
                        "v = [%s], w = []" % (_word_token(u), _word_token(v)),
                        self._stats_trace(len(position) + len(done) - 1)
                        + [("pump", u, v, ())],
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

    # -- 3. count -----------------------------------------------------------

    def count(self, order):
        """The exact number of non-identity normal forms."""
        ways = dict.fromkeys(order, 0)
        ways[_START] = 1
        for state in order:
            for _, nxt in self.edges(state):
                ways[nxt] += ways[state]
        return sum(ways.values()) - 1

    def saturate(self):
        """Steps 0 to 3: the presentation, decided finite and counted within
        the bound, or refused."""
        self.build_object_classes()
        self.build_presentation()
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

    # -- 4. enumeration and table -------------------------------------------

    def normal_forms(self):
        """The morphisms as the trie of their normal forms, by id: first the
        identity of each object class in order (``identity[cls]``), then
        every irreducible composable word, after its longest proper prefix
        ``parent[n]``, with its last letter ``last[n]``.  ``child[n]`` maps
        a letter a to the id of the word n·a when that is irreducible."""
        self.identity = {cls: n for n, cls in enumerate(self.classes)}
        self.dom = list(self.classes)
        self.cod = list(self.classes)
        self.parent = [None] * len(self.classes)
        self.last = [None] * len(self.classes)
        self.child = []
        self._rewritten = {}
        states = [(0, cls) for cls in self.classes]
        n = 0
        while n < len(states):
            children = {}
            for a, nxt in self.edges(states[n]):
                children[a] = len(states)
                states.append(nxt)
                self.dom.append(self.dom[n])
                self.cod.append(nxt[1])
                self.parent.append(n)
                self.last.append(a)
            self.child.append(children)
            n += 1

    def times(self, n, a):
        """The id of the normal form of n·a, for a letter a out of cod n."""
        c = self.child[n].get(a)
        return self.rewritten(n, a) if c is None else c

    def rewritten(self, n, a):
        """The id of n·a where that word is reducible: reduced from the seam
        (n is irreducible), then looked up in the trie; remembered."""
        c = self._rewritten.get((n, a))
        if c is None:
            word = [a]
            m = n
            while self.last[m] is not None:
                word.append(self.last[m])
                m = self.parent[m]
            word = tuple(reversed(word))
            c = self.identity[self.dom[n]]
            for b in self.reduce(word, len(word) - self.max_lhs):
                c = self.child[c][b]
            self._rewritten[(n, a)] = c
        return c

    def table(self):
        """``table[n1][n2]``, the id of n2∘n1, for each pair of composable
        non-identity morphisms (``table`` is indexed by n1 minus the number
        of identities), and how many of those pairs had words that needed
        rewriting when written one after the other."""
        child, rewritten = self.child, self.rewritten
        table, changed = [], 0
        for n1 in range(len(self.classes), len(child)):
            row = {}
            todo = [(self.identity[self.cod[n1]], n1, True)]
            while todo:
                m, c, clean = todo.pop()
                for a, m2 in child[m].items():
                    c2 = child[c].get(a)
                    if c2 is None:
                        c2, clean2 = rewritten(c, a), False
                    else:
                        clean2 = clean
                    row[m2] = c2
                    changed += not clean2
                    todo.append((m2, c2, clean2))
            table.append(row)
        return table, changed


def _least_words(sat, table, images):
    """The token of each non-identity morphism id, rendering its
    shortlex-least word over the letter classes (module docstring), in that
    order, and the number of those words of length at most 1, 2, ...
    ``images`` maps each fibre morphism (d, f) to its id."""
    k = len(sat.classes)
    least = {}  # non-identity image -> the least (d, f) sent to it
    for lt, n in images.items():
        if n >= k and (n not in least or lt < least[n]):
            least[n] = lt
    letters = sorted((lt, n) for n, lt in least.items())
    out = {}  # object class -> its letters out, in order
    for lt, n in letters:
        out.setdefault(sat.dom[n], []).append((lt, n))
    token = {n: "%s:%s" % lt for lt, n in letters}
    level = [n for _, n in letters]
    order, growth = [], []
    while level:
        order.extend(level)
        growth.append(len(order))
        nxt = []
        for m in level:
            row, prefix = table[m - k], token[m]
            for lt, x in out.get(sat.cod[m], ()):
                n = row[x]
                if n >= k and n not in token:
                    token[n] = "%s;%s:%s" % (prefix, lt[0], lt[1])
                    nxt.append(n)
        level = nxt
    return order, token, growth


def colimit_cat(phi, bound=DEFAULT_BOUND):
    """The colimit of a strict covariant Cat-valued diagram.

    ``saturation_stats`` holds deterministic counts:

    - object_classes, morphism_classes: objects and morphisms of the
      colimit, identities included;
    - iterations: the length of the longest token word;
    - growth_trace: the non-identity morphisms whose token words have
      length at most 1, 2, ..., iterations;
    - discovered_words: the morphism classes plus the composable pairs of
      two normal forms whose words, one after the other, had to be
      rewritten, so never below morphism_classes;
    - rules, critical_pairs: the size of the reduced complete system of the
      generator presentation and the critical pairs formed while completing
      it;
    - automaton_states: the automaton states reachable from the start.
    """
    phi.check()
    sat = _Saturator(phi, bound)
    sat.saturate()
    sat.name_classes()
    sat.normal_forms()
    table, changed = sat.table()
    sh, times, identity, find = phi.shape, sat.times, sat.identity, sat.find
    images = {}  # (d, f) -> morphism id
    for d in sh.objects:
        fib, words = phi.fibre(d), sat.words[d]
        for f in fib.identities.values():
            images[(d, f)] = identity[find((d, fib.dom(f)))]
        for a in fib.generators:
            images[(d, a)] = times(identity[find((d, fib.dom(a)))], words[a][0])
        for m, a, r in fib.factorization:
            images[(d, m)] = times(images[(d, r)], words[a][0])
    order, token, growth = _least_words(sat, table, images)
    k, name = len(sat.classes), sat.name
    mor_order, by_dom = [], {}
    for root, n in identity.items():
        token[n] = "id@%s" % name[root]
        mor_order.append((token[n], name[root], name[root]))
    for n in order:
        mor_order.append((token[n], name[sat.dom[n]], name[sat.cod[n]]))
        by_dom.setdefault(sat.dom[n], []).append(n)
    composition = {}
    for n1 in order:
        row, t1 = table[n1 - k], token[n1]
        for n2 in by_dom.get(sat.cod[n1], ()):
            composition[(token[n2], t1)] = token[row[n2]]
    ids = {name[root]: token[n] for root, n in identity.items()}
    for tok, a, b in mor_order:
        composition[(ids[b], tok)] = tok
        composition[(tok, ids[a])] = tok
    colimit = FinCategory(list(ids), mor_order, ids, composition).check()
    obj_class, mor_class = dict(sat.obj_of), {}
    cocone = {}
    for d in sh.objects:
        fib = phi.fibre(d)
        on_morphisms = {f: token[images[(d, f)]] for f in fib.mor_tokens}
        cocone[d] = FinFunctor(
            fib, colimit, {x: obj_class[(d, x)] for x in fib.objects}, on_morphisms
        ).check()
        mor_class.update({(d, f): t for f, t in on_morphisms.items()})
    result = CatColimitResult(
        colimit,
        cocone,
        {
            "object_classes": k,
            "morphism_classes": len(mor_order),
            "iterations": len(growth),
            "discovered_words": len(mor_order) + changed,
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
