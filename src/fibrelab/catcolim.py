"""Colimits in Cat by bounded rewriting.

Objects of the colimit are union-find classes of fibre objects under
(d, x) ~ (e, Φu x).  Letters (fibre morphisms) are classed the same way
under (d, f) ~ (e, Φu f); this is exact at the letter level because
union-find closes the push relation symmetrically — two letters are
identified whenever a zigzag of pushes connects them, e.g. through a common
preimage in a third fibre.  A letter class containing an identity letter is
an identity of its object class and is dropped from words.

Morphisms of the colimit are then presented by the free category on the
non-identity letter classes modulo one equation per composable pair in each
fibre: the stripped word (f, g) equals the stripped word (g∘f).  The word
problem for this presentation is solved by Knuth–Bendix completion with the
shortlex order (rules only shorten words or decrease them lexicographically,
so rewriting terminates; completion makes it confluent), and the morphism
classes are exactly the irreducible words, enumerated by closing the letter
normal forms under composition.  If the class count, the rule count, or the
word length passes its bound the computation stops honestly with
BoundExceeded — Cat-colimits of finite diagrams can be infinite.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import BoundExceeded, NaturalityFailure
from .fincat import FinCategory, FinFunctor, compose_functor
from .finset import UnionFind
from .report import failed, passed

DEFAULT_BOUND = 10000


@dataclass
class CatColimitResult:
    colimit: FinCategory
    cocone: dict  # d -> FinFunctor Φd -> colimit
    saturation_stats: dict
    # internals for comparison functors
    obj_class: dict = field(default_factory=dict)  # (d, x) -> colimit object
    mor_class: dict = field(default_factory=dict)  # (d, f) -> colimit morphism


class _Saturator:
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


def colimit_cat(phi, bound=DEFAULT_BOUND):
    """The colimit of a strict covariant Cat-valued diagram, by saturation."""
    phi.check()
    sat = _Saturator(phi, bound)
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


def verify_cat_cocone(phi, k, cocone, bound=DEFAULT_BOUND):
    """Certify a user-supplied cocone (K, K_d) as the colimit of Φ.

    Checks naturality of the legs, then builds the mediating functor from
    the saturated colimit and certifies it is functorial and bijective.
    """
    sh = phi.shape
    for u, d, e in sh.morphisms:
        if compose_functor(cocone[e], phi.transition(u)) != cocone[d]:
            return failed("verify_cat_cocone", {"naturality": u})
    own = colimit_cat(phi, bound)
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
    on_objects = {}
    for tok in gr.total.objects:
        a, x = tok.split("|", 1)
        on_objects[tok] = result.obj_class[(a, x)]
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
