"""Presentations of sofic subshifts and machines over bi-infinite words.

A presentation is an automaton in which every state is both initial and
final; the subshift it presents is the set of bi-infinite words labelling
bi-infinite runs.  Equality of subshifts is decided entirely through
finite data: prune away states not on any bi-infinite path, determinize
from the full state set, merge states with equal follow languages, and
compare the resulting rooted machines, which are unique up to isomorphism.
The empty subshift is its own distinguished case (no rooted presentation
exists for it).

Costs, for n states, m transitions and k letters: pruning peels states
with no kept successor, then no kept predecessor, in O(n + m), leaving the
essential graph (Lind & Marcus, Symbolic Dynamics and Coding, §2.2); the
subset construction is exponential in the worst case; merging uses
Hopcroft's refinement, O(n·k·log n); the rooted isomorphism test is a
synchronized walk in O(n·k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Nfa, Triple, _backward_edges, _forward_edges, _reachable, language_upto, \
    long_path_states, nfa, nfa_equiv, prune_language, quotient, subset_name
from .relcore import (
    UNIT,
    Alphabet,
    MachineError,
    Rel,
    TypeMismatch,
    frozen,
    material,
    obj,
    pair_symbol,
    product_alphabet,
)
from .simulation import TWO_SIDED, SimCertificate
from .transducer import Quad, rel_quads, trans_rel

Word = tuple[str, ...]


@dataclass(frozen=True)
class Presentation:
    """Transition-labelled graph, read with all states initial and final.

    ``root`` is optional bookkeeping: canonical presentations record the
    state from which every accepted word has a run.
    """

    alphabet: Alphabet
    states: Alphabet
    trans: frozenset[Triple]
    root: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "trans", frozen(self.trans, "transitions"))
        for q, a, q2 in self.trans:
            self.states.index(q)
            self.states.index(q2)
            self.alphabet.index(a)
        if self.root is not None:
            self.states.index(self.root)

    def is_empty(self) -> bool:
        return not self.states.elements

    def as_nfa(self) -> Nfa:
        everything = frozenset(self.states.elements)
        return nfa(self.alphabet, self.states, self.trans, everything, everything)

    def trans_rel(self) -> Rel:
        """The transition relation typed A×Q → Q (unit output implicit)."""
        star = UNIT.elements[0]
        return trans_rel(self.alphabet, UNIT, self.states,
                         {(a, q, star, q2) for q, a, q2 in self.trans})

    def sorted_trans(self) -> list[Triple]:
        return sorted(
            self.trans,
            key=lambda t: (self.states.index(t[0]), self.alphabet.index(t[1]),
                           self.states.index(t[2])),
        )


def presentation(alphabet, states, trans, root=None) -> Presentation:
    return Presentation(alphabet, states, trans, root)


@dataclass(frozen=True)
class ZTransducer:
    """A transducer run over bi-infinite words; no initial or final states."""

    input: Alphabet
    output: Alphabet
    states: Alphabet
    trans: Rel

    def __post_init__(self):
        want_dom = obj(self.input, self.states).signature()
        want_cod = obj(self.output, self.states).signature()
        if self.trans.dom.signature() != want_dom or self.trans.cod.signature() != want_cod:
            raise TypeMismatch("transition relation is not typed A×Q → B×Q")

    def quads(self) -> frozenset[Quad]:
        return rel_quads(self.input, self.output, self.states, self.trans)


def ztransducer(input, output, states, quads) -> ZTransducer:
    return ZTransducer(input, output, states, trans_rel(input, output, states, tuple(quads)))


def presentation_of_ztransducer(z: ZTransducer) -> Presentation:
    """The presentation over the product alphabet that carries z's behavior."""
    pair = pair_symbol(z.input, z.output)
    return presentation(
        product_alphabet(z.input, z.output), material(z.states),
        {(q, pair(a, b), q2) for a, q, b, q2 in z.quads()},
    )


# ---------------------------------------------------------------------------
# Pruning: restrict to states on infinite paths.  "Infinite" is decided as
# "of length at least card(states)", which forces a loop.

def _restrict(p: Presentation, kept: set[str]) -> Presentation:
    states = Alphabet(p.states.name, tuple(q for q in p.states.elements if q in kept))
    root = p.root if p.root in kept else None
    return Presentation(
        p.alphabet, states,
        frozenset((q, a, q2) for q, a, q2 in p.trans if q in kept and q2 in kept),
        root,
    )


def forward_prune(p: Presentation) -> Presentation:
    """Keep states that start a path of length at least card(states)."""
    return _restrict(p, long_path_states(p.states.elements, _forward_edges(p)))


def backward_prune(p: Presentation) -> Presentation:
    """Keep states that end a path of length at least card(states)."""
    return _restrict(p, long_path_states(p.states.elements, _backward_edges(p)))


def prune(p: Presentation) -> Presentation:
    """Keep states lying on a bi-infinite path."""
    return forward_prune(backward_prune(p))


def is_language_pruned(p: Presentation) -> bool:
    """Whether every accepted word extends on both sides within the language."""
    n = p.as_nfa()
    return nfa_equiv(n, prune_language(n))


def is_right_resolving(p: Presentation) -> bool:
    seen = set()
    for q, a, _ in p.trans:
        if (q, a) in seen:
            return False
        seen.add((q, a))
    return True


def is_root(p: Presentation, r: str) -> bool:
    """A root reaches every state and every accepted word runs from it."""
    if _reachable(p.states, _forward_edges(p), [r]) != set(p.states.elements):
        return False
    everything = frozenset(p.states.elements)
    from_root = nfa(p.alphabet, p.states, p.trans, frozenset({r}), everything)
    return nfa_equiv(from_root, p.as_nfa())


def find_root(p: Presentation) -> str | None:
    if p.root is not None and is_root(p, p.root):
        return p.root
    for r in p.states.elements:
        if is_root(p, r):
            return r
    return None


def determinize_presentation(p: Presentation, validate: bool = True) -> tuple[Presentation, SimCertificate]:
    """Subset construction rooted at the full state set.

    Requires a pruned presentation of a non-empty subshift; transitions to
    the empty subset are left undefined, so the result is right-resolving.
    The certificate is the membership relation, two-sided for the pair
    (input, determinized).
    """
    if p.is_empty():
        raise MachineError("cannot determinize the empty presentation")
    if validate and not is_language_pruned(p):
        raise MachineError("determinization requires a pruned presentation")

    step: dict[str, dict[str, set[str]]] = {q: {} for q in p.states.elements}
    for q, a, q2 in p.trans:
        step[q].setdefault(a, set()).add(q2)
    start = frozenset(p.states.elements)
    seen: dict[frozenset[str], str] = {start: subset_name(start, p.states)}
    todo = [start]
    trans: set[Triple] = set()
    while todo:
        cur = todo.pop()
        for a in p.alphabet.elements:
            image = frozenset(q2 for q in cur for q2 in step[q].get(a, ()))
            if not image:
                continue
            if image not in seen:
                seen[image] = subset_name(image, p.states)
                todo.append(image)
            trans.add((seen[cur], a, seen[image]))

    names = sorted(seen.values())
    subset_states = Alphabet(f"P({p.states.name})", tuple(names))
    det = Presentation(p.alphabet, subset_states, frozenset(trans), seen[start])
    contains = Rel(
        obj(subset_states), obj(p.states),
        frozenset(((name,), (q,)) for sub, name in seen.items() for q in sub),
    )
    return det, SimCertificate(contains, TWO_SIDED)


def minimize_presentation(p: Presentation, root: str | None = None,
                          validate: bool = True) -> tuple[Presentation, SimCertificate]:
    """Merge states with equal follow languages; keep the root's class.

    The input must be pruned, right-resolving, and rooted.  The result is
    the canonical presentation of the subshift; the certificate is the
    follow-language relation, two-sided for the pair (minimized, input).
    """
    if validate:
        if not is_right_resolving(p):
            raise MachineError("minimization requires a right-resolving presentation")
        if not is_language_pruned(p):
            raise MachineError("minimization requires a pruned presentation")
    if root is None:
        root = find_root(p)
        if root is None:
            raise MachineError("minimization requires a rooted presentation")
    elif validate and not is_root(p, root):
        raise MachineError(f"state {root!r} is not a root")

    delta = {(q, a): q2 for q, a, q2 in p.trans}
    # All real states accept; refinement only separates by definedness.
    name, min_states, trans = quotient(p.states, list(p.states.elements), p.alphabet.elements,
                                       delta, lambda q: q is None)
    minp = Presentation(p.alphabet, min_states, frozenset(trans), name[root])
    lmap = Rel(obj(p.states), obj(min_states), frozenset(((q,), (c,)) for q, c in name.items()))
    return minp, SimCertificate(lmap, TWO_SIDED)


def canonical_form(p: Presentation) -> Presentation:
    """The unique minimal rooted right-resolving pruned presentation, or
    the empty presentation when the subshift is empty."""
    pruned = prune(p)
    if pruned.is_empty():
        return Presentation(p.alphabet, Alphabet(p.states.name, ()), frozenset(), None)
    det, _ = determinize_presentation(pruned, validate=False)
    minp, _ = minimize_presentation(det, root=det.root, validate=False)
    return minp


def rooted_iso(p1: Presentation, p2: Presentation) -> dict[str, str] | None:
    """Bijection between rooted right-resolving presentations, forced by a
    synchronized walk from the roots."""
    if len(p1.states) != len(p2.states):
        return None
    if p1.is_empty():
        return {}
    if p1.root is None or p2.root is None:
        return None
    d1 = {(q, a): q2 for q, a, q2 in p1.trans}
    d2 = {(q, a): q2 for q, a, q2 in p2.trans}
    mapping = {p1.root: p2.root}
    inverse = {p2.root: p1.root}
    todo = [p1.root]
    while todo:
        q = todo.pop()
        r = mapping[q]
        for a in p1.alphabet.elements:
            q2 = d1.get((q, a))
            r2 = d2.get((r, a))
            if (q2 is None) != (r2 is None):
                return None
            if q2 is None:
                continue
            if q2 in mapping:
                if mapping[q2] != r2:
                    return None
            elif r2 in inverse:
                return None
            else:
                mapping[q2] = r2
                inverse[r2] = q2
                todo.append(q2)
    if len(mapping) != len(p1.states):
        return None
    return mapping


def presentations_equiv(p1: Presentation, p2: Presentation) -> bool:
    """Whether two presentations present the same sofic subshift."""
    if p1.alphabet.elements != p2.alphabet.elements:
        raise TypeMismatch("presentations over different alphabets")
    c1 = canonical_form(p1)
    c2 = canonical_form(p2)
    if c1.is_empty() or c2.is_empty():
        return c1.is_empty() and c2.is_empty()
    return rooted_iso(c1, c2) is not None


def ztransducers_equiv(z1: ZTransducer, z2: ZTransducer) -> bool:
    if z1.input.elements != z2.input.elements or z1.output.elements != z2.output.elements:
        raise TypeMismatch("machines do not share input/output alphabets")
    return presentations_equiv(presentation_of_ztransducer(z1),
                               presentation_of_ztransducer(z2))


def factor_language(p: Presentation) -> Nfa:
    """Automaton for the finite words readable inside bi-infinite runs:
    the pruned state graph with every state initial and final."""
    return prune(p).as_nfa()


def factors_upto(p: Presentation, k: int) -> set[Word]:
    return language_upto(factor_language(p), k)


def compose_z(z1: ZTransducer, z2: ZTransducer) -> ZTransducer:
    if z1.output.elements != z2.input.elements:
        raise TypeMismatch(
            f"cannot compose: output {z1.output.name!r} vs input {z2.input.name!r}"
        )
    states = product_alphabet(z1.states, z2.states)
    pair = pair_symbol(z1.states, z2.states)
    by_mid: dict[str, list[tuple[str, str, str]]] = {}
    for b, p, d, p2 in z2.quads():
        by_mid.setdefault(b, []).append((p, d, p2))
    quads = set()
    for a, q, b, q2 in z1.quads():
        for p, d, p2 in by_mid.get(b, ()):
            quads.add((a, pair(q, p), d, pair(q2, p2)))
    return ztransducer(z1.input, z2.output, states, quads)


def product_z(z1: ZTransducer, z2: ZTransducer) -> ZTransducer:
    states = product_alphabet(z1.states, z2.states)
    spair = pair_symbol(z1.states, z2.states)
    ipair = pair_symbol(z1.input, z2.input)
    opair = pair_symbol(z1.output, z2.output)
    quads = set()
    for a, q, b, q2 in z1.quads():
        for c, p, d, p2 in z2.quads():
            quads.add((ipair(a, c), spair(q, p), opair(b, d), spair(q2, p2)))
    return ztransducer(
        product_alphabet(z1.input, z2.input),
        product_alphabet(z1.output, z2.output),
        states, quads,
    )


def periodic_membership(p: Presentation, word) -> bool:
    """Whether the periodic bi-infinite repetition of ``word`` is in the
    subshift: some power of the word labels a cycle of the pruned graph."""
    word = tuple(word)
    if not word:
        raise MachineError("periodic membership needs a non-empty word")
    pruned = prune(p)
    for a in word:
        pruned.alphabet.index(a)
    states = pruned.states.elements
    step: dict[str, dict[str, set[str]]] = {q: {} for q in states}
    for q, a, q2 in pruned.trans:
        step[q].setdefault(a, set()).add(q2)

    def word_image(srcs: set[str]) -> set[str]:
        cur = srcs
        for a in word:
            cur = {q2 for q in cur for q2 in step[q].get(a, ())}
            if not cur:
                return set()
        return cur

    # relation "reachable by reading word once", iterated up to card(states)
    reach_one = {q: word_image({q}) for q in states}
    current = {q: {q} for q in states}
    for _ in range(max(1, len(states))):
        current = {q: {r2 for r in current[q] for r2 in reach_one[r]} for q in states}
        if any(q in current[q] for q in states):
            return True
    return False
