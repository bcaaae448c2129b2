"""Finite-word transducers: runs, behaviors, and the standard constructions.

A transducer reads an input letter and, depending on its current state,
nondeterministically emits an output letter and moves to a next state.
Its behavior is the length-preserving relation between input and output
words realized by runs from an initial to a final state.  Behaviors of
bounded length are materialized as :class:`UniformRelationSample` values;
exact (unbounded) comparisons go through the automata module.

A machine stores its transitions as validated quadruples (input letter,
state, output letter, next state), and every construction here works on
them; the simulation checker enumerates its conditions from them too.
Diagram normal forms compose rows over flat wire tuples and pack once
(``diagram._collapse``); the composition, product and lift of transducers
over packed alphabets are the tests' reference, in ``tests/helpers.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .relcore import UNIT, Alphabet, MachineError, check_rows, pair_symbol, product_alphabet, trusted

Quad = tuple[str, str, str, str]  # (input letter, state, output letter, next state)
Word = tuple[str, ...]


@dataclass(frozen=True)
class QuadMachine:
    """Alphabets and transitions, the data a :class:`Transducer` and a
    bi-infinite ``sofic.ZTransducer`` share.  ``trans`` holds quadruples
    (a, q, b, q2) with ``a`` in ``input``, ``b`` in ``output`` and ``q``,
    ``q2`` in ``states``; a unit alphabet's only symbol is ``"*"``."""

    input: Alphabet
    output: Alphabet
    states: Alphabet
    trans: frozenset[Quad]

    def __post_init__(self):
        columns = {0: self.input, 1: self.states, 2: self.output, 3: self.states}
        object.__setattr__(self, "trans", check_rows(self.trans, columns))

    def sorted_quads(self) -> list[Quad]:
        return sorted(
            self.trans,
            key=lambda t: (
                self.states.index(t[1]),
                self.input.index(t[0]),
                self.output.index(t[2]),
                self.states.index(t[3]),
            ),
        )


@dataclass(frozen=True)
class Transducer(QuadMachine):
    initial: frozenset[str]
    final: frozenset[str]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "initial", self.states.check_subset(self.initial))
        object.__setattr__(self, "final", self.states.check_subset(self.final))


def transducer(input: Alphabet, output: Alphabet, states: Alphabet,
               quads, initial, final) -> Transducer:
    return Transducer(input, output, states, quads, initial, final)


@dataclass(frozen=True)
class UniformRelationSample:
    """All related word pairs up to a length bound; pairs have equal length."""

    input: Alphabet
    output: Alphabet
    max_len: int
    pairs: frozenset[tuple[Word, Word]]

    def __post_init__(self):
        for w, v in self.pairs:
            if len(w) != len(v) or len(w) > self.max_len:
                raise MachineError(f"sample pair {(w, v)!r} violates uniform length bound")
        self.input.check_subset(s for w, _ in self.pairs for s in w)
        self.output.check_subset(s for _, v in self.pairs for s in v)

    def sorted_pairs(self) -> list[tuple[Word, Word]]:
        ik = self.input.index
        ok = self.output.index
        return sorted(
            self.pairs,
            key=lambda p: (len(p[0]), tuple(map(ik, p[0])), tuple(map(ok, p[1]))),
        )


def behavior_upto(t: Transducer, n: int) -> UniformRelationSample:
    """Behavior sample computed by direct run enumeration."""
    step: dict[str, list[tuple[str, str, str]]] = {q: [] for q in t.states.elements}
    for a, q, b, q2 in t.trans:
        step[q].append((a, b, q2))
    pairs: set[tuple[Word, Word]] = set()
    frontier: set[tuple[str, Word, Word]] = {(q, (), ()) for q in t.initial}
    for q, w, v in frontier:
        if q in t.final:
            pairs.add((w, v))
    for _ in range(n):
        nxt: set[tuple[str, Word, Word]] = set()
        for q, w, v in frontier:
            for a, b, q2 in step[q]:
                item = (q2, w + (a,), v + (b,))
                nxt.add(item)
                if q2 in t.final:
                    pairs.add((item[1], item[2]))
        frontier = nxt
    return trusted(UniformRelationSample, t.input, t.output, n, frozenset(pairs))


def finite_shift_at(a: Alphabet, i, f, k: int) -> frozenset[tuple[Word, Word]]:
    """Length-k slice of the shift relation over ``a`` with end labels.

    Relates (w, v) of length k whenever i0·w = v·f0 for some i0 in ``i``
    and f0 in ``f``; at k = 0 the empty pair appears iff the label sets
    intersect.
    """
    i = a.check_subset(i)
    f = a.check_subset(f)
    if k == 0:
        return frozenset({((), ())}) if i & f else frozenset()
    out = set()
    for mid in itertools.product(a.elements, repeat=k - 1):
        for f0 in f:
            for i0 in i:
                out.add((mid + (f0,), (i0,) + mid))
    return frozenset(out)


def behavior_via_shift_upto(t: Transducer, n: int) -> UniformRelationSample:
    """Behavior sample computed by composing the letterwise lift of the
    transition relation with the transposed shift over the state alphabet.

    This is an independent evaluation route from :func:`behavior_upto`: the
    state-word pairs come from :func:`finite_shift_at`, and the letter pairs
    from the per-position lift sections.
    """
    letter_pairs: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for a, q, b, q2 in t.trans:
        letter_pairs.setdefault((q, q2), []).append((a, b))
    pairs: set[tuple[Word, Word]] = set()
    for k in range(n + 1):
        for shift_w, shift_v in finite_shift_at(t.states, t.initial, t.final, k):
            # (u, _t) is in the transpose of the shift iff (_t, u) is in it.
            u, _t = shift_v, shift_w
            if k == 0:
                pairs.add(((), ()))
                continue
            sections = [letter_pairs.get((u[j], _t[j]), []) for j in range(k)]
            if any(not s for s in sections):
                continue
            for combo in itertools.product(*sections):
                pairs.add((tuple(a for a, _ in combo), tuple(b for _, b in combo)))
    return trusted(UniformRelationSample, t.input, t.output, n, frozenset(pairs))


def to_automaton(t: Transducer) -> Transducer:
    """View a transducer over A, B as an acceptor over the product A×B."""
    ipair = pair_symbol(t.input, t.output)
    star = UNIT.elements[0]
    quads = {(ipair(a, b), q, star, q2) for a, q, b, q2 in t.trans}
    return transducer(
        product_alphabet(t.input, t.output), UNIT, t.states, quads, t.initial, t.final
    )

