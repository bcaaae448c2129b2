"""Machines: one value for every kind, and the runs and behaviors of transducers.

As the paper reads a uniform relation A* → B* as a language over A × B,
every machine is one :class:`Machine`: ``input``, ``output`` and
``states`` alphabets, and transitions stored as validated quadruples
(input letter, state, output letter, next state).  Read on finite words it
has initial and final states; read on bi-infinite words, none (``None``).
An automaton is the case of the unit output, its transition (q, a, q2) the
row (a, q, "*", q2).  The kinds are thin subclasses that add no field:
``Transducer`` here, ``automata.Nfa`` and ``automata.Dfa`` (deterministic),
and ``sofic.Presentation`` (an automaton read on bi-infinite words, with an
optional ``root``) and ``sofic.ZTransducer``.

A transducer's behavior is the length-preserving relation between input
and output words realized by runs from an initial to a final state.
Behaviors of bounded length are :class:`UniformRelationSample` values,
enumerated run by run; the paper reads a transducer as the trace of its
transition relation, ``diagram.loop_term``.  Exact comparisons go through
the automata module.  The composition, product and lift of transducers
over packed alphabets are the tests' reference, in ``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relcore import UNIT, Alphabet, MachineError, ShapeError, check_rows, frozen, grouped_pairs, \
    trusted

Quad = tuple[str, str, str, str]  # (input letter, state, output letter, next state)
Word = tuple[str, ...]
STAR = UNIT.elements[0]  # the unit alphabet's only symbol


@dataclass(frozen=True)
class Machine:
    """Transitions (a, q, b, q2) with ``a`` in ``input``, ``b`` in
    ``output`` and ``q``, ``q2`` in ``states``; the initial and final
    states, both ``None`` on bi-infinite words; and ``root``, a
    presentation's state from which every accepted word has a run."""

    input: Alphabet
    output: Alphabet
    states: Alphabet
    trans: frozenset[Quad]
    initial: frozenset[str] | None = None
    final: frozenset[str] | None = None
    root: str | None = None

    def __post_init__(self):
        states = self.states
        if self.initial is not None or self.final is not None:
            object.__setattr__(self, "initial", states.check_subset(self.initial))
            object.__setattr__(self, "final", states.check_subset(self.final))
        columns = {1: states, 3: states, 0: self.input, 2: self.output}
        object.__setattr__(self, "trans", check_rows(self.trans, columns))
        if self.root is not None:
            states.index(self.root)

    @property
    def alphabet(self) -> Alphabet:
        """An automaton's alphabet: its input."""
        return self.input

    def is_empty(self) -> bool:
        return not self.states.elements

    def sorted_rows(self) -> list[Quad]:
        """Transitions by state, input letter, output letter, next state."""
        s, i, o = self.states._pos, self.input._pos, self.output._pos
        return sorted(self.trans, key=lambda t: (s[t[1]], i[t[0]], o[t[2]], s[t[3]]))


class Transducer(Machine):
    """A machine read on finite words."""


def transducer(input: Alphabet, output: Alphabet, states: Alphabet,
               quads, initial, final) -> Transducer:
    return Transducer(input, output, states, quads, initial, final)


def unit_rows(triples) -> list[Quad]:
    """Transitions (state, letter, next state) as the rows of a machine with
    the unit output, in their order, so validation names the same offender."""
    rows = list(triples)
    if not set(map(type, rows)) <= {tuple}:  # refuse an unhashable row as a set would
        rows = list(frozen(rows, "transitions"))
    try:
        return [(a, q, STAR, q2) for q, a, q2 in rows]
    except (TypeError, ValueError):  # a row that is no triple
        bad = next(r for r in rows if not isinstance(r, tuple) or len(r) != 3)
        raise ShapeError(f"transition {bad!r} is not a tuple of 3 symbols") from None


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
        """Pairs by length, then by the input word's and the output word's symbol indices."""
        ik, ok = self.input._pos, self.output._pos
        return grouped_pairs(self.pairs, lambda w: (len(w), tuple(map(ik.__getitem__, w))),
                             lambda v: tuple(map(ok.__getitem__, v)))


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
