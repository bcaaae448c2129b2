"""Checking simulation certificates between machines.

A certificate is a relation ``s`` from the state space of the second
machine to the state space of the first.  For finite-word machines the
checker evaluates three relational conditions, each side straight from the
machines' transition rows and the pairs of ``s``; no relation is composed:

  initial:     point(I1)                ⊲  s ∘ point(J2)
  transition:  R1 ∘ (id × s)            ⊲  (id × s) ∘ T2
  final:       copoint(F1) ∘ s          ⊲  copoint(G2)

with ⊲ chosen per mode: equality for a two-sided certificate, ⊆ for a
backward one (behavior of machine 1 included in machine 2's), ⊇ for a
forward one (the reverse inclusion).  For machines run over bi-infinite
words the initial/final conditions are replaced by path-based ones: every
state of machine 2 that starts a maximally long path must be in the domain
of ``s`` (forward / two-sided), and every state of machine 1 that ends one
must be in its codomain (backward / two-sided).  The transition condition
is decided on bitmasks, one per letter pair and state of machine 2 on each
side, letter pairs indexed by position in the packed product alphabet;
pairs are spelled out only where the sides differ, to name the least one.

The paper certifies equality by a chain of simulations.  ``equiv_chain``
builds the ``Chain`` of two NFAs that accept the same words: on each side a
``Link`` from the NFA and one from its minimal DFA to its subset DFA, and
the isomorphism of the minimal DFAs; ``check_fin(*link)`` re-checks a link.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .automata import Dfa, Nfa, _minimize, bits, class_relation, determinize, edge_masks, iso_check, \
    long_path_mask, mask_of, minimize
from .relcore import Alphabet, MachineError, Rel, TypeMismatch, is_unit, obj, pack_obj
from .transducer import Machine

TWO_SIDED = "two-sided"
BACKWARD = "backward"
FORWARD = "forward"
MODES = (TWO_SIDED, BACKWARD, FORWARD)


@dataclass(frozen=True)
class SimCertificate:
    s: Rel
    mode: str = TWO_SIDED

    def __post_init__(self):
        if self.mode not in MODES:
            raise MachineError(f"unknown simulation mode {self.mode!r}")


@dataclass(frozen=True)
class SimReport:
    verdict: str  # "pass" | "fail"
    failed_condition: str | None = None
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


def _holds(lhs: set, rhs: set, mode: str, tail: int) -> tuple[bool, tuple | None]:
    """Evaluate lhs ⊲ rhs; on failure return a pair witnessing the violation.

    The pairs (x, y) of both sides are stored as flat tuples x + y, and
    ``tail`` is len(y).  Within one side every pair has the same shape, so
    the least flat tuple of a difference is its least pair.
    """
    if lhs == rhs:
        return True, None
    extra = lhs - rhs if mode in (TWO_SIDED, BACKWARD) else set()
    if not extra and mode in (TWO_SIDED, FORWARD):
        extra = rhs - lhs
    if not extra:
        return True, None
    w = min(extra)
    return False, (w[:len(w) - tail], w[len(w) - tail:])


def _check_typed(s: Rel, q1: Alphabet, q2: Alphabet) -> None:
    if s.dom.signature() != (q2.elements,) or s.cod.signature() != (q1.elements,):
        raise TypeMismatch("certificate relation is not typed states2 → states1")


def _parts(alphabet: Alphabet) -> list[tuple]:
    """The tuple component each letter gives, by position: ``(a,)``, or
    ``()`` for the letter of the unit alphabet."""
    return [() if is_unit(alphabet) else (a,) for a in alphabet.elements]


def _transition(s: Rel, m1: Machine, m2: Machine, letter) -> tuple[set, set]:
    """Both sides of R1 ∘ (id × s) ⊲ (id × s) ∘ R2: per letter pair (indexed
    as ``automata.successor_table`` does) and state p of machine 2, the
    bitmask of the states q1 of machine 1 related to them.  Equal sides give
    two empty sets, else each side's bits the other lacks as flat pairs
    ((x, p), (y, q1)), ``letter`` giving the components (x, y) of a letter pair."""
    states1, states2 = m1.states.elements, m2.states.elements
    pos1, pos2, n = m1.states._pos, m2.states._pos, len(states2)
    image, preimage = [0] * n, {}
    for (x,), (y,) in s.pairs:
        image[pos2[x]] |= 1 << pos1[y]
        preimage.setdefault(y, []).append(pos2[x])

    def rows(m: Machine) -> list:  # each row's first cell, state and next state
        a_pos, b_pos, width = m.input._pos, m.output._pos, len(m.output)
        return [((a_pos[a] * width + b_pos[b]) * n, q, q2) for a, q, b, q2 in m.trans]

    size = len(m1.input) * len(m1.output) * n  # machine 2 has as many letter pairs
    lhs, rhs = [0] * size, [0] * size
    for base, q, q1 in rows(m1):
        bit = 1 << pos1[q1]
        for p in preimage.get(q, ()):
            lhs[base + p] |= bit
    for base, p, q2 in rows(m2):
        rhs[base + pos2[p]] |= image[pos2[q2]]
    if lhs == rhs:
        return set(), set()
    out = set(), set()
    for i, (u, v) in enumerate(zip(lhs, rhs)):
        if u != v:
            (x, y), p = letter(i // n), (states2[i % n],)
            for side, bits in zip(out, (u & ~v, v & ~u)):
                side.update(x + p + y + (q1,) for k, q1 in enumerate(states1) if bits >> k & 1)
    return out


def check_fin(m1: Machine, m2: Machine, cert: SimCertificate) -> SimReport:
    """Check the three finite-word conditions for ``cert.s : states2 → states1``."""
    if m1.input.elements != m2.input.elements or m1.output.elements != m2.output.elements:
        raise TypeMismatch("machines do not share input/output alphabets")
    s = cert.s
    _check_typed(s, m1.states, m2.states)
    # machine 1's alphabets read both machines' letters, so a unit alphabet
    # and its one-element namesake read alike
    a, b, width = _parts(m1.input), _parts(m1.output), len(m1.output)

    def conditions():  # name, both sides, and the length of a pair's codomain tuple
        yield "initial", {(q,) for q in m1.initial}, {y for (x,), y in s.pairs if x in m2.initial}, 1
        yield "transition", *_transition(s, m1, m2, lambda i: (a[i // width], b[i % width])), \
            1 if is_unit(m1.output) else 2
        yield "final", {x for x, (y,) in s.pairs if y in m1.final}, {(q,) for q in m2.final}, 0

    for name, lhs, rhs, tail in conditions():
        ok, witness = _holds(lhs, rhs, cert.mode, tail)
        if not ok:
            return SimReport("fail", name, witness)
    return SimReport("pass")


def check_inf(p1: Machine, p2: Machine, cert: SimCertificate) -> SimReport:
    """Check the bi-infinite conditions for ``cert.s : states2 → states1``.

    The machines are read as presentations over their letter pairs, each
    pair packed into one letter of the product alphabet.  The intertwining
    condition is the same as the finite one; the side conditions ask the
    long-path states of each machine to be covered by the domain (machine
    2) and codomain (machine 1) of the relation.
    """
    alphabet = pack_obj(obj(p1.input, p1.output))
    if alphabet.elements != pack_obj(obj(p2.input, p2.output)).elements:
        raise TypeMismatch("presentations do not share an alphabet")
    s = cert.s
    _check_typed(s, p1.states, p2.states)
    packed = _parts(alphabet)
    ok, witness = _holds(*_transition(s, p1, p2, lambda i: (packed[i], ())), cert.mode, 1)
    if not ok:
        return SimReport("fail", "transition", witness)

    if cert.mode in (TWO_SIDED, FORWARD):
        domain = mask_of(p2.states, {x for (x,), _ in s.pairs})
        uncovered = long_path_mask(*edge_masks(p2), (1 << len(p2.states)) - 1) & ~domain
        for q in compress(p2.states.elements, bits(uncovered)):
            return SimReport("fail", "domain-path", ((q,), ()))
    if cert.mode in (TWO_SIDED, BACKWARD):
        codomain = mask_of(p1.states, {y for _, (y,) in s.pairs})
        uncovered = long_path_mask(*reversed(edge_masks(p1)), (1 << len(p1.states)) - 1) & ~codomain
        for q in compress(p1.states.elements, bits(uncovered)):
            return SimReport("fail", "codomain-path", ((q,), ()))
    return SimReport("pass")


def certificate_for_determinization(n: Nfa) -> tuple[Dfa, SimCertificate]:
    """Determinize and return the membership relation as a two-sided
    certificate; the checked pair is (original, determinized)."""
    dfa, contains = determinize(n)
    return dfa, SimCertificate(contains, TWO_SIDED)


def certificate_for_minimization(d: Dfa) -> tuple[Dfa, SimCertificate]:
    """Minimize and return the follow-language relation as a two-sided
    certificate; the checked pair is (minimized, original).

    Every state of ``d`` must be accessible from its initial state.
    """
    mdfa, name, kept = _minimize(d)
    if not all(kept):
        raise MachineError("minimization certificate requires every state accessible")
    return mdfa, SimCertificate(class_relation(d.states, mdfa.states, name), TWO_SIDED)



class Link(NamedTuple):
    """A certificate and the machines it relates: ``check_fin(*link)``."""

    m1: Machine
    m2: Machine
    cert: SimCertificate


class Chain(NamedTuple):
    """Each side's ``(contains, follow)`` links and the isomorphism link."""

    left: tuple[Link, Link]
    right: tuple[Link, Link]
    iso: Link


def _side(n: Nfa) -> tuple[Link, Link]:
    """An NFA's two links; its subset DFA is accessible, as ``follow`` requires."""
    dfa, contains = certificate_for_determinization(n)
    minimal, follow = minimize(dfa)
    return Link(n, dfa, contains), Link(minimal, dfa, SimCertificate(follow))


def equiv_chain(n1: Nfa, n2: Nfa) -> Chain:
    """The certificate chain of two NFAs that accept the same words."""
    left, right = _side(n1), _side(n2)
    m1, m2 = left[1].m1, right[1].m1
    if (mapping := iso_check(m1, m2)) is None:
        raise MachineError("no certificate chain: the automata accept different words")
    iso = Rel(obj(m2.states), obj(m1.states), frozenset(((q2,), (q1,)) for q1, q2 in mapping.items()))
    return Chain(left, right, Link(m1, m2, SimCertificate(iso)))
