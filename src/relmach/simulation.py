"""Checking simulation certificates between machines.

A certificate is a relation ``s`` from the state space of the second
machine to the state space of the first.  For finite-word machines the
checker evaluates three relational conditions by full enumeration:

  initial:     point(I1)                ⊲  s ∘ point(J2)
  transition:  R1 ∘ (id × s)            ⊲  (id × s) ∘ T2
  final:       copoint(F1) ∘ s          ⊲  copoint(G2)

with ⊲ chosen per mode: equality for a two-sided certificate, ⊆ for a
backward one (behavior of machine 1 included in machine 2's), ⊇ for a
forward one (the reverse inclusion).  For machines run over bi-infinite
words the initial/final conditions are replaced by path-based ones: every
state of machine 2 that starts a maximally long path must be in the domain
of ``s`` (forward / two-sided), and every state of machine 1 that ends one
must be in its codomain (backward / two-sided).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .automata import Dfa, Nfa, _backward_edges, _forward_edges, _reachable, determinize, \
    long_path_states, minimize
from .relcore import (
    UNIT,
    MachineError,
    Rel,
    TypeMismatch,
    compose,
    identity,
    material,
    obj,
    product,
    subset_as_copoint,
    subset_as_point,
)
from .transducer import Transducer, trans_rel

if TYPE_CHECKING:  # pragma: no cover
    from .sofic import Presentation

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


def _holds(lhs: Rel, rhs: Rel, mode: str) -> tuple[bool, tuple | None]:
    """Evaluate lhs ⊲ rhs; on failure return a pair witnessing the violation."""
    if mode in (TWO_SIDED, BACKWARD):
        extra = lhs.pairs - rhs.pairs
        if extra:
            return False, min(extra)
    if mode in (TWO_SIDED, FORWARD):
        missing = rhs.pairs - lhs.pairs
        if missing:
            return False, min(missing)
    return True, None


def check_fin(m1: Transducer, m2: Transducer, cert: SimCertificate) -> SimReport:
    """Check the three finite-word conditions for ``cert.s : states2 → states1``."""
    if m1.input.elements != m2.input.elements or m1.output.elements != m2.output.elements:
        raise TypeMismatch("machines do not share input/output alphabets")
    q1, q2 = material(m1.states), material(m2.states)
    s = cert.s
    if s.dom.signature() != obj(q2).signature() or s.cod.signature() != obj(q1).signature():
        raise TypeMismatch("certificate relation is not typed states2 → states1")

    r1 = trans_rel(m1.input, m1.output, q1, m1.trans)
    r2 = trans_rel(m2.input, m2.output, q2, m2.trans)
    conditions = [
        (
            "initial",
            subset_as_point(q1, m1.initial),
            compose(subset_as_point(q2, m2.initial), s),
        ),
        (
            "transition",
            compose(product(identity(obj(m1.input)), s), r1),
            compose(r2, product(identity(obj(m1.output)), s)),
        ),
        (
            "final",
            compose(s, subset_as_copoint(q1, m1.final)),
            subset_as_copoint(q2, m2.final),
        ),
    ]
    for name, lhs, rhs in conditions:
        ok, witness = _holds(lhs, rhs, cert.mode)
        if not ok:
            return SimReport("fail", name, witness)
    return SimReport("pass")


def _letter_rel(p: "Presentation", states) -> Rel:
    """The transition relation A×Q → Q of a presentation over ``states``."""
    star = UNIT.elements[0]
    return trans_rel(p.alphabet, UNIT, states, {(a, q, star, q2) for q, a, q2 in p.trans})


def check_inf(p1: "Presentation", p2: "Presentation", cert: SimCertificate) -> SimReport:
    """Check the bi-infinite conditions for ``cert.s : states2 → states1``.

    The intertwining condition is the same as the finite one; the side
    conditions ask the long-path states of each machine to be covered by
    the domain (machine 2) and codomain (machine 1) of the relation.
    """
    if p1.alphabet.elements != p2.alphabet.elements:
        raise TypeMismatch("presentations do not share an alphabet")
    q1, q2 = material(p1.states), material(p2.states)
    s = cert.s
    if s.dom.signature() != obj(q2).signature() or s.cod.signature() != obj(q1).signature():
        raise TypeMismatch("certificate relation is not typed states2 → states1")

    lhs = compose(product(identity(obj(p1.alphabet)), s), _letter_rel(p1, q1))
    rhs = compose(_letter_rel(p2, q2), s)
    ok, witness = _holds(lhs, rhs, cert.mode)
    if not ok:
        return SimReport("fail", "transition", witness)

    if cert.mode in (TWO_SIDED, FORWARD):
        domain = {x[0] for x, _ in s.pairs}
        for q in p2.states.sort(long_path_states(p2.states.elements, _forward_edges(p2)) - domain):
            return SimReport("fail", "domain-path", ((q,), ()))
    if cert.mode in (TWO_SIDED, BACKWARD):
        codomain = {y[0] for _, y in s.pairs}
        for q in p1.states.sort(long_path_states(p1.states.elements, _backward_edges(p1)) - codomain):
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
    reach = _reachable(d.states, _forward_edges(d), d.initial)
    if set(d.states.elements) - reach:
        raise MachineError("minimization certificate requires every state accessible")
    mdfa, lmap = minimize(d)
    return mdfa, SimCertificate(lmap, TWO_SIDED)

