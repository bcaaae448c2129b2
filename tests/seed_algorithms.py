"""The original quadratic algorithms of the automata, sofic and simulation
modules, kept as differential oracles.

Moore's round-by-round partition refinement (``minimize``,
``minimize_presentation``), the k-round long-path fixpoints
(``forward_prune``, ``backward_prune``, ``_long_path_starters``,
``_long_path_enders``) and the per-state cycle search behind
``prune_language`` are copied unchanged from the first version of the
library; only their imports are new.  ``is_language_pruned`` uses this
module's ``prune_language``, so the validation in ``minimize_presentation``
is the original one too.
"""

from __future__ import annotations

from relmach.automata import EMPTY_DFA_STATES, Dfa, Nfa, Triple, _backward_edges, \
    _forward_edges, _reachable, empty_dfa, nfa, nfa_equiv
from relmach.relcore import Alphabet, MachineError, Rel, obj
from relmach.simulation import TWO_SIDED, SimCertificate
from relmach.sofic import Presentation, _restrict, find_root, is_right_resolving, is_root


def minimize(d: Dfa) -> tuple[Dfa, Rel]:
    """Merge states with equal follow languages.

    The input is first restricted to states accessible from the initial
    state, then refined against a completion with an explicit sink; the
    sink's class (states with empty follow language) is dropped from the
    result, so the minimal machine of the empty language has no states.
    The returned relation maps each live accessible input state to its
    class in the minimal machine.
    """
    reach = _reachable(d.states, _forward_edges(d), d.initial)
    live = [q for q in d.states.elements if q in reach]
    lmap_empty = Rel(obj(d.states), obj(EMPTY_DFA_STATES), frozenset())
    if not live or not (set(live) & d.final):
        return empty_dfa(d.alphabet), lmap_empty

    delta = {(q, a): q2 for q, a, q2 in d.trans if q in reach and q2 in reach}
    sink = None  # completion target, never a real state

    def dstep(q, a):
        return delta.get((q, a), sink)

    # Moore refinement over live states plus the sink.
    universe = live + [sink]
    block: dict[object, int] = {q: (0 if q in d.final else 1) for q in universe}
    while True:
        sig = {
            q: (block[q],) + tuple(block[dstep(q, a)] for a in d.alphabet.elements)
            for q in universe
        }
        renumber: dict[tuple, int] = {}
        new_block = {}
        for q in universe:
            new_block[q] = renumber.setdefault(sig[q], len(renumber))
        if new_block == block:
            break
        block = new_block

    sink_block = block[sink]
    classes: dict[int, list[str]] = {}
    for q in live:
        if block[q] != sink_block:
            classes.setdefault(block[q], []).append(q)
    if not classes:
        return empty_dfa(d.alphabet), lmap_empty

    # Each class is named by its smallest member in the original order.
    name_of = {b: min(members, key=d.states.index) for b, members in classes.items()}
    ordered = sorted(name_of.values(), key=d.states.index)
    min_states = Alphabet(d.states.name, tuple(ordered))

    trans: set[Triple] = set()
    for b, members in classes.items():
        rep = members[0]
        for a in d.alphabet.elements:
            q2 = dstep(rep, a)
            if q2 is not sink and block[q2] != sink_block:
                trans.add((name_of[b], a, name_of[block[q2]]))
    init = next(iter(d.initial))
    final = frozenset(name_of[b] for b, members in classes.items() if members[0] in d.final)
    mdfa = Dfa(d.alphabet, min_states, frozenset(trans), frozenset({name_of[block[init]]}), final)
    lmap = Rel(
        obj(d.states), obj(min_states),
        frozenset(((q,), (name_of[block[q]],)) for q in live if block[q] != sink_block),
    )
    return mdfa, lmap


def _cycle_states(n: Nfa) -> set[str]:
    fwd = _forward_edges(n)
    out = set()
    for q in n.states.elements:
        if q in _reachable(n.states, fwd, fwd.get(q, set())):
            out.add(q)
    return out


def prune_language(n: Nfa) -> Nfa:
    """Automaton for the words with arbitrarily long two-sided extensions.

    A state may start (resp. end) a run iff it is reachable from an initial
    state (resp. co-reachable from a final state) through a cycle, which is
    the finite stand-in for "by arbitrarily long paths".
    """
    fwd = _forward_edges(n)
    bwd = _backward_edges(n)
    cyc = _cycle_states(n)
    pumped_in = _reachable(n.states, fwd, cyc & _reachable(n.states, fwd, n.initial))
    pumped_out = _reachable(n.states, bwd, cyc & _reachable(n.states, bwd, n.final))
    return nfa(n.alphabet, n.states, n.trans, frozenset(pumped_in), frozenset(pumped_out))


def forward_prune(p: Presentation) -> Presentation:
    """Keep states that start a path of length at least card(states)."""
    k = len(p.states)
    step: dict[str, set[str]] = {}
    for q, _, q2 in p.trans:
        step.setdefault(q, set()).add(q2)
    can = set(p.states.elements)
    for _ in range(k):
        can = {q for q in p.states.elements if step.get(q, set()) & can}
    return _restrict(p, can)


def backward_prune(p: Presentation) -> Presentation:
    """Keep states that end a path of length at least card(states)."""
    k = len(p.states)
    back: dict[str, set[str]] = {}
    for q, _, q2 in p.trans:
        back.setdefault(q2, set()).add(q)
    can = set(p.states.elements)
    for _ in range(k):
        can = {q for q in p.states.elements if back.get(q, set()) & can}
    return _restrict(p, can)


def prune(p: Presentation) -> Presentation:
    """Keep states lying on a bi-infinite path."""
    return forward_prune(backward_prune(p))


def is_language_pruned(p: Presentation) -> bool:
    """Whether every accepted word extends on both sides within the language."""
    n = p.as_nfa()
    return nfa_equiv(n, prune_language(n))


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
    sink = None
    universe = list(p.states.elements) + [sink]

    def dstep(q, a):
        return delta.get((q, a), sink)

    # All real states accept; refinement only separates by definedness.
    block: dict[object, int] = {q: (1 if q is sink else 0) for q in universe}
    while True:
        sig = {
            q: (block[q],) + tuple(block[dstep(q, a)] for a in p.alphabet.elements)
            for q in universe
        }
        renumber: dict[tuple, int] = {}
        new_block = {q: renumber.setdefault(sig[q], len(renumber)) for q in universe}
        if new_block == block:
            break
        block = new_block

    sink_block = block[sink]
    classes: dict[int, list[str]] = {}
    for q in p.states.elements:
        if block[q] != sink_block:  # real states always differ from the sink
            classes.setdefault(block[q], []).append(q)

    name_of = {b: min(members, key=p.states.index) for b, members in classes.items()}
    ordered = sorted(name_of.values(), key=p.states.index)
    min_states = Alphabet(p.states.name, tuple(ordered))
    trans: set[Triple] = set()
    for b, members in classes.items():
        rep = members[0]
        for a in p.alphabet.elements:
            q2 = dstep(rep, a)
            if q2 is not sink:
                trans.add((name_of[b], a, name_of[block[q2]]))
    minp = Presentation(p.alphabet, min_states, frozenset(trans), name_of[block[root]])
    lmap = Rel(
        obj(p.states), obj(min_states),
        frozenset(((q,), (name_of[block[q]],)) for q in p.states.elements
                  if block[q] != sink_block),
    )
    return minp, SimCertificate(lmap, TWO_SIDED)


def _long_path_starters(p: "Presentation") -> set[str]:
    """States starting a path with at least card(states) transitions."""
    k = len(p.states)
    can = set(p.states.elements)
    step: dict[str, set[str]] = {}
    for q, _, q2 in p.trans:
        step.setdefault(q, set()).add(q2)
    for _ in range(k):
        can = {q for q in p.states.elements if step.get(q, set()) & can}
    return can


def _long_path_enders(p: "Presentation") -> set[str]:
    k = len(p.states)
    can = set(p.states.elements)
    back: dict[str, set[str]] = {}
    for q, _, q2 in p.trans:
        back.setdefault(q2, set()).add(q)
    for _ in range(k):
        can = {q for q in p.states.elements if back.get(q, set()) & can}
    return can
