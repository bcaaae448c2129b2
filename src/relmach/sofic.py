"""Presentations of sofic subshifts and machines over bi-infinite words.

A presentation is an automaton read on bi-infinite words, a ztransducer a
transducer so read: ``transducer.Machine`` values with no initial or final
states.  The subshift of either is the set of bi-infinite words (over
letter pairs) labelling bi-infinite runs.  Equality of subshifts is
decided entirely through finite data: two subshifts are equal iff their
factor languages are (Lind & Marcus, Symbolic Dynamics and Coding, Prop.
1.3.4), the language of a pruned machine's subset DFA from the full state
set, a subset being final when it is not empty: the pruned machine with
every state initial and final (``factor_language``), which
``automata.nfa_equiv`` compares over letter pairs; the empty subshift is
no special case.

The canonical form takes the same steps and names what it emits: pruning
is ``long_path_mask``, the subset construction ``subsets`` (rooted at
the full state set, without the empty subset), merging ``quotient``.  The
public determinize and minimize steps check their preconditions on every
call; the canonical form meets them by construction, and ``prune``'s
output passes the pruning check without a subset construction.  A
periodic point is a cycle of the graph of reading one word: the same peel.

Costs, for n states, m transitions and k letters: pruning peels states
with no kept predecessor, then no kept successor, in O(n + m) mask
operations, leaving the essential graph (Lind & Marcus, §2.2); the subset
construction is exponential in the worst case, k ORs per member of a
subset or k reads for one member; merging N subsets uses Hopcroft's
refinement, O(N·k·log N); a verdict walks both subset DFAs with a
union-find that stops at the first conflict.
"""

from __future__ import annotations

from itertools import compress

from .automata import Nfa, bits, class_relation, column_image, edge_masks, is_deterministic, language_upto, \
    long_path_mask, membership, next_table, nfa_equiv, prune_language, quotient, reach_mask, same_words, \
    subset_machine, subsets, successor_table
from .relcore import UNIT, Alphabet, MachineError, is_unit, trusted
from .simulation import TWO_SIDED, SimCertificate
from .transducer import Machine, Transducer, Word, unit_rows


class Presentation(Machine):
    """An automaton read on bi-infinite words.  ``root`` is optional
    bookkeeping: canonical presentations record the state from which every
    accepted word has a run."""


def presentation(alphabet, states, trans, root=None) -> Presentation:
    """The presentation with transitions (state, letter, next state)."""
    return Presentation(alphabet, UNIT, states, unit_rows(trans), None, None, root)


class ZTransducer(Machine):
    """A transducer read on bi-infinite words."""


def ztransducer(input, output, states, quads) -> ZTransducer:
    return ZTransducer(input, output, states, quads)


def _finite(m: Machine) -> Machine:
    """``m`` read on finite words, with every state initial and final."""
    everything = frozenset(m.states.elements)
    return trusted(Nfa if is_unit(m.output) else Transducer, m.input, m.output, m.states, m.trans,
                   everything, everything, None)


# ---------------------------------------------------------------------------
# Pruning: restrict to states on infinite paths.  "Infinite" is decided as
# "of length at least card(states)", which forces a loop.

def _full(p: Machine) -> int:
    return (1 << len(p.states)) - 1


def _restrict(p: Machine, kept: int) -> Machine:
    if kept == _full(p):
        return p
    states = Alphabet(p.states.name, tuple(compress(p.states.elements, bits(kept))))
    inside = set(states.elements)
    root = p.root if p.root in inside else None
    return trusted(type(p), p.input, p.output, states,
                   frozenset(t for t in p.trans if t[1] in inside and t[3] in inside), None, None, root)


def forward_prune(p: Presentation) -> Presentation:
    """Keep states that start a path of length at least card(states)."""
    succ, pred = edge_masks(p)
    return _restrict(p, long_path_mask(succ, pred, _full(p)))


def backward_prune(p: Presentation) -> Presentation:
    """Keep states that end a path of length at least card(states)."""
    succ, pred = edge_masks(p)
    return _restrict(p, long_path_mask(pred, succ, _full(p)))


def prune(p: Machine) -> Machine:
    """Keep states lying on a bi-infinite path: those ending a long path
    that start one among themselves, in one restriction."""
    succ, pred = edge_masks(p)
    return _restrict(p, long_path_mask(succ, pred, long_path_mask(pred, succ, _full(p))))


def is_language_pruned(p: Presentation) -> bool:
    """Whether every accepted word extends on both sides within the language.
    Pruning the language keeps states and transitions, so when it keeps
    every start and end too the two machines are one."""
    n = _finite(p)
    pumped = prune_language(n)
    return pumped.initial == n.initial and pumped.final == n.final or nfa_equiv(n, pumped)


is_right_resolving = is_deterministic


def _rooted(p: Presentation, table: list[list[int]], succ: list[int], r: str) -> bool:
    """``is_root`` over the ``successor_table`` and successor masks of ``p``,
    which every candidate shares: the follow language first, then the reach walk."""
    full, start = _full(p), 1 << p.states.index(r)
    return same_words(table, start, full, table, full, full) and reach_mask(succ, start) == full


def is_root(p: Presentation, r: str) -> bool:
    """A root reaches every state and every accepted word runs from it."""
    return _rooted(p, successor_table(p), edge_masks(p)[0], r)


def find_root(p: Presentation) -> str | None:
    table, succ = successor_table(p), edge_masks(p)[0]
    if p.root is not None and _rooted(p, table, succ, p.root):
        return p.root
    return next((r for r in p.states.elements if _rooted(p, table, succ, r)), None)


def _subset_presentation(p: Presentation) -> tuple[Presentation, dict, dict[int, str]]:
    start = _full(p)
    graph = subsets(p, start)
    graph.pop(0, None)
    states, name, trans = subset_machine(p, graph)
    return trusted(Presentation, p.input, p.output, states, trans, None, None, name[start]), graph, name


def determinize_presentation(p: Presentation, certify=True) -> tuple[Presentation, SimCertificate | None]:
    """Subset construction rooted at the full state set.

    Requires a pruned presentation of a non-empty subshift; the empty
    subset is left out, with the transitions into it, so the result is
    right-resolving.  The certificate is the membership relation,
    two-sided for the pair (input, determinized), or ``None`` without ``certify``.
    """
    if p.is_empty():
        raise MachineError("cannot determinize the empty presentation")
    if not is_language_pruned(p):
        raise MachineError("determinization requires a pruned presentation")
    det, graph, name = _subset_presentation(p)
    return det, SimCertificate(membership(det.states, p.states, graph, name), TWO_SIDED) if certify else None


def minimize_presentation(p: Presentation, certify=True) -> tuple[Presentation, SimCertificate | None]:
    """Merge states with equal follow languages; keep the root's class.

    The input must be pruned, right-resolving, and rooted; its root is
    ``find_root``'s, ``p.root`` when that is a root.  The result is the canonical
    presentation of the subshift; the certificate, ``None`` without ``certify``, is
    the follow-language relation, two-sided for the pair (minimized, input).
    """
    if not is_right_resolving(p):
        raise MachineError("minimization requires a right-resolving presentation")
    if not is_language_pruned(p):
        raise MachineError("minimization requires a pruned presentation")
    root = find_root(p)
    if root is None:
        raise MachineError("minimization requires a rooted presentation")
    minp, name = _minimal_presentation(p, root)
    return minp, SimCertificate(class_relation(p.states, minp.states, name), TWO_SIDED) if certify else None


def _minimal_presentation(p: Presentation, root: str) -> tuple[Presentation, list]:
    n = len(p.states)
    # All real states accept; refinement only separates by definedness.
    name, min_states, trans = quotient(p, next_table(p), b"\1" * n, [False] * n + [True])
    return trusted(Presentation, p.input, p.output, min_states, trans, None, None,
                   name[p.states.index(root)]), name


def canonical_form(p: Presentation) -> Presentation:
    """The unique minimal rooted right-resolving pruned presentation, or
    the empty presentation when the subshift is empty."""
    pruned = prune(p)
    if pruned.is_empty():
        return trusted(Presentation, p.input, p.output, Alphabet(p.states.name, ()), frozenset(),
                       None, None, None)
    det = _subset_presentation(pruned)[0]
    return _minimal_presentation(det, det.root)[0]


def factor_language(m: Machine) -> Machine:
    """The machine of the finite words readable inside bi-infinite runs of
    a presentation or a ztransducer: the pruned machine with every state
    initial and final."""
    return _finite(prune(m))


def factors_upto(p: Presentation, k: int) -> set[Word]:
    return language_upto(factor_language(p), k)


def periodic_membership(p: Presentation, word) -> bool:
    """Whether the periodic bi-infinite repetition of ``word`` is in the
    subshift: whether some pruned state starts an infinite path in the
    graph linking each state to those that reading the word once leads to."""
    word = tuple(word)
    if not word:
        raise MachineError("periodic membership needs a non-empty word")
    pruned = prune(p)
    table, n = successor_table(pruned), len(pruned.states)
    succ, pred = [1 << i for i in range(n)], [0] * n
    for col in [table[pruned.alphabet.index(a)] for a in word]:
        succ = [column_image(col, image) for image in succ]
    for i, image in enumerate(succ):
        while image:
            low = image & -image
            image ^= low
            pred[low.bit_length() - 1] |= 1 << i
    return bool(long_path_mask(succ, pred, _full(pruned)))
