"""NFA/DFA algorithms: subset construction, partition-refinement
minimization, isomorphism of minimal machines, exact language equivalence,
and the factor-closure / pruning operators on regular languages.

Determinized machines come with a "contains" relation and minimized
machines with a follow-language relation; both are simulation certificates
checkable by the simulation module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relcore import UNIT, Alphabet, MachineError, Rel, TypeMismatch, frozen, material, obj
from .transducer import Transducer, transducer

Triple = tuple[str, str, str]  # (state, letter, next state)
Word = tuple[str, ...]


@dataclass(frozen=True)
class Nfa:
    alphabet: Alphabet
    states: Alphabet
    trans: frozenset[Triple]
    initial: frozenset[str]
    final: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "trans", frozen(self.trans, "transitions"))
        object.__setattr__(self, "initial", self.states.check_subset(self.initial))
        object.__setattr__(self, "final", self.states.check_subset(self.final))
        for q, a, q2 in self.trans:
            self.states.index(q)
            self.states.index(q2)
            self.alphabet.index(a)

    def successors(self, q: str, a: str) -> set[str]:
        return {q2 for p, b, q2 in self.trans if p == q and b == a}

    def sorted_trans(self) -> list[Triple]:
        return sorted(
            self.trans,
            key=lambda t: (self.states.index(t[0]), self.alphabet.index(t[1]), self.states.index(t[2])),
        )


@dataclass(frozen=True)
class Dfa(Nfa):
    def __post_init__(self):
        super().__post_init__()
        if len(self.initial) > 1:
            raise MachineError("a DFA has at most one initial state")
        seen = set()
        for q, a, _ in self.trans:
            if (q, a) in seen:
                raise MachineError(f"nondeterministic transition on ({q!r}, {a!r})")
            seen.add((q, a))

    def delta(self) -> dict[tuple[str, str], str]:
        return {(q, a): q2 for q, a, q2 in self.trans}


def nfa(alphabet, states, trans, initial, final) -> Nfa:
    return Nfa(alphabet, states, trans, initial, final)


EMPTY_DFA_STATES = Alphabet("empty", ())


def empty_dfa(alphabet: Alphabet) -> Dfa:
    return Dfa(alphabet, EMPTY_DFA_STATES, frozenset(), frozenset(), frozenset())


def nfa_to_transducer(n: Nfa) -> Transducer:
    star = UNIT.elements[0]
    return transducer(
        n.alphabet, UNIT, n.states,
        {(a, q, star, q2) for q, a, q2 in n.trans},
        n.initial, n.final,
    )


def transducer_to_nfa(t: Transducer) -> Nfa:
    if len(t.output) != 1:
        raise TypeMismatch("only unit-output transducers can be read as automata")
    return nfa(t.input, material(t.states),
               {(q, a, q2) for a, q, _, q2 in t.quads()}, t.initial, t.final)


def accepts(n: Nfa, word) -> bool:
    current = set(n.initial)
    for a in word:
        current = {q2 for q in current for q2 in n.successors(q, a)}
        if not current:
            return False
    return bool(current & n.final)


def language_upto(n: Nfa, k: int) -> set[Word]:
    step: dict[str, dict[str, set[str]]] = {q: {} for q in n.states.elements}
    for q, a, q2 in n.trans:
        step[q].setdefault(a, set()).add(q2)
    out: set[Word] = set()
    frontier: dict[Word, frozenset[str]] = {(): frozenset(n.initial)}
    for length in range(k + 1):
        for w, reached in frontier.items():
            if reached & n.final:
                out.add(w)
        if length == k:
            break
        nxt: dict[Word, frozenset[str]] = {}
        for w, reached in frontier.items():
            for a in n.alphabet.elements:
                image = frozenset(q2 for q in reached for q2 in step[q].get(a, ()))
                if image:
                    nxt[w + (a,)] = image
        frontier = nxt
    return out


def _reachable(states, edges: dict[str, set[str]], seeds) -> set[str]:
    seen = set(seeds)
    todo = list(seeds)
    while todo:
        q = todo.pop()
        for q2 in edges.get(q, ()):
            if q2 not in seen:
                seen.add(q2)
                todo.append(q2)
    return seen


def _forward_edges(n: Nfa) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for q, _, q2 in n.trans:
        out.setdefault(q, set()).add(q2)
    return out


def _backward_edges(n: Nfa) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for q, _, q2 in n.trans:
        out.setdefault(q2, set()).add(q)
    return out


def trim(n: Nfa) -> Nfa:
    """Keep only states lying on some path from an initial to a final state."""
    live = _reachable(n.states, _forward_edges(n), n.initial) & \
        _reachable(n.states, _backward_edges(n), n.final)
    kept = tuple(q for q in n.states.elements if q in live)
    states = Alphabet(n.states.name, kept)
    return nfa(
        n.alphabet, states,
        {(q, a, q2) for q, a, q2 in n.trans if q in live and q2 in live},
        n.initial & live, n.final & live,
    )


def subset_name(members, order: Alphabet) -> str:
    return "{" + ",".join(order.sort(members)) + "}"


def determinize(n: Nfa) -> tuple[Dfa, Rel]:
    """Subset construction from the set of initial states.

    Returns the accessible-subsets DFA (which is complete: the empty subset
    is an ordinary sink state when reachable) together with the membership
    relation from subset states back to original states.
    """
    start = frozenset(n.initial)
    step: dict[str, dict[str, set[str]]] = {q: {} for q in n.states.elements}
    for q, a, q2 in n.trans:
        step[q].setdefault(a, set()).add(q2)

    seen: dict[frozenset[str], str] = {start: subset_name(start, n.states)}
    todo = [start]
    trans: set[Triple] = set()
    while todo:
        cur = todo.pop()
        for a in n.alphabet.elements:
            image = frozenset(q2 for q in cur for q2 in step[q].get(a, ()))
            if image not in seen:
                seen[image] = subset_name(image, n.states)
                todo.append(image)
            trans.add((seen[cur], a, seen[image]))

    names = sorted(seen.values())
    subset_states = Alphabet(f"P({n.states.name})", tuple(names))
    final = frozenset(name for sub, name in seen.items() if sub & n.final)
    dfa = Dfa(n.alphabet, subset_states, frozenset(trans), frozenset({seen[start]}), final)
    contains = Rel(
        obj(subset_states), obj(n.states),
        frozenset(((name,), (q,)) for sub, name in seen.items() for q in sub),
    )
    return dfa, contains


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


def iso_check(d1: Dfa, d2: Dfa) -> dict[str, str] | None:
    """The unique structure-preserving state bijection, if one exists.

    Both machines should be trim; the candidate map is forced by a
    synchronized walk from the initial states.
    """
    if len(d1.states) != len(d2.states):
        return None
    if not d1.states.elements:
        return {}
    if len(d1.initial) != 1 or len(d2.initial) != 1:
        return None
    delta1, delta2 = d1.delta(), d2.delta()
    i1, i2 = next(iter(d1.initial)), next(iter(d2.initial))
    mapping: dict[str, str] = {i1: i2}
    inverse: dict[str, str] = {i2: i1}
    todo = [i1]
    while todo:
        p = todo.pop()
        q = mapping[p]
        if (p in d1.final) != (q in d2.final):
            return None
        for a in d1.alphabet.elements:
            p2 = delta1.get((p, a))
            q2 = delta2.get((q, a))
            if (p2 is None) != (q2 is None):
                return None
            if p2 is None:
                continue
            if p2 in mapping:
                if mapping[p2] != q2:
                    return None
            elif q2 in inverse:
                return None
            else:
                mapping[p2] = q2
                inverse[q2] = p2
                todo.append(p2)
    if len(mapping) != len(d1.states):
        return None  # not trim: some state never reached
    return mapping


def minimal_dfa(n: Nfa) -> Dfa:
    return minimize(determinize(n)[0])[0]


def nfa_equiv(n1: Nfa, n2: Nfa) -> bool:
    """Exact language equality via uniqueness of the minimal machine."""
    if n1.alphabet.elements != n2.alphabet.elements:
        raise TypeMismatch("cannot compare automata over different alphabets")
    return iso_check(minimal_dfa(n1), minimal_dfa(n2)) is not None


def factor_closure(n: Nfa) -> Nfa:
    """Automaton for all factors of accepted words: trim, then make every
    remaining state both initial and final."""
    t = trim(n)
    everything = frozenset(t.states.elements)
    return nfa(t.alphabet, t.states, t.trans, everything, everything)


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


def is_factor_closed(n: Nfa) -> bool:
    return nfa_equiv(n, factor_closure(n))


def is_pruned_lang(n: Nfa) -> bool:
    return nfa_equiv(n, prune_language(n))
