"""Automata and their algorithms: subset construction, partition-refinement
minimization, isomorphism of minimal machines, exact language equivalence,
and the factor-closure / pruning operators on regular languages.

An automaton is a ``transducer.Machine`` with the unit output: ``Nfa``, and
``Dfa``, which alone adds an invariant.  The algorithms read the machine's
quadruple rows directly.  The subset construction and the verdict index
letters by the pair (a, b) over input × output, which for the unit output is
the alphabet's order, so a transducer is decided as the automaton over its
letter pairs with no conversion.

Three graph algorithms here are shared with the sofic and simulation
modules: ``subsets``, the subset construction; ``refine``, Hopcroft's
partition refinement; and ``long_path_mask``, the restriction to the
states on infinite paths.  All run on state positions.  A subset is an
``int`` bitmask; its image under k letters (``image_row``) is k ORs per
member, or k reads for one member.  ``long_path_mask`` peels successor and
predecessor masks (``edge_masks``): one bulk OR, then a worklist over the
predecessors of removed states, O(n + m) mask operations for n states and
m edges.  ``refine`` runs on ``list`` transition tables in O(n·k·log n).
States and subsets are named only where a machine is emitted.  A verdict
(``same_words``) walks both subset DFAs on the fly with Hopcroft and
Karp's union-find: at most one row per subset and O((N1+N2)·k) pair steps
at O(α) each for N1+N2 subsets.  It stops at the first pair differing in
finality and builds, names and validates no machine.

Determinized machines come with a "contains" relation and minimized
machines with a follow-language relation; both are simulation certificates
checkable by the simulation module.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import compress, product
from operator import itemgetter, or_

from .relcore import UNIT, Alphabet, MachineError, Rel, TypeMismatch, comma_prefixed, escape, \
    material, obj, trusted
from .transducer import STAR, Machine, Quad, Word, behavior_upto, unit_rows


class Nfa(Machine):
    """An automaton: a machine with the unit output read on finite words."""


class Dfa(Nfa):
    """An automaton with at most one initial state and at most one
    transition per state and letter."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.initial) > 1:
            raise MachineError("a DFA has at most one initial state")
        if is_deterministic(self):
            return
        seen = set()
        for a, q, _, _ in self.trans:  # locate the first repeated (state, letter)
            if (q, a) in seen:
                raise MachineError(f"nondeterministic transition on ({q!r}, {a!r})")
            seen.add((q, a))


def is_deterministic(m: Machine) -> bool:
    """Whether ``m`` has at most one transition per state and letter."""
    return len(set(map(itemgetter(0, 1), m.trans))) == len(m.trans)


def nfa(alphabet, states, trans, initial, final) -> Nfa:
    """The automaton with transitions (state, letter, next state)."""
    return Nfa(alphabet, UNIT, states, unit_rows(trans), initial, final)


EMPTY_DFA_STATES = Alphabet("empty", ())


def empty_dfa(alphabet: Alphabet) -> Dfa:
    return trusted(Dfa, alphabet, UNIT, EMPTY_DFA_STATES, frozenset(), frozenset(), frozenset(), None)


def accepts(n: Nfa, word) -> bool:
    """Whether ``n`` accepts ``word``; a letter outside its alphabet is an error."""
    table, current = successor_table(n), mask_of(n.states, n.initial)
    for col in [table[n.alphabet.index(a)] for a in word]:
        current = column_image(col, current)
    return bool(current & mask_of(n.states, n.final))


def language_upto(n: Nfa, k: int) -> set[Word]:
    """The words of length at most ``k`` that ``n`` accepts: its behavior's inputs."""
    return {w for w, _ in behavior_upto(n, k).pairs}


def _reachable(states, edges: dict[str, set[str]], seeds) -> set[str]:
    seen = set(seeds)
    todo = list(seeds) if len(seen) < len(states) else []
    while todo:
        q = todo.pop()
        for q2 in edges.get(q, ()):
            if q2 not in seen:
                seen.add(q2)
                todo.append(q2)
    return seen


def _forward_edges(m: Machine) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for _, q, _, q2 in m.trans:
        out.setdefault(q, set()).add(q2)
    return out


def _backward_edges(m: Machine) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for _, q, _, q2 in m.trans:
        out.setdefault(q2, set()).add(q)
    return out


def edge_masks(m: Machine) -> tuple[list[int], list[int]]:
    """Per state position, the bitmasks of its successors and of its predecessors in ``m``."""
    pos = m.states._pos
    succ, pred = [0] * len(pos), [0] * len(pos)
    for _, q, _, q2 in m.trans:
        i, j = pos[q], pos[q2]
        succ[i] |= 1 << j
        pred[j] |= 1 << i
    return succ, pred


def long_path_mask(succ: list[int], pred: list[int], within: int) -> int:
    """The states of the bitmask ``within`` that start an infinite path
    inside it along the successor masks ``succ``, whose reverse is ``pred``;
    swapped, the states that end one.  One bulk OR keeps the states with a
    successor in ``within``; a removed state's kept predecessors are then
    checked again, and removed, once, when no kept successor is left."""
    kept = reduce(or_, compress(pred, bits(within)), 0) & within
    todo = list(compress(range(len(pred)), bits(within & ~kept)))
    while todo:
        near = pred[todo.pop()] & kept
        while near:
            low = near & -near
            near ^= low
            q = low.bit_length() - 1
            if not succ[q] & kept:
                kept ^= low
                todo.append(q)
    return kept


def refine(delta: list[list[int]], key: list) -> list[int]:
    """The coarsest partition of the states ``0..n-1`` that refines ``key``
    (one key per state) and is stable under the complete transition table
    ``delta[letter][state] -> state``, as each state's block number.

    Hopcroft's algorithm (1971), O(n·k·log n) for k letters: each queued
    block splits every block by its predecessors under all letters; a block
    that splits while queued has both halves queued, otherwise only the
    smaller.
    """
    number: dict = {}
    block = [number.setdefault(k, len(number)) for k in key]
    members: list[set[int]] = [set() for _ in number]
    for q, b in enumerate(block):
        members[b].add(q)
    pre: list[list[list[int]]] = [[[] for _ in key] for _ in delta]
    for rows, col in zip(pre, delta):
        for q, q2 in enumerate(col):
            rows[q2].append(q)
    largest = max(range(len(members)), key=lambda b: len(members[b]), default=0)
    queue = [b for b in range(len(members)) if b != largest]
    queued = set(queue)
    while queue:
        splitter = queue.pop()
        queued.discard(splitter)
        targets = list(members[splitter])
        for rows in pre:
            hit: dict[int, list[int]] = {}
            for q2 in targets:
                for q in rows[q2]:
                    hit.setdefault(block[q], []).append(q)
            for b, inside in hit.items():
                rest = members[b]
                if len(inside) == len(rest):
                    continue
                rest.difference_update(inside)
                new = len(members)
                members.append(set(inside))
                for q in inside:
                    block[q] = new
                if b not in queued and len(rest) < len(inside):
                    new = b
                queue.append(new)
                queued.add(new)
    return block


def quotient(states: Alphabet, live: list[str], letters, delta: dict, key):
    """Merge the states of ``live`` (in state order) with equal follow
    languages in the completion of ``delta`` by a sink, ``None``, starting
    from the partition by ``key``; states in the sink's class are dropped.

    Returns each kept state's class, named by its smallest member, the
    class alphabet in state order, and the class transitions, rows of an
    automaton.
    """
    sink = len(live)
    pos = dict(zip(live, range(sink)))
    table = [[sink] * (sink + 1) for _ in letters]
    column = dict(zip(letters, table))
    for (q, a), q2 in delta.items():
        column[a][pos[q]] = pos[q2]
    block = refine(table, [key(q) for q in live] + [key(None)])
    first: dict[int, str] = {}
    for q, b in zip(live, block):
        first.setdefault(b, q)
    name = {q: first[b] for q, b in zip(live, block) if b != block[sink]}
    classes = Alphabet(states.name, tuple(q for q in live if name.get(q) == q))
    trans = {(a, name[q], STAR, name[q2]) for (q, a), q2 in delta.items() if q in name and q2 in name}
    return name, classes, trans


def mask_of(states: Alphabet, subset) -> int:
    """The bitmask over the positions of ``states`` of a set of states."""
    return sum([1 << states._pos[q] for q in subset])


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> bytes:
    """Per position, 1 for a member of ``mask`` and 0 otherwise, read off
    ``bin(mask)``, for ``itertools.compress``."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def successor_table(m: Machine) -> list[list[int]]:
    """Per letter pair (a, b) of input × output, in that order, per state
    position, the bitmask of the state's successors in ``m``.  For the unit
    output the letter pairs are the input letters in alphabet order."""
    pos, a_pos, b_pos, width = m.states._pos, m.input._pos, m.output._pos, len(m.output)
    table = [[0] * len(m.states) for _ in range(len(m.input) * width)]
    for a, q, b, q2 in m.trans:
        table[a_pos[a] * width + b_pos[b]][pos[q]] |= 1 << pos[q2]
    return table


def image_row(table: list[list[int]], mask: int) -> list[int]:
    """The image of the subset ``mask`` under each letter pair of the ``successor_table``
    ``table``: its one member's cells, or the OR of its members' cells."""
    if mask and not mask & (mask - 1):
        return [col[mask.bit_length() - 1] for col in table]
    flags = bits(mask)
    return [reduce(or_, compress(col, flags), 0) for col in table]


def column_image(col: list[int], mask: int) -> int:
    """The OR of ``col``'s cells at the members of a few-member ``mask``: a step each, no scan."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= col[low.bit_length() - 1]
    return out


def subsets(m: Machine, start: int) -> dict[int, tuple[bytes, list[int]]]:
    """Subset construction: every subset of states accessible from the
    bitmask ``start`` in ``m``, the empty subset 0 included when reached,
    with its member flags (``bits``) and its image under each letter pair,
    in the order of ``successor_table``."""
    table = successor_table(m)
    graph: dict = {start: None}
    todo = [start]
    while todo:
        cur = todo.pop()
        row = image_row(table, cur)
        graph[cur] = bits(cur), row
        for image in row:
            if image not in graph:
                graph[image] = None
                todo.append(image)
    return graph


def subset_namer(order: Alphabet):
    """The function that names each subset of ``order``, given its member
    flags, by its members in state order, comma-separated in braces.
    Distinct sets get distinct names.  When a state name begins with
    another one and a comma, as "a,b" begins with "a", each member's
    backslashes and commas are escaped with a backslash.  When a state is
    named "", the empty set is named "∅", apart from "{}", the set of that
    state."""
    names = tuple(map(escape, order.elements)) if comma_prefixed(order) else order.elements
    empty = "∅" if "" in order else "{}"

    def name(flags: bytes) -> str:
        return "{" + ",".join(compress(names, flags)) + "}" if 1 in flags else empty

    return name


def subset_machine(m: Machine, graph: dict) -> tuple[Alphabet, dict[int, str], frozenset[Quad]]:
    """Name the subsets of ``graph`` over the states of ``m``: the subset
    alphabet in name order, each subset's name, and the transitions between
    the subsets of ``graph`` (those to a subset not in it are left out)."""
    spell = subset_namer(m.states)
    name = {mask: spell(flags) for mask, (flags, _) in graph.items()}
    letters = list(product(m.input.elements, m.output.elements))
    trans = frozenset((a, name[mask], b, name[image]) for mask, (_, row) in graph.items()
                      for (a, b), image in zip(letters, row) if image in name)
    return Alphabet(f"P({m.states.name})", tuple(sorted(name.values()))), name, trans


def membership(subset_states: Alphabet, states: Alphabet, graph: dict, name: dict[int, str]) -> Rel:
    """The relation from each named subset of ``graph`` to its members.
    Both sides are typed over :func:`material` alphabets, as the simulation
    checker reads a certificate, so a unit state alphabet keeps its wire."""
    members = [(q,) for q in states.elements]
    return trusted(Rel, obj(material(subset_states)), obj(material(states)),
                   frozenset((s, q) for mask, (flags, _) in graph.items()
                             for s in [(name[mask],)] for q in compress(members, flags)))


def determinize(n: Nfa) -> tuple[Dfa, Rel]:
    """Subset construction from the set of initial states.

    Returns the accessible-subsets DFA (which is complete: the empty subset
    is an ordinary sink state when reachable) together with the membership
    relation from subset states back to original states.
    """
    start, final = mask_of(n.states, n.initial), mask_of(n.states, n.final)
    graph = subsets(n, start)
    states, name, trans = subset_machine(n, graph)
    dfa = trusted(Dfa, n.input, n.output, states, trans, frozenset({name[start]}),
                  frozenset(s for mask, s in name.items() if mask & final), None)
    return dfa, membership(states, n.states, graph, name)


def class_relation(states: Alphabet, classes: Alphabet, name: dict[str, str]) -> Rel:
    """The relation from each state to its class, typed as :func:`membership`."""
    return trusted(Rel, obj(material(states)), obj(material(classes)),
                   frozenset(((q,), (c,)) for q, c in name.items()))


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
    if not live or not (set(live) & d.final):
        empty = empty_dfa(d.alphabet)
        return empty, class_relation(d.states, empty.states, {})
    delta = {(q, a): q2 for a, q, _, q2 in d.trans if q in reach}
    name, min_states, trans = quotient(d.states, live, d.alphabet.elements, delta,
                                       lambda q: q in d.final)
    mdfa = trusted(Dfa, d.input, d.output, min_states, frozenset(trans),
                   frozenset({name[next(iter(d.initial))]}), d.final & frozenset(min_states.elements),
                   None)
    return mdfa, class_relation(d.states, min_states, name)


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
    delta1, delta2 = ({(q, a): q2 for a, q, _, q2 in d.trans} for d in (d1, d2))
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


def same_words(m1, start1: int, final1: int, m2, start2: int, final2: int) -> bool:
    """Whether the subset DFA of ``m1`` from ``start1`` accepts the same
    words as that of ``m2`` (same alphabets) from ``start2``, a subset being
    final when it meets ``final1`` (``final2``).  Hopcroft and Karp (1971):
    a breadth-first walk over pairs of subsets, with a union-find over
    ``mask << 1 | side``.  A pair differing in finality answers ``False``
    (checked first: no class mixes finalities), a pair in one class is
    skipped, and any other is merged and queues the pairs of its images."""
    tables = successor_table(m1), successor_table(m2)
    rows: tuple[dict[int, list[int]], ...] = ({},) * 2 if tables[0] == tables[1] else ({}, {})
    parent: dict[int, int] = {}  # a root has no entry

    def find(x: int) -> int:
        while x in parent:  # path halving
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def row(side: int, mask: int) -> list[int]:
        if mask not in rows[side]:
            rows[side][mask] = image_row(tables[side], mask)
        return rows[side][mask]

    todo = deque([(start1, start2)])
    while todo:
        a, b = todo.popleft()
        if (not a & final1) != (not b & final2):
            return False
        ra, rb = find(a << 1), find(b << 1 | 1)
        if ra != rb:
            parent[ra] = rb
            todo.extend(zip(row(0, a), row(1, b)))
    return True


def nfa_equiv(n1: Machine, n2: Machine) -> bool:
    """Exact language equality of two machines read on finite words, as
    automata over their letter pairs (see ``same_words``): for transducers,
    equality of behaviors."""
    if (n1.input.elements, n1.output.elements) != (n2.input.elements, n2.output.elements):
        raise TypeMismatch("cannot compare automata over different alphabets")
    return same_words(n1, mask_of(n1.states, n1.initial), mask_of(n1.states, n1.final),
                      n2, mask_of(n2.states, n2.initial), mask_of(n2.states, n2.final))


def prune_language(n: Nfa) -> Nfa:
    """Automaton for the words with arbitrarily long two-sided extensions.

    A state may start (resp. end) a run iff it is reachable from an initial
    state (resp. co-reachable from a final state) through a cycle, which is
    the finite stand-in for "by arbitrarily long paths": it ends an infinite
    backward path among the reachable states (resp. starts an infinite
    forward path among the co-reachable ones).
    """
    succ, pred = edge_masks(n)
    reach_in = mask_of(n.states, _reachable(n.states, _forward_edges(n), n.initial))
    reach_out = mask_of(n.states, _reachable(n.states, _backward_edges(n), n.final))
    pumped_in, pumped_out = (frozenset(compress(n.states.elements, bits(mask))) for mask in
                             (long_path_mask(pred, succ, reach_in), long_path_mask(succ, pred, reach_out)))
    return trusted(Nfa, n.input, n.output, n.states, n.trans, pumped_in, pumped_out, None)
