"""Automata and their algorithms: subset construction, partition-refinement
minimization, isomorphism of minimal machines, exact language equivalence,
and the factor-closure / pruning operators on regular languages.

An automaton is a ``transducer.Machine`` with the unit output: ``Nfa``, and
``Dfa``, which alone adds an invariant.  The algorithms read the machine's
quadruple rows directly.  The subset construction and the verdict index
letters by the pair (a, b) over input × output, which for the unit output is
the alphabet's order, so a transducer is decided as the automaton over its
letter pairs with no conversion.

An algorithm refers to a state by its position; states and subsets are
named only where a machine or a relation is emitted.  A deterministic
machine is one ``next_table`` of successor positions, with a sink for none:
``refine`` (Hopcroft's partition refinement, O(n·k·log n)) and ``quotient``
refine it, ``accessible`` walks it and ``iso_check`` walks two in step.  A
graph is its successor and predecessor masks (``edge_masks``): ``reach_mask``
walks them a breadth-first layer at a time, and ``long_path_mask``, the
restriction to the states on infinite paths, peels them by one bulk OR, then
a worklist over the predecessors of removed states, O(n + m) mask operations
for n states and m edges.  A subset is an ``int`` bitmask; ``subsets``, the
subset construction, takes its image under k letters (``image_row``) as k
ORs per member, or k reads for one.  A verdict (``same_words``) walks the
subset DFAs of two ``successor_table``s, which its caller builds once, on the
fly with Hopcroft and Karp's union-find: at most one row per subset and
O((N1+N2)·k) pair steps at O(α) each for N1+N2 subsets.  It stops at the
first pair differing in finality and builds no machine.

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
from .transducer import Machine, Quad, Word, behavior_upto, unit_rows


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


def edge_masks(m: Machine) -> tuple[list[int], list[int]]:
    """Per state position, the bitmasks of its successors and of its predecessors in ``m``."""
    pos = m.states._pos
    succ, pred = [0] * len(pos), [0] * len(pos)
    for _, q, _, q2 in m.trans:
        i, j = pos[q], pos[q2]
        succ[i] |= 1 << j
        pred[j] |= 1 << i
    return succ, pred


def reach_mask(succ: list[int], seeds: int) -> int:
    """The states reachable from the bitmask ``seeds`` along the successor
    masks ``succ``, walked one breadth-first layer at a time with
    ``column_image``; seeds that are every state return at once."""
    if seeds == (1 << len(succ)) - 1:
        return seeds
    seen = frontier = seeds
    while frontier:
        frontier = column_image(succ, frontier) & ~seen
        seen |= frontier
    return seen


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


def quotient(m: Machine, table: list[list[int]], kept: bytes, key: list):
    """Merge the states with equal follow languages in the ``next_table``
    ``table`` of ``m``, refining the partition by ``key`` (per position, the
    sink's last).  States in the sink's class are dropped, and a class is
    named by its smallest member flagged in ``kept``, a set closed under
    successors.  Returns per position its class name or ``None``, the class
    alphabet in state order, and the class transitions, rows of an automaton."""
    block = refine(table, key)
    elements = m.states.elements
    first = {block[-1]: None}  # the sink's class names nothing
    for q, b in compress(zip(elements, block), kept):
        first.setdefault(b, q)
    name = [first[b] if k else None for b, k in zip(block, kept)] + [None]
    classes = Alphabet(m.states.name, tuple(q for q, c in zip(elements, name) if q == c))
    letters = product(m.input.elements, m.output.elements)
    trans = frozenset((a, c, b, name[q2]) for (a, b), col in zip(letters, table)
                      for c, q2 in zip(name, col) if c is not None and name[q2] is not None)
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


def next_table(m: Machine) -> list[list[int]]:
    """Per letter pair, in ``successor_table``'s order, per state position
    of the deterministic ``m``, its successor's position or, for none, the
    sink ``len(m.states)``, whose own cell ends each column."""
    pos, a_pos, b_pos, width, sink = m.states._pos, m.input._pos, m.output._pos, len(m.output), len(m.states)
    table = [[sink] * (sink + 1) for _ in range(len(m.input) * width)]
    for a, q, b, q2 in m.trans:
        table[a_pos[a] * width + b_pos[b]][pos[q]] = pos[q2]
    return table


def accessible(table: list[list[int]], sink: int, start) -> bytearray:
    """Per state position, 1 for a state reachable from the positions
    ``start`` along the ``next_table`` ``table``, whose sink is ``sink``, and
    0 otherwise, for ``itertools.compress``."""
    seen, todo = bytearray(sink + 1), [sink, *start]
    for q in todo:
        if not seen[q]:
            seen[q] = 1
            todo.extend([col[q] for col in table])
    return seen[:sink]


def image_row(table: list[list[int]], mask: int, flags: bytes | None = None) -> list[int]:
    """The image of the subset ``mask`` under each letter pair of the ``successor_table``
    ``table``: its one member's cells, or the OR of its members' cells (``flags``, if given)."""
    if mask and not mask & (mask - 1):
        return [col[mask.bit_length() - 1] for col in table]
    flags = bits(mask) if flags is None else flags
    return [reduce(or_, compress(col, flags), 0) for col in table]


def column_image(col: list[int], mask: int) -> int:
    """The OR of ``col``'s cells at the members of a few-member ``mask``: a step each, no scan."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= col[low.bit_length() - 1]
    return out


def subsets(m: Machine, start: int) -> dict[int, tuple[bytes | None, list[int]]]:
    """Subset construction: every subset of states accessible from the
    bitmask ``start`` in ``m``, the empty subset 0 included when reached,
    with its member flags (``bits``) if it has several members, else
    ``None``, and its image under each letter pair (``successor_table``'s)."""
    table = successor_table(m)
    graph: dict = {start: None}
    todo = [start]
    while todo:
        cur = todo.pop()
        flags = bits(cur) if cur & (cur - 1) else None
        row = image_row(table, cur, flags)
        graph[cur] = flags, row
        for image in row:
            if image not in graph:
                graph[image] = None
                todo.append(image)
    return graph


def subset_namer(order: Alphabet):
    """The function that names each subset of ``order``, given its mask and its member flags
    as ``subsets`` stores them, by its members in state order, comma-separated in braces; a
    subset of one member is named from its position.  Distinct sets get distinct names.  When
    a state name begins with another one and a comma, as "a,b" begins with "a", each member's
    backslashes and commas are escaped with a backslash.  When a state is named "", the empty
    set is named "∅", apart from "{}", the set of that state."""
    names = tuple(map(escape, order.elements)) if comma_prefixed(order) else order.elements
    empty = "∅" if "" in order else "{}"

    def name(mask: int, flags: bytes | None) -> str:
        if flags is not None:
            return "{" + ",".join(compress(names, flags)) + "}"
        return "{" + names[mask.bit_length() - 1] + "}" if mask else empty

    return name


def subset_machine(m: Machine, graph: dict) -> tuple[Alphabet, dict[int, str], frozenset[Quad]]:
    """Name the subsets of ``graph`` over the states of ``m``: the subset
    alphabet in name order, each subset's name, and the transitions between
    the subsets of ``graph`` (those to a subset not in it are left out)."""
    spell = subset_namer(m.states)
    name = {mask: spell(mask, flags) for mask, (flags, _) in graph.items()}
    letters = list(product(m.input.elements, m.output.elements))
    trans = frozenset((a, name[mask], b, name[image]) for mask, (_, row) in graph.items()
                      for (a, b), image in zip(letters, row) if image in name)
    return Alphabet(f"P({m.states.name})", tuple(sorted(name.values()))), name, trans


def membership(subset_states: Alphabet, states: Alphabet, graph: dict, name: dict[int, str]) -> Rel:
    """The relation from each named subset of ``graph`` to its members, read off its flags
    or, with none, its one position (an empty slice for the empty subset).  Both sides are
    typed over :func:`material` alphabets, as the simulation checker reads a certificate,
    so a unit state alphabet keeps its wire."""
    members = [(q,) for q in states.elements]
    pairs = ((s, q) for mask, (flags, _) in graph.items() for s in [(name[mask],)]
             for q in (compress(members, flags) if flags else members[mask.bit_length() - 1:mask.bit_length()]))
    return trusted(Rel, obj(material(subset_states)), obj(material(states)), frozenset(pairs))


def determinize(n: Nfa, certify=True) -> tuple[Dfa, Rel | None]:
    """Subset construction from the set of initial states.

    Returns the accessible-subsets DFA (which is complete: the empty subset
    is an ordinary sink state when reachable) together with the membership
    relation from subset states back to original states (``None`` without ``certify``).
    """
    start, final = mask_of(n.states, n.initial), mask_of(n.states, n.final)
    graph = subsets(n, start)
    states, name, trans = subset_machine(n, graph)
    dfa = trusted(Dfa, n.input, n.output, states, trans, frozenset({name[start]}),
                  frozenset(s for mask, s in name.items() if mask & final), None)
    return dfa, membership(states, n.states, graph, name) if certify else None


def class_relation(states: Alphabet, classes: Alphabet, name) -> Rel:
    """The relation from each state to its class (per position, or ``None``), typed as :func:`membership`."""
    return trusted(Rel, obj(material(states)), obj(material(classes)),
                   frozenset(((q,), (c,)) for q, c in zip(states.elements, name) if c is not None))


def minimize(d: Dfa, certify=True) -> tuple[Dfa, Rel | None]:
    """Merge states with equal follow languages.

    Only the states accessible from the initial state are named, refined
    against a completion with an explicit sink; the sink's class (states
    with empty follow language) is dropped from the result, so the minimal
    machine of the empty language has no states.  The returned relation
    maps each live accessible input state to its class in the minimal
    machine; without ``certify`` it is ``None``.
    """
    mdfa, name, _ = _minimize(d)
    return mdfa, class_relation(d.states, mdfa.states, name) if certify else None


def _minimize(d: Dfa) -> tuple[Dfa, list, bytearray]:
    """``minimize``'s DFA and the class names its relation is built from, and per state
    position 1 for a state accessible from the initial one, from its one ``next_table`` walk."""
    table, final = next_table(d), [q in d.final for q in d.states.elements]
    start = [d.states.index(q) for q in d.initial]
    kept = accessible(table, len(final), start)
    if not any(compress(final, kept)):
        return empty_dfa(d.alphabet), [], kept
    name, min_states, trans = quotient(d, table, kept, final + [False])
    mdfa = trusted(Dfa, d.input, d.output, min_states, trans, frozenset({name[start[0]]}),
                   d.final & frozenset(min_states.elements), None)
    return mdfa, name, kept


def iso_check(d1: Dfa, d2: Dfa) -> dict[str, str] | None:
    """The unique structure-preserving state bijection, if one exists.

    Both machines should be trim and share their alphabets; the candidate
    map is forced by a synchronized walk of their ``next_table``s from the
    initial states, by position.
    """
    if (d1.input.elements, d1.output.elements) != (d2.input.elements, d2.output.elements):
        raise TypeMismatch("cannot compare automata over different alphabets")
    n = len(d1.states)
    if n != len(d2.states):
        return None
    if not n:
        return {}
    if len(d1.initial) != 1 or len(d2.initial) != 1:
        return None
    final1, final2 = ([q in d.final for q in d.states.elements] for d in (d1, d2))
    table = list(zip(next_table(d1), next_table(d2)))
    i1, i2 = (d.states.index(next(iter(d.initial))) for d in (d1, d2))
    to, back = [None] * n + [n], [None] * n + [n]  # the sink n maps to the sink
    to[i1], back[i2] = i2, i1
    todo = [i1]
    for p in todo:
        q = to[p]
        if final1[p] != final2[q]:
            return None
        for col1, col2 in table:
            p2, q2 = col1[p], col2[q]
            if to[p2] == q2:
                continue
            if to[p2] is not None or back[q2] is not None:
                return None
            to[p2], back[q2] = q2, p2
            todo.append(p2)
    if len(todo) != n:
        return None  # not trim: some state never reached
    return dict(zip(d1.states.elements, map(d2.states.elements.__getitem__, to)))


def same_words(table1, start1: int, final1: int, table2, start2: int, final2: int) -> bool:
    """Whether the subset DFA of the ``successor_table`` ``table1`` from
    ``start1`` accepts the same words as that of ``table2`` (same letters)
    from ``start2``, a subset being final when it meets ``final1``
    (``final2``).  Hopcroft and Karp (1971): a breadth-first walk over pairs
    of subsets, with a union-find over ``mask << 1 | side``.  A pair
    differing in finality answers ``False`` (checked first: no class mixes
    finalities), a pair in one class is skipped, and any other is merged and
    queues the pairs of its images."""
    tables = table1, table2
    rows: tuple[dict[int, list[int]], ...] = ({},) * 2 if table1 == table2 else ({}, {})
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
    return same_words(successor_table(n1), mask_of(n1.states, n1.initial), mask_of(n1.states, n1.final),
                      successor_table(n2), mask_of(n2.states, n2.initial), mask_of(n2.states, n2.final))


def prune_language(n: Nfa) -> Nfa:
    """Automaton for the words with arbitrarily long two-sided extensions.

    A state may start (resp. end) a run iff it is reachable from an initial
    state (resp. co-reachable from a final state) through a cycle, which is
    the finite stand-in for "by arbitrarily long paths": it ends an infinite
    backward path among the reachable states (resp. starts an infinite
    forward path among the co-reachable ones).
    """
    succ, pred = edge_masks(n)
    reach_in = reach_mask(succ, mask_of(n.states, n.initial))
    reach_out = reach_mask(pred, mask_of(n.states, n.final))
    pumped_in, pumped_out = (frozenset(compress(n.states.elements, bits(mask))) for mask in
                             (long_path_mask(pred, succ, reach_in), long_path_mask(succ, pred, reach_out)))
    return trusted(Nfa, n.input, n.output, n.states, n.trans, pumped_in, pumped_out, None)
