"""NFA/DFA algorithms: subset construction, partition-refinement
minimization, isomorphism of minimal machines, exact language equivalence,
and the factor-closure / pruning operators on regular languages.

Three graph algorithms here are shared with the sofic and simulation
modules: ``subsets``, the subset construction; ``refine``, Hopcroft's
partition refinement in O(n·k·log n) for n states and k letters; and
``long_path_states``, the linear-time restriction to the states on
infinite paths.

Determinized machines come with a "contains" relation and minimized
machines with a follow-language relation; both are simulation certificates
checkable by the simulation module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relcore import UNIT, Alphabet, MachineError, Rel, TypeMismatch, check_rows, material, obj
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
        object.__setattr__(self, "initial", self.states.check_subset(self.initial))
        object.__setattr__(self, "final", self.states.check_subset(self.final))
        object.__setattr__(self, "trans", check_triples(self.alphabet, self.states, self.trans))

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


def check_triples(alphabet: Alphabet, states: Alphabet, trans) -> frozenset[Triple]:
    """Validate transitions (state, letter, next state), reporting a bad
    state before a bad letter."""
    return check_rows(trans, {0: states, 2: states, 1: alphabet})


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
               {(q, a, q2) for a, q, _, q2 in t.trans}, t.initial, t.final)


def successor_map(m) -> dict[str, dict[str, set[str]]]:
    """Each state's successors under each letter, of an ``Nfa`` or a
    presentation (anything with ``states`` and ``trans``)."""
    step: dict[str, dict[str, set[str]]] = {q: {} for q in m.states.elements}
    for q, a, q2 in m.trans:
        step[q].setdefault(a, set()).add(q2)
    return step


def accepts(n: Nfa, word) -> bool:
    step = successor_map(n)
    current = set(n.initial)
    for a in word:
        current = {q2 for q in current for q2 in step[q].get(a, ())}
        if not current:
            return False
    return bool(current & n.final)


def language_upto(n: Nfa, k: int) -> set[Word]:
    step = successor_map(n)
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


def long_path_states(states, edges: dict[str, set[str]]) -> set[str]:
    """The states that start a path of length at least card(states) inside
    ``states``, i.e. an infinite path, following ``edges``.

    Linear time: states none of whose successors are kept are peeled off
    one by one, with a counter of kept successors per state.
    """
    kept = set(states)
    preds: dict[str, list[str]] = {q: [] for q in kept}
    out_degree = dict.fromkeys(kept, 0)
    for q in kept:
        for q2 in edges.get(q, ()):
            if q2 in kept:
                preds[q2].append(q)
                out_degree[q] += 1
    todo = [q for q, n in out_degree.items() if not n]
    while todo:
        q = todo.pop()
        kept.discard(q)
        for p in preds[q]:
            out_degree[p] -= 1
            if not out_degree[p]:
                todo.append(p)
    return kept


def refine(universe, letters, step, key) -> dict:
    """The coarsest partition of ``universe`` that refines ``key`` and is
    stable under the complete transition function ``step``, as a map from
    each state to its block number.

    Hopcroft's algorithm (1971), O(n·|letters|·log n): each queued block
    splits every block by its predecessors under all letters; a block that
    splits while queued has both halves queued, otherwise only the smaller.
    """
    pre: dict = {a: {} for a in letters}
    for q in universe:
        for a in letters:
            pre[a].setdefault(step(q, a), []).append(q)
    block: dict = {}
    members: list[set] = []
    number: dict = {}
    for q in universe:
        b = block[q] = number.setdefault(key(q), len(members))
        if b == len(members):
            members.append(set())
        members[b].add(q)
    largest = max(range(len(members)), key=lambda b: len(members[b]), default=0)
    queue = [b for b in range(len(members)) if b != largest]
    queued = set(queue)
    while queue:
        splitter = queue.pop()
        queued.discard(splitter)
        targets = list(members[splitter])
        for a in letters:
            hit: dict[int, list] = {}
            for q2 in targets:
                for q in pre[a].get(q2, ()):
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
    class alphabet in state order, and the class transitions.
    """
    block = refine(live + [None], letters, lambda q, a: delta.get((q, a)), key)
    first: dict[int, str] = {}
    for q in live:
        if block[q] != block[None]:
            first.setdefault(block[q], q)
    name = {q: first[block[q]] for q in live if block[q] in first}
    classes = Alphabet(states.name, tuple(q for q in live if name.get(q) == q))
    trans = {(name[q], a, name[q2]) for (q, a), q2 in delta.items() if q in name and q2 in name}
    return name, classes, trans


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


def subset_namer(order: Alphabet):
    """The function that names each set of states of ``order`` by its
    members in state order, comma-separated in braces.  Distinct sets get
    distinct names.  When a state name begins with another one and a
    comma, as "a,b" begins with "a", each member's backslashes and commas
    are escaped with a backslash.  When a state is named "", the empty set
    is named "∅", apart from "{}", the set of that state."""
    escape = "," in "".join(order.elements) and any(
        q[:i] in order for q in order.elements for i, c in enumerate(q) if c == ",")
    empty = "∅" if "" in order else "{}"

    def name(members) -> str:
        names = order.sort(members)
        if not names:
            return empty
        if escape:
            names = [q.replace("\\", "\\\\").replace(",", "\\,") for q in names]
        return "{" + ",".join(names) + "}"

    return name


def subset_name(members, order: Alphabet) -> str:
    return subset_namer(order)(members)


def subsets(n: Nfa, start: frozenset[str]) -> dict[frozenset[str], dict[str, frozenset[str]]]:
    """Subset construction: every subset of states accessible from ``start``
    in ``n`` (an ``Nfa`` or a presentation), the empty subset included when
    reached, with its image under each letter."""
    step = successor_map(n)
    graph: dict[frozenset[str], dict[str, frozenset[str]]] = {start: {}}
    todo = [start]
    while todo:
        cur = todo.pop()
        row = graph[cur]
        for a in n.alphabet.elements:
            image = row[a] = frozenset(q2 for q in cur for q2 in step[q].get(a, ()))
            if image not in graph:
                graph[image] = {}
                todo.append(image)
    return graph


def subset_machine(states: Alphabet, graph) -> tuple[Alphabet, dict[frozenset[str], str], frozenset[Triple]]:
    """Name the subsets of ``graph`` over ``states``: the subset alphabet in
    name order, each subset's name, and the transitions between the subsets
    of ``graph`` (those to a subset not in it are left out)."""
    spell = subset_namer(states)
    name = {sub: spell(sub) for sub in graph}
    trans = frozenset((name[sub], a, name[image])
                      for sub, row in graph.items() for a, image in row.items() if image in name)
    return Alphabet(f"P({states.name})", tuple(sorted(name.values()))), name, trans


def membership(subset_states: Alphabet, states: Alphabet, name: dict[frozenset[str], str]) -> Rel:
    """The relation from each named subset to its members."""
    return Rel(obj(subset_states), obj(states),
               frozenset(((s,), (q,)) for sub, s in name.items() for q in sub))


def _subset_dfa(n: Nfa) -> tuple[Dfa, dict[frozenset[str], str]]:
    start = frozenset(n.initial)
    states, name, trans = subset_machine(n.states, subsets(n, start))
    final = frozenset(s for sub, s in name.items() if sub & n.final)
    return Dfa(n.alphabet, states, trans, frozenset({name[start]}), final), name


def determinize(n: Nfa) -> tuple[Dfa, Rel]:
    """Subset construction from the set of initial states.

    Returns the accessible-subsets DFA (which is complete: the empty subset
    is an ordinary sink state when reachable) together with the membership
    relation from subset states back to original states.
    """
    dfa, name = _subset_dfa(n)
    return dfa, membership(dfa.states, n.states, name)


def class_relation(states: Alphabet, classes: Alphabet, name: dict[str, str]) -> Rel:
    """The relation from each state to its class."""
    return Rel(obj(states), obj(classes), frozenset(((q,), (c,)) for q, c in name.items()))


def _minimal(d: Dfa) -> tuple[Dfa, dict[str, str]]:
    reach = _reachable(d.states, _forward_edges(d), d.initial)
    live = [q for q in d.states.elements if q in reach]
    if not live or not (set(live) & d.final):
        return empty_dfa(d.alphabet), {}

    delta = {(q, a): q2 for q, a, q2 in d.trans if q in reach}
    name, min_states, trans = quotient(d.states, live, d.alphabet.elements, delta,
                                       lambda q: q in d.final)
    init = next(iter(d.initial))
    final = frozenset(d.final & set(min_states.elements))
    return Dfa(d.alphabet, min_states, frozenset(trans), frozenset({name[init]}), final), name


def minimize(d: Dfa) -> tuple[Dfa, Rel]:
    """Merge states with equal follow languages.

    The input is first restricted to states accessible from the initial
    state, then refined against a completion with an explicit sink; the
    sink's class (states with empty follow language) is dropped from the
    result, so the minimal machine of the empty language has no states.
    The returned relation maps each live accessible input state to its
    class in the minimal machine.
    """
    mdfa, name = _minimal(d)
    return mdfa, class_relation(d.states, mdfa.states, name)


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
    return _minimal(_subset_dfa(n)[0])[0]


def renumbered(n: Nfa) -> Nfa:
    """A copy of ``n`` with its states named "0", "1", … in order, so that
    no subset of states is named like another."""
    num = {q: str(i) for i, q in enumerate(n.states.elements)}
    return nfa(n.alphabet, Alphabet(n.states.name, tuple(num.values())),
               {(num[q], a, num[q2]) for q, a, q2 in n.trans},
               {num[q] for q in n.initial}, {num[q] for q in n.final})


def nfa_equiv(n1: Nfa, n2: Nfa) -> bool:
    """Exact language equality via uniqueness of the minimal machine; the
    verdict needs no state names, so it is reached on renumbered copies."""
    if n1.alphabet.elements != n2.alphabet.elements:
        raise TypeMismatch("cannot compare automata over different alphabets")
    return iso_check(minimal_dfa(renumbered(n1)), minimal_dfa(renumbered(n2))) is not None


def factor_closure(n: Nfa) -> Nfa:
    """Automaton for all factors of accepted words: trim, then make every
    remaining state both initial and final."""
    t = trim(n)
    everything = frozenset(t.states.elements)
    return nfa(t.alphabet, t.states, t.trans, everything, everything)


def prune_language(n: Nfa) -> Nfa:
    """Automaton for the words with arbitrarily long two-sided extensions.

    A state may start (resp. end) a run iff it is reachable from an initial
    state (resp. co-reachable from a final state) through a cycle, which is
    the finite stand-in for "by arbitrarily long paths": it ends an infinite
    backward path among the reachable states (resp. starts an infinite
    forward path among the co-reachable ones).
    """
    fwd = _forward_edges(n)
    bwd = _backward_edges(n)
    pumped_in = long_path_states(_reachable(n.states, fwd, n.initial), bwd)
    pumped_out = long_path_states(_reachable(n.states, bwd, n.final), fwd)
    return nfa(n.alphabet, n.states, n.trans, frozenset(pumped_in), frozenset(pumped_out))


def is_factor_closed(n: Nfa) -> bool:
    return nfa_equiv(n, factor_closure(n))


def is_pruned_lang(n: Nfa) -> bool:
    return nfa_equiv(n, prune_language(n))
