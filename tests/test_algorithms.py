"""Hopcroft refinement, the long-path mask peel and the walks by position
and by mask, tested differentially against the original Moore and k-round
fixpoint code, the name-based peel, the name walk of ``iso_check``
(``seed_algorithms``) and the name-based reachability walk
(``helpers.reachable``): every result must serialize to the same bytes,
every report must be the same, and every rejected input must raise the
same error."""

import random
from functools import reduce
from itertools import compress
from operator import or_

import pytest
from hypothesis import given, strategies as st

import seed_algorithms as seed
from genrand import one_transition_mutant, random_dfa, renamed_copy
from helpers import backward_edges, dfa, forward_edges, reachable, triples
from relmach import io
from relmach.automata import accessible, bits, column_image, determinize, edge_masks, image_row, iso_check, \
    long_path_mask, mask_of, minimize, next_table, nfa, prune_language, reach_mask, refine, successor_table
from relmach.relcore import Alphabet, MachineError, Rel, obj
from relmach.simulation import MODES, SimCertificate, check_inf
from relmach.sofic import backward_prune, determinize_presentation, find_root, forward_prune, \
    is_root, minimize_presentation, periodic_membership, presentation, prune

LETTERS = ("a", "b", "c")


def dumps(result) -> str:
    parts = result if isinstance(result, tuple) else (result,)
    return "".join(io.dumps(x) for x in parts)


def outcome(fn, *args):
    """The serialized result of a call, or the class and message it raised."""
    try:
        return dumps(fn(*args))
    except MachineError as e:
        return type(e), str(e)


@st.composite
def graphs(draw, deterministic=False):
    """Alphabet, states and transitions: 0–14 states, 1–3 letters."""
    n = draw(st.integers(0, 14))
    alphabet = Alphabet("A", LETTERS[:draw(st.integers(1, 3))])
    states = Alphabet("Q", tuple(f"q{i}" for i in range(n)))
    slots = [(q, a) for q in states.elements for a in alphabet.elements]
    if not n:
        return alphabet, states, set()
    targets = st.sampled_from(states.elements)
    if deterministic:
        chosen = draw(st.lists(st.sampled_from(slots), unique=True))
        return alphabet, states, {(q, a, draw(targets)) for q, a in chosen}
    trans = draw(st.lists(st.tuples(st.sampled_from(slots), targets), max_size=3 * n))
    return alphabet, states, {(q, a, q2) for (q, a), q2 in trans}


def subsets_of(states: Alphabet):
    return st.sets(st.sampled_from(states.elements)) if states.elements else st.just(set())


@st.composite
def partial_dfas(draw):
    alphabet, states, trans = draw(graphs(deterministic=True))
    subsets = subsets_of(states)
    initial = draw(subsets.filter(lambda s: len(s) <= 1))
    return dfa(alphabet, states, frozenset(trans), frozenset(initial), frozenset(draw(subsets)))


def cycle_with_chord(n: int):
    """An a-cycle on n states with one b-chord from q0 to the middle."""
    states = Alphabet("Q", tuple(f"q{i}" for i in range(n)))
    trans = {(f"q{i}", "a", f"q{(i + 1) % n}") for i in range(n)} | {("q0", "b", f"q{n // 2}")}
    return presentation(Alphabet("A", ("a", "b")), states, trans)


def chain(n: int, loop: bool):
    """q0 -a-> q1 -a-> ... -a-> q(n-1), with an a-loop on the last state if asked."""
    states = Alphabet("Q", tuple(f"q{i}" for i in range(n)))
    trans = {(f"q{i}", "a", f"q{i + 1}") for i in range(n - 1)}
    if loop:
        trans.add((f"q{n - 1}", "a", f"q{n - 1}"))
    return presentation(Alphabet("A", ("a",)), states, trans)


def family():
    empty = presentation(Alphabet("A", ("a",)), Alphabet("Q", ()), set())
    return [empty] + [cycle_with_chord(n) for n in (1, 2, 3, 7, 12, 40)] + \
        [chain(300, False), chain(300, True)]


def members(states: Alphabet, mask: int) -> set[str]:
    return set(compress(states.elements, bits(mask)))


def check_presentation(p):
    assert dumps(forward_prune(p)) == dumps(seed.forward_prune(p))
    assert dumps(backward_prune(p)) == dumps(seed.backward_prune(p))
    assert dumps(prune(p)) == dumps(seed.prune(p))
    succ, pred = edge_masks(p)
    everything = (1 << len(p.states)) - 1
    assert members(p.states, long_path_mask(succ, pred, everything)) == seed._long_path_starters(p)
    assert members(p.states, long_path_mask(pred, succ, everything)) == seed._long_path_enders(p)
    pruned = prune(p)
    if not pruned.is_empty():
        det, _ = determinize_presentation(pruned)
        assert outcome(minimize_presentation, det) == \
            outcome(seed.minimize_presentation, det, det.root, False)


def check_nfa(n):
    assert dumps(prune_language(n)) == dumps(seed.prune_language(n))
    d, _ = determinize(n)
    assert dumps(minimize(d)) == dumps(seed.minimize(d))


@given(graphs())
def test_prunes_and_canonical_steps_match_oracle(graph):
    check_presentation(presentation(*graph))


@given(graphs(deterministic=True))
def test_minimize_presentation_matches_oracle_with_validation(graph):
    p = presentation(*graph)
    assert outcome(minimize_presentation, p) == outcome(seed.minimize_presentation, p)


@given(graphs(), st.lists(st.sampled_from(LETTERS), max_size=3))
def test_periodic_membership_matches_oracle(graph, word):
    """The cycle test on the word graph (``long_path_states``) decides as
    the oracle's iterated composition; a letter outside the alphabet and
    the empty word are errors in both."""
    p = presentation(*graph)

    def verdict(fn):
        try:
            return fn(p, word)
        except MachineError as e:
            return type(e), str(e)

    assert verdict(periodic_membership) == verdict(seed.periodic_membership)


@given(partial_dfas())
def test_minimize_partial_dfa_matches_oracle(d):
    assert outcome(minimize, d) == outcome(seed.minimize, d)
    n = nfa(d.alphabet, d.states, triples(d), d.initial, d.final)
    assert dumps(prune_language(n)) == dumps(seed.prune_language(n))


@given(graphs(), st.data())
def test_prune_language_and_minimize_of_nfa_match_oracle(graph, data):
    alphabet, states, trans = graph
    check_nfa(nfa(alphabet, states, trans, data.draw(subsets_of(states)), data.draw(subsets_of(states))))


@pytest.mark.parametrize("p", family(), ids=lambda p: f"{len(p.states)}-{len(p.trans)}")
def test_families_match_oracle(p):
    check_presentation(p)
    n = seed.as_nfa(p)
    check_nfa(n)
    for initial in ({"q0"}, set()) if p.states.elements else ():
        last = {p.states.elements[-1]}
        check_nfa(nfa(n.alphabet, n.states, triples(n), initial, last))


@given(graphs(), st.data())
def test_long_path_mask_matches_the_name_based_peel(graph, data):
    """Inside an arbitrary set of states, both ways along the edges."""
    p = presentation(*graph)
    within = data.draw(subsets_of(p.states))
    succ, pred = edge_masks(p)
    mask = mask_of(p.states, within)
    assert members(p.states, long_path_mask(succ, pred, mask)) == \
        seed.long_path_states(within, forward_edges(p))
    assert members(p.states, long_path_mask(pred, succ, mask)) == \
        seed.long_path_states(within, backward_edges(p))


@given(graphs(), st.data())
def test_reach_mask_matches_the_name_walk(graph, data):
    """From a drawn set of states, from none and from every state, along the
    edges both ways."""
    p = presentation(*graph)
    succ, pred = edge_masks(p)
    for seeds in (data.draw(subsets_of(p.states)), set(), set(p.states.elements)):
        for masks, edges in ((succ, forward_edges(p)), (pred, backward_edges(p))):
            assert members(p.states, reach_mask(masks, mask_of(p.states, seeds))) == \
                reachable(p.states, edges, seeds)


@given(graphs(deterministic=True), st.data())
def test_the_position_walk_matches_the_name_walk(graph, data):
    """``accessible`` on the ``next_table`` of a partial DFA, from a drawn
    set of states, from none and from every state."""
    d = dfa(*graph, frozenset(), frozenset())
    for seeds in (data.draw(subsets_of(d.states)), set(), set(d.states.elements)):
        flags = accessible(next_table(d), len(d.states), [d.states.index(q) for q in seeds])
        assert set(compress(d.states.elements, flags)) == reachable(d.states, forward_edges(d), seeds)


@given(st.integers(0, 2 ** 32 - 1))
def test_iso_check_matches_the_name_walk(rng_seed):
    """A random partial DFA, usually not trim, against itself, a renamed copy
    with its states in another order, a one-transition mutant and another
    random DFA, usually of another size, both ways; then the minimal DFAs
    of every such pair."""
    rng = random.Random(rng_seed)
    d = random_dfa(rng)
    others = [d, renamed_copy(rng, d), one_transition_mutant(rng, d), random_dfa(rng, alphabet=d.alphabet)]
    pairs = [(d, o) for o in others] + [(o, d) for o in others]
    pairs += [(minimize(x)[0], minimize(y)[0]) for x, y in pairs]
    for x, y in pairs:
        assert iso_check(x, y) == seed.iso_check(x, y)


@given(graphs(), st.data())
def test_prunes_keep_the_root_and_return_a_pruned_machine_itself(graph, data):
    """The prunes of a rooted presentation serialize as the oracle's, root
    included; a presentation with nothing to prune is its own prune."""
    alphabet, states, trans = graph
    root = data.draw(st.sampled_from(states.elements)) if states.elements else None
    p = presentation(alphabet, states, trans, root)
    for mine, oracle in ((forward_prune, seed.forward_prune), (backward_prune, seed.backward_prune),
                         (prune, seed.prune)):
        assert dumps(mine(p)) == dumps(oracle(p))
        assert (mine(p) is p) == (len(oracle(p).states) == len(states))


@given(graphs(), st.data())
def test_check_inf_reports_match_the_name_based_peel(graph, data):
    """Reports of the identity on a set of states closed forward, backward,
    both or neither, between a presentation, itself and its prune, in every
    mode, against the checker whose path conditions peel by names.  A
    closed set passes the transition condition in one mode at least, so the
    path conditions are reached."""
    p = presentation(*graph)
    fwd, bwd = forward_edges(p), backward_edges(p)
    seeds = data.draw(subsets_of(p.states))
    both = {q: fwd.get(q, set()) | bwd.get(q, set()) for q in p.states.elements}
    for inside in (seeds, *(reachable(p.states, edges, seeds) for edges in (fwd, bwd, both))):
        for m1, m2 in ((p, p), (p, prune(p)), (prune(p), p)):
            ident = {((q,), (q,)) for q in inside if q in m1.states and q in m2.states}
            for mode in MODES:
                cert = SimCertificate(Rel(obj(m2.states), obj(m1.states), ident), mode)
                assert check_inf(m1, m2, cert) == seed.check_inf_by_tuples(m1, m2, cert)


@given(graphs())
def test_image_row_is_the_fold_of_member_cells(graph):
    """The image of the empty subset, of each one-member subset (the
    highest bit among them) and of the full set is the OR of its members'
    cells in each column, by row and column by column."""
    p = presentation(*graph)
    table = successor_table(p)
    n = len(p.states)
    for mask in [0, (1 << n) - 1] + [1 << i for i in range(n)]:
        fold = [reduce(or_, (col[i] for i in range(n) if mask >> i & 1), 0) for col in table]
        assert image_row(table, mask) == [column_image(col, mask) for col in table] == fold


def reversed_chain(n: int, loop: bool):
    p = chain(n, loop)
    return presentation(p.alphabet, p.states, {(q2, a, q) for q, a, q2 in triples(p)})


def test_long_chains_prune_to_their_loop():
    """A 3000-state a-chain, with and without a loop on its last state, and
    the reversed chain: only the loop lies on a bi-infinite path."""
    n = 3000
    last, everything = f"q{n - 1}", {f"q{i}" for i in range(n)}
    looped, back = chain(n, True), reversed_chain(n, True)
    for p in (looped, back):
        assert set(prune(p).states.elements) == {last}
        assert prune(p).trans == {("a", last, "*", last)}
    assert set(forward_prune(looped).states.elements) == everything
    assert set(backward_prune(looped).states.elements) == {last}
    assert set(forward_prune(back).states.elements) == {last}
    assert set(backward_prune(back).states.elements) == everything
    for p in (chain(n, False), reversed_chain(n, False)):
        for op in (prune, forward_prune, backward_prune):
            assert op(p).is_empty()


def test_a_root_reaches_every_state():
    """Two disjoint a-cycles: every word runs from each state, but no state
    reaches the other cycle, so none is a root; b-edges from the first
    cycle to the second make the states of the first cycle roots."""
    states = Alphabet("Q", ("p0", "p1", "q0", "q1"))
    cycles = {("p0", "a", "p1"), ("p1", "a", "p0"), ("q0", "a", "q1"), ("q1", "a", "q0")}
    apart = presentation(Alphabet("A", ("a", "b")), states, cycles)
    assert not any(is_root(apart, r) for r in states.elements) and find_root(apart) is None
    with pytest.raises(MachineError, match="rooted"):
        minimize_presentation(apart)
    joined = presentation(apart.alphabet, states, cycles | {("p0", "b", "q0"), ("p1", "b", "q1")})
    assert [r for r in states.elements if is_root(joined, r)] == ["p0", "p1"]


def test_chain_dfa_minimizes_to_itself():
    p = chain(300, False)
    d = dfa(p.alphabet, p.states, triples(p), frozenset({"q0"}), frozenset({"q299"}))
    assert minimize(d) == seed.minimize(d)
    assert len(minimize(d)[0].states) == 300


def classes(block):
    return {frozenset(q for q, b in enumerate(block) if b == c) for c in set(block)}


def moore_partition(delta, key):
    """Round-by-round refinement by (block, successor blocks) signatures."""
    block = list(key)
    while True:
        sig = [(b,) + tuple(block[col[q]] for col in delta) for q, b in enumerate(block)]
        if len(set(sig)) == len(set(block)):
            return classes(block)
        block = sig


@given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 4), st.data())
def test_refine_matches_moore_on_complete_machines(n, k, marks, data):
    table = data.draw(st.lists(st.integers(0, n - 1), min_size=n * k, max_size=n * k))
    key = data.draw(st.lists(st.integers(0, marks - 1), min_size=n, max_size=n))
    delta = [table[j::k] for j in range(k)]
    assert classes(refine(delta, key)) == moore_partition(delta, key)


def test_refine_queues_both_halves_of_a_queued_block():
    # Found by random search: queueing only one half of a block that splits
    # while queued gives a partition here that is coarser than Moore's.
    delta, key = [[5, 2, 3, 0, 6, 3, 0]], [2, 2, 2, 1, 1, 0, 1]
    assert classes(refine(delta, key)) == moore_partition(delta, key)


def test_refine_is_coarsest_stable_partition():
    # 0..5 on a 6-cycle with 0 the only marked state: every state is
    # distinguished by its distance to 0, and the marking is kept.
    cycle = [[(i + 1) % 6 for i in range(6)]]
    assert len(set(refine(cycle, [i == 0 for i in range(6)]))) == 6
    # Marking every other state leaves two classes.
    assert len(set(refine(cycle, [i % 2 for i in range(6)]))) == 2
    assert refine([[]], []) == []
