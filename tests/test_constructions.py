"""The bi-infinite side runs the finite-word constructions: normal forms of
both term languages through one collapse, both subset constructions through
one loop on bitmask subsets, and both verdicts through one union-find walk
over two subset DFAs (``automata.same_words``).  Each is tested
differentially against the former code (``seed_algorithms``): every result
must serialize to the same bytes, every verdict must agree, the walk's with
the refinement of both whole subset graphs that it replaced, and every
rejected input must raise the same error."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import seed_algorithms as seed
from genrand import alter_one_box, preserving_mutation, random_alphabet, random_bundle, \
    random_diagram, random_subset, random_wired_diagram
from helpers import minimal_dfa, presentations_equiv, rooted_iso, subset_name, triples
from relmach import automata, sofic
from relmach.automata import Dfa, bits, determinize, mask_of, minimize, nfa, nfa_equiv, subsets, \
    successor_table
from relmach.diagram import Box, Feedback, Id, Par, Seq, Swap, _collapse, acceptors, \
    denotation_upto, normal_form, z_normal_form
from relmach.relcore import Alphabet, Rel, TypeMismatch, obj
from relmach.simulation import equiv_chain
from relmach.sofic import canonical_form, determinize_presentation, find_root, is_language_pruned, \
    presentation, prune
from relmach.transducer import behavior_upto
from test_algorithms import LETTERS, graphs, outcome


def unlabel(d, chosen):
    """``d`` with the labelled feedback nodes whose pre-order numbers satisfy
    ``chosen`` turned into unlabelled ones."""
    number = itertools.count()

    def go(t):
        match t:
            case Seq(first=f, second=s):
                return Seq(go(f), go(s))
            case Par(left=l, right=r):
                return Par(go(l), go(r))
            case Feedback(wire=w, initial=i, final=f, body=b):
                change = chosen(next(number))
                body = go(b)
                return Feedback(w, None, None, body) if change else Feedback(w, i, f, body)
        return t

    return go(d)


@given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(1, 3))
def test_normal_forms_match_oracle(seed_, nodes, feedbacks):
    rng = random.Random(seed_)
    dom = obj(random_alphabet(rng, "I"))
    cod = obj(random_alphabet(rng, "O"))
    d = random_diagram(rng, dom, cod, nodes, feedbacks)
    terms = [
        d,
        unlabel(d, lambda i: True),  # a bi-infinite term
        unlabel(d, lambda i: i > 0),  # bi-infinite but for the first loop
        unlabel(d, lambda i: i == 0),  # finite-word but for the first loop
    ]
    for t in terms + [seed.bend(t) for t in terms]:
        assert outcome(z_normal_form, t) == outcome(seed.z_normal_form, t)
        assert outcome(normal_form, t) == outcome(seed.normal_form, t)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(3, 9), st.integers(0, 2))
def test_wired_normal_forms_match_oracle(seed_, nodes, feedbacks):
    """Terms with ``Swap`` leaves, ``Par`` of two open halves and unit wires
    inside bundles, with loops around them, which ``random_diagram`` never
    draws: their normal forms and acceptors, or the errors they raise."""
    rng = random.Random(seed_)
    pool = [random_alphabet(rng, "A"), random_alphabet(rng, "B")]
    dom, cod = random_bundle(rng, pool), random_bundle(rng, pool)
    d = random_wired_diagram(rng, dom, cod, nodes, feedbacks)
    for t in (d, unlabel(d, lambda i: True), unlabel(d, lambda i: i == 0)):
        assert outcome(normal_form, t) == outcome(seed.normal_form, t)
        assert outcome(z_normal_form, t) == outcome(seed.z_normal_form, t)
        assert outcome(seed.acceptor, t) == \
            outcome(lambda u: seed.transducer_to_nfa(seed.normal_form(seed.bend(u))), t)


def random_term_pair(rng: random.Random, nodes: int, feedbacks: int):
    """A term and another of its type: a language-preserving rewrite of it,
    it with one box pair flipped, or an unrelated term.  Its alphabets list
    their letters in any order."""
    def alphabet(name):
        a = random_alphabet(rng, name)
        return Alphabet(name, tuple(rng.sample(a.elements, len(a))))

    if rng.random() < 0.5:
        pool = [alphabet("A"), alphabet("B")]
        dom, cod = random_bundle(rng, pool), random_bundle(rng, pool)
        draw = random_wired_diagram
    else:
        dom, cod = obj(alphabet("I")), obj(alphabet("O"))
        draw = random_diagram
    d = draw(rng, dom, cod, nodes, feedbacks)
    other = rng.choice([lambda: preserving_mutation(rng, d), lambda: alter_one_box(rng, d) or d,
                        lambda: draw(rng, dom, cod, nodes, feedbacks)])()
    return d, other


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 2))
def test_acceptors_match_bend_oracle(seed_, nodes, feedbacks):
    rng = random.Random(seed_)
    for _ in range(3):
        acceptors_match_bend_oracle(*random_term_pair(rng, nodes, feedbacks))


def acceptors_match_bend_oracle(d1, d2):
    """The acceptors read off the rows decide as the bent normal forms do;
    over every letter they are those NFAs, and their chains are the same."""
    new, old = acceptors(d1, d2), (seed.acceptor(d1), seed.acceptor(d2))
    equal = nfa_equiv(*new)
    assert equal == nfa_equiv(*old)
    letters = new[0].alphabet.elements
    if letters == old[0].alphabet.elements:
        assert new == old
    else:  # the letters that occur, in order, and one more for the rest
        kept = [a for a in old[0].alphabet.elements if a in new[0].alphabet]
        assert kept == list(letters[:-1]) and letters[-1] not in old[0].alphabet
        assert [n.trans for n in new] == [o.trans for o in old]
    if equal:
        assert outcome(equiv_chain, *new) == outcome(equiv_chain, *old)
    z1, z2 = unlabel(d1, lambda i: True), unlabel(d2, lambda i: True)
    assert nfa_equiv(*acceptors(z1, z2, bi_infinite=True)) == seed.z_diagrams_equiv(z1, z2)


def subterms(t):
    yield t
    for c in vars(t).values():
        if isinstance(c, (Box, Id, Swap, Seq, Par, Feedback)):
            yield from subterms(c)


def nest(rng: random.Random, d):
    """``d`` inside one more loop, whose fed-back wire meets ``d``'s output
    in a random term with at most one loop of its own."""
    w = Alphabet("V", ("v0", "v1"))
    mix = random_diagram(rng, d.cod + obj(w), d.cod + obj(w), 3, 1)
    return Feedback(w, random_subset(rng, w, 0.7), random_subset(rng, w, 0.7),
                    Seq(Par(d, Id(obj(w))), mix))


ORACLE_PAIRS = 2**14


def oracle_length(t, n: int) -> int:
    """``n``, or the largest length at which the oracle builds no relation
    of more than ``ORACLE_PAIRS`` word pairs: it builds every subterm's
    relation, a loop body's whole one before it filters it, and the word
    pairs of a subterm are made of the letter pairs of its collapse rows."""
    letters = max(len({(x, y) for x, _, y, _ in _collapse(s).rows}) for s in subterms(t))
    while n and letters**n > ORACLE_PAIRS:
        n -= 1
    return n


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 3), st.integers(0, 6))
def test_denotation_matches_oracle(seed_, nodes, feedbacks, n):
    """At every length up to 6, on terms with up to three loops, nested or
    not: the evaluator against the normal-form route, and against the
    former evaluator at the lengths where it builds no larger relation
    than ``ORACLE_PAIRS``."""
    rng = random.Random(seed_)

    def sample(evaluate, t, n):
        try:
            return evaluate(t, n)
        except TypeMismatch as e:  # a finite-word term has no unlabelled loop
            return str(e)

    for _ in range(4):
        d, _ = random_term_pair(rng, nodes, feedbacks)
        for t in (d, unlabel(d, lambda i: i == 0), nest(rng, d)):
            got = sample(denotation_upto, t, n)
            assert got == sample(lambda u, m: behavior_upto(normal_form(u), m), t, n)
            m = oracle_length(t, n)
            assert sample(denotation_upto, t, m) == sample(seed.denotation_upto, t, m)


@given(graphs())
def test_determinize_presentation_matches_oracle(graph):
    p = presentation(*graph)
    assert outcome(determinize_presentation, p) == outcome(seed.determinize_presentation, p)
    pruned = prune(p)
    assert outcome(determinize_presentation, pruned) == \
        outcome(seed.determinize_presentation, pruned, False)


@given(graphs(deterministic=True), graphs(deterministic=True), st.data())
def test_rooted_iso_matches_oracle(graph, other, data):
    alphabet, states, trans = graph
    roots = st.sampled_from(states.elements + (None,))
    p = presentation(alphabet, states, trans, data.draw(roots))
    moved = dict(zip(states.elements, data.draw(st.permutations(states.elements))))
    root = data.draw(roots)
    q = presentation(alphabet, states, {(moved[s], a, moved[t]) for s, a, t in trans},
                     moved.get(root))
    r = presentation(*other, data.draw(st.sampled_from(other[1].elements + (None,))))
    pairs = [(p, q), (q, p), (p, r), (r, p), (canonical_form(p), canonical_form(q))]
    for x, y in pairs:
        if x.alphabet.elements == y.alphabet.elements:
            assert rooted_iso(x, y) == seed.rooted_iso(x, y)
        else:  # the oracle walks the first alphabet's letters by name
            with pytest.raises(TypeMismatch):
                rooted_iso(x, y)


@given(graphs(), st.booleans(), st.data())
def test_subset_construction_matches_oracle(graph, dead_letter, data):
    alphabet, states, trans = graph
    if dead_letter:  # a letter without transitions leads every subset to the empty one
        alphabet = Alphabet("A", alphabet.elements + ("z",))
    subsets = st.sets(st.sampled_from(states.elements)) if states.elements else st.just(set())
    n = nfa(alphabet, states, trans, data.draw(subsets), data.draw(subsets))
    assert outcome(determinize, n) == outcome(seed.determinize, n)
    assert outcome(minimal_dfa, n) == outcome(lambda m: seed.minimize(seed.determinize(m)[0])[0], n)


A = Alphabet("A", ("x", "y"))


def colliding_nfa():
    """The subsets {a,b} and {"a,b"} of these states have the same name."""
    states = Alphabet("Q", ("a", "b", "a,b"))
    return nfa(A, states, {("a", "x", "a,b")}, {"a", "b"}, {"a,b"})


def colliding_presentation():
    states = Alphabet("Q", ("a", "b", "a,b"))
    return presentation(A, states, {("a", "x", "a"), ("b", "y", "a,b"), ("a,b", "x", "b")})


def test_subset_names_are_only_needed_for_output():
    n = colliding_nfa()
    assert outcome(determinize, n) == outcome(seed.determinize, n)
    single_x = nfa(A, Alphabet("P", ("0", "1")), {("0", "x", "1")}, {"0"}, {"1"})
    assert nfa_equiv(n, single_x) and nfa_equiv(single_x, n)
    assert not nfa_equiv(n, nfa(A, Alphabet("P", ("0",)), set(), {"0"}, {"0"}))

    p = colliding_presentation()
    assert presentations_equiv(p, p)
    full = presentation(A, Alphabet("P", ("0",)), {("0", "x", "0"), ("0", "y", "0")})
    assert not presentations_equiv(p, full)


def test_empty_subset_is_dropped_by_set_not_name():
    # {""} is a real subset named "{}", like the empty subset it sits beside.
    p = presentation(A, Alphabet("Q", ("", "q")), {("", "x", ""), ("q", "x", "")})
    assert outcome(determinize_presentation, p) == outcome(seed.determinize_presentation, p, False)
    det, _ = determinize_presentation(p)
    assert det.states.elements == ("{,q}", "{}")
    n = seed.as_nfa(p)
    assert outcome(determinize, n) == outcome(seed.determinize, n)


# State names whose plain comma-joined subset names collide, or nearly so.
STATE_NAMES = ["a", "b", "a,b", "a,", ",b", ",", "", "\\", "\\,", "a\\", "(a,b)", "(a", "{}", "∅"]


@given(st.lists(st.sampled_from(STATE_NAMES), unique=True, max_size=6))
def test_distinct_subsets_get_distinct_names(names):
    order = Alphabet("Q", tuple(names))
    every = [frozenset(c) for k in range(len(names) + 1) for c in itertools.combinations(names, k)]
    spelled = {subset_name(sub, order) for sub in every}
    assert len(spelled) == len(every)
    if not any(q.startswith(p + ",") for q in names for p in names) and "" not in names:
        # no name could be misread, so every name is the plain one
        assert all(subset_name(sub, order) == "{" + ",".join(order.sort(sub)) + "}"
                   for sub in every)


@given(st.lists(st.sampled_from(STATE_NAMES), unique=True, min_size=1, max_size=6),
       st.integers(0, 2**32).map(random.Random))
def test_subset_names_match_the_flag_namer(names, rng):
    """Every subset, and every subset a random NFA reaches, is named and
    related to its members as from its decoded member flags: a subset of
    one member from its position, of several from the flags it is decoded
    to once, when its image is taken."""
    order = Alphabet("Q", tuple(names))
    spell, old = automata.subset_namer(order), seed.subset_namer(order)
    for mask in range(1 << len(names)):
        assert spell(mask, bits(mask) if mask & (mask - 1) else None) == old(bits(mask))
    n = nfa(A, order, {(p, a, q) for p in names for a in "xy" for q in names if rng.random() < 0.3},
            {q for q in names if rng.random() < 0.5}, set())
    graph = subsets(n, mask_of(order, n.initial))
    assert all(flags == (bits(mask) if mask & (mask - 1) else None) for mask, (flags, _) in graph.items())
    states, name, _ = automata.subset_machine(n, graph)
    assert name == {mask: old(bits(mask)) for mask in graph}
    assert automata.membership(states, order, graph, name).pairs == \
        {((name[mask],), (q,)) for mask in graph for q in itertools.compress(names, bits(mask))}


def test_verdicts_build_no_membership_relation(monkeypatch):
    def refuse(*args):
        raise AssertionError("called for a verdict")

    monkeypatch.setattr(automata, "membership", refuse)
    monkeypatch.setattr(sofic, "membership", refuse)
    # nor the follow-language relation of minimization, nor any other
    monkeypatch.setattr(Rel, "__post_init__", refuse)
    p = colliding_presentation()
    canonical_form(presentation(A, Alphabet("Q", ("0", "1")), {("0", "x", "1"), ("1", "y", "0")}))
    # A verdict builds no DFA, names no subset, compares no machines and
    # refines no partition.
    monkeypatch.setattr(Dfa, "__post_init__", refuse)
    monkeypatch.setattr(automata, "iso_check", refuse)
    monkeypatch.setattr(sofic, "iso_check", refuse, raising=False)
    monkeypatch.setattr(automata, "subset_namer", refuse)
    monkeypatch.setattr(automata, "refine", refuse)
    assert presentations_equiv(p, p)
    assert nfa_equiv(colliding_nfa(), colliding_nfa())
    assert is_language_pruned(p) and find_root(p) is None
    tail = presentation(A, Alphabet("Q", ("p", "q")), {("p", "x", "p"), ("p", "x", "q")})
    assert is_language_pruned(tail) and find_root(tail) == "p"


def test_find_root_builds_one_successor_table(monkeypatch):
    """Every candidate's walk reads the one table ``find_root`` builds: an
    a-cycle with one b-chord has no root, so all n candidates are walked."""
    n = 40
    p = presentation(A, Alphabet("Q", tuple(map(str, range(n)))),
                     {(str(i), "x", str((i + 1) % n)) for i in range(n)} | {("0", "y", "2")})
    built = []

    def counting(m):
        built.append(m)
        return successor_table(m)

    for module in (automata, sofic):
        monkeypatch.setattr(module, "successor_table", counting)
    assert find_root(p) is None and len(built) == 1
    built.clear()
    # q is walked, then p is the root
    tail = presentation(A, Alphabet("Q", ("q", "p")), {("p", "x", "p"), ("p", "x", "q")})
    assert find_root(tail) == "p" and len(built) == 1


def from_end(k: int):
    """The NFA of the words over {x, y} whose k-th letter from the end is x;
    its subset DFA has 2**k states."""
    states = Alphabet("Q", tuple(f"q{i}" for i in range(k + 1)))
    trans = {("q0", "x", "q0"), ("q0", "y", "q0"), ("q0", "x", "q1")}
    trans |= {(f"q{i}", c, f"q{i + 1}") for i in range(1, k) for c in "xy"}
    return nfa(A, states, trans, {"q0"}, {f"q{k}"})


def test_verdict_stops_at_the_first_conflict(monkeypatch):
    n = from_end(12)
    with_empty_word = nfa(A, n.states, triples(n), n.initial, n.final | {"q0"})
    decoded = []
    bits = automata.bits
    monkeypatch.setattr(automata, "bits", lambda mask: decoded.append(mask) or bits(mask))
    assert not nfa_equiv(n, with_empty_word)
    assert len(decoded) <= 2


# State names whose subsets were once named alike, and plain ones.
VERDICT_NAMES = ["q0", "q1", "q2", "q3", "a", "b", "a,b", ""]


@st.composite
def machines(draw, letters):
    """States (0–6, comma and "" names among them) and transitions over
    ``letters``, some of which may have no transition."""
    names = draw(st.lists(st.sampled_from(VERDICT_NAMES), unique=True, max_size=6))
    states = Alphabet("Q", tuple(names))
    if not names or not letters:
        return states, frozenset()
    triples = st.tuples(st.sampled_from(names), st.sampled_from(letters), st.sampled_from(names))
    return states, frozenset(draw(st.lists(triples, max_size=3 * len(names))))


def mutant(draw, states, letters, trans):
    """``trans`` with one transition added or removed, when there is one."""
    if not states.elements or not letters:
        return trans
    q, q2 = (draw(st.sampled_from(states.elements)) for _ in range(2))
    return trans ^ {(q, draw(st.sampled_from(letters)), q2)}


def subsets_of(states):
    return st.sets(st.sampled_from(states.elements)) if states.elements else st.just(set())


@st.composite
def nfa_pairs(draw):
    """An NFA, a one-transition mutant of it and an unrelated NFA, over 0–3
    letters; initial and final sets may be empty."""
    alphabet = Alphabet("A", LETTERS[:draw(st.integers(0, 3))])
    made = []
    for _ in range(2):
        states, trans = draw(machines(alphabet.elements))
        made.append(nfa(alphabet, states, trans, draw(subsets_of(states)), draw(subsets_of(states))))
    n, other = made
    changed = nfa(alphabet, n.states, mutant(draw, n.states, alphabet.elements, triples(n)),
                  draw(st.sampled_from([n.initial, draw(subsets_of(n.states))])), n.final)
    return n, changed, other


@st.composite
def presentation_triples(draw):
    """A presentation, a one-transition mutant of it and an unrelated one,
    over 0–3 letters; any may be empty, and the root, if any, is a guess."""
    alphabet = Alphabet("A", LETTERS[:draw(st.integers(0, 3))])
    made = []
    for _ in range(2):
        states, trans = draw(machines(alphabet.elements))
        made.append(presentation(alphabet, states, trans,
                                 draw(st.sampled_from(states.elements + (None,)))))
    p, other = made
    return p, presentation(alphabet, p.states, mutant(draw, p.states, alphabet.elements, triples(p))), other


@given(nfa_pairs(), st.data())
def test_same_words_matches_refinement(triple, data):
    """On raw (machine, start mask, final mask) triples, the empty start
    among them, and in the shape ``is_root`` asks: one machine on both
    sides, one state's mask against the full one."""
    n, changed, other = triple

    def masks(m):
        return st.integers(0, (1 << len(m.states)) - 1)

    def same_words(m1, start1, final1, m2, start2, final2):
        return automata.same_words(successor_table(m1), start1, final1, successor_table(m2), start2, final2)

    for x, y in [(n, n), (n, changed), (changed, n), (n, other)]:
        args = (x, data.draw(masks(x)), data.draw(masks(x)), y, data.draw(masks(y)), data.draw(masks(y)))
        assert same_words(*args) == seed.same_words_by_refinement(*args)
    full = (1 << len(n.states)) - 1
    for i in range(len(n.states)):
        args = (n, 1 << i, full, n, full, full)
        assert same_words(*args) == seed.same_words_by_refinement(*args)


@given(nfa_pairs())
def test_nfa_verdicts_match_oracle(triple):
    n, changed, other = triple
    for x, y in [(n, n), (n, changed), (changed, n), (n, other), (n, minimal_dfa(n))]:
        assert nfa_equiv(x, y) == seed.nfa_equiv(x, y)


@given(presentation_triples())
def test_presentation_verdicts_match_oracle(triple):
    p, changed, other = triple
    for x, y in [(p, p), (p, changed), (changed, p), (p, other), (p, canonical_form(p))]:
        assert presentations_equiv(x, y) == seed.presentations_equiv(x, y)
    assert is_language_pruned(p) == seed.is_language_pruned(p)


@given(nfa_pairs(), presentation_triples())
def test_emitted_machines_match_oracle(nfas, presentations):
    for n in nfas:
        assert outcome(determinize, n) == outcome(seed.determinize, n)
        d = determinize(n)[0]
        assert outcome(minimize, d) == outcome(seed.minimize, d)
        spell = {mask: frozenset(q for q in n.states.elements if mask >> n.states.index(q) & 1)
                 for mask in range(1 << len(n.states))}
        graph = subsets(n, mask_of(n.states, n.initial))
        assert {spell[m]: dict(zip(n.alphabet.elements, map(spell.get, row)))
                for m, (_, row) in graph.items()} == seed.subsets(n, frozenset(n.initial))
    for p in presentations:
        assert outcome(canonical_form, p) == outcome(seed.canonical_form, p)
        pruned = prune(p)
        assert outcome(determinize_presentation, pruned) == \
            outcome(seed.determinize_presentation, pruned, False)
