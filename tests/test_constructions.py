"""The bi-infinite side runs the finite-word constructions: normal forms of
both term languages through one collapse, both subset constructions through
one loop, and rooted isomorphism through ``iso_check``.  Each is tested
differentially against the former separate copy (``seed_algorithms``):
every result must serialize to the same bytes, and every rejected input
must raise the same error."""

import itertools
import random

from hypothesis import given, strategies as st

import seed_algorithms as seed
from genrand import random_alphabet, random_diagram
from relmach import automata, sofic
from relmach.automata import determinize, minimal_dfa, nfa, nfa_equiv
from relmach.diagram import Feedback, FeedbackZ, Par, Seq, bend, normal_form, z_normal_form
from relmach.relcore import Alphabet, Rel, obj
from relmach.sofic import canonical_form, determinize_presentation, presentation, \
    presentations_equiv, prune, rooted_iso
from test_algorithms import graphs, outcome


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
                return FeedbackZ(w, body) if change else Feedback(w, i, f, body)
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
    for t in terms + [bend(t) for t in terms]:
        assert outcome(z_normal_form, t) == outcome(seed.z_normal_form, t)
        assert outcome(normal_form, t) == outcome(seed.normal_form, t)


@given(graphs())
def test_determinize_presentation_matches_oracle(graph):
    p = presentation(*graph)
    assert outcome(determinize_presentation, p) == outcome(seed.determinize_presentation, p)
    pruned = prune(p)
    assert outcome(determinize_presentation, pruned, False) == \
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
        assert rooted_iso(x, y) == seed.rooted_iso(x, y)


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
    assert outcome(determinize_presentation, p, False) == outcome(seed.determinize_presentation, p, False)
    det, _ = determinize_presentation(p, False)
    assert det.states.elements == ("{,q}", "{}")
    n = p.as_nfa()
    assert outcome(determinize, n) == outcome(seed.determinize, n)


# State names whose plain comma-joined subset names collide, or nearly so.
STATE_NAMES = ["a", "b", "a,b", "a,", ",b", ",", "", "\\", "\\,", "a\\", "(a,b)", "(a", "{}", "∅"]


@given(st.lists(st.sampled_from(STATE_NAMES), unique=True, max_size=6))
def test_distinct_subsets_get_distinct_names(names):
    order = Alphabet("Q", tuple(names))
    every = [frozenset(c) for k in range(len(names) + 1) for c in itertools.combinations(names, k)]
    spelled = {automata.subset_name(sub, order) for sub in every}
    assert len(spelled) == len(every)
    if not any(q.startswith(p + ",") for q in names for p in names) and "" not in names:
        # no name could be misread, so every name is the plain one
        assert all(automata.subset_name(sub, order) == "{" + ",".join(order.sort(sub)) + "}"
                   for sub in every)


def test_verdicts_build_no_membership_relation(monkeypatch):
    def refuse(*args):
        raise AssertionError("certificate relation built for a verdict")

    monkeypatch.setattr(automata, "membership", refuse)
    monkeypatch.setattr(sofic, "membership", refuse)
    # nor the follow-language relation of minimization, nor any other
    monkeypatch.setattr(Rel, "__post_init__", refuse)
    p = colliding_presentation()
    canonical_form(presentation(A, Alphabet("Q", ("0", "1")), {("0", "x", "1"), ("1", "y", "0")}))
    assert presentations_equiv(p, p)
    assert nfa_equiv(colliding_nfa(), colliding_nfa())
    assert len(minimal_dfa(automata.renumbered(colliding_nfa())).states) == 2
