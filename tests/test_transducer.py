import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEED
from genrand import random_subset, random_transducer
from helpers import compose, compose_transducers, from_automaton, lift_transducer, pack_rel, \
    product_transducers, rel, rel_equals
from relmach.diagram import denotation_upto, loop_term
from relmach.relcore import UNIT, Alphabet, MachineError, TypeMismatch, obj
from relmach.transducer import UniformRelationSample, behavior_upto, transducer
from samples import lift_sample, sample_compose, sample_product
from seed_algorithms import behavior_via_shift_upto, finite_shift_at, to_automaton

A = Alphabet("A", ("a", "b"))
Aa = Alphabet("A", ("a",))
Q2 = Alphabet("Q", ("q0", "q1"))

SWAP_REL = rel(obj(A), obj(A), {(("a",), ("b",)), (("b",), ("a",))})
SWAP_T = lift_transducer(SWAP_REL)
PARITY = transducer(Aa, Aa, Q2, {("a", "q0", "a", "q1"), ("a", "q1", "a", "q0")},
                    {"q0"}, {"q0"})


def brute_behavior(t, n):
    """Oracle: test every word pair of every length by set-based stepping."""
    quads = t.trans

    def reachable(w, v):
        cur = set(t.initial)
        for a, b in zip(w, v):
            cur = {q2 for (x, q, y, q2) in quads if x == a and y == b and q in cur}
        return bool(cur & t.final)

    pairs = set()
    for k in range(n + 1):
        for w in itertools.product(t.input.elements, repeat=k):
            for v in itertools.product(t.output.elements, repeat=k):
                if reachable(w, v):
                    pairs.add((w, v))
    return frozenset(pairs)


def test_swap_behavior_len2():
    got = behavior_upto(SWAP_T, 2)
    assert got.pairs == frozenset({
        ((), ()),
        (("a",), ("b",)), (("b",), ("a",)),
        (("a", "a"), ("b", "b")), (("a", "b"), ("b", "a")),
        (("b", "a"), ("a", "b")), (("b", "b"), ("a", "a")),
    })


def test_no_initial_states_means_empty_behavior():
    t = transducer(Aa, Aa, Q2, {("a", "q0", "a", "q1")}, set(), {"q0", "q1"})
    assert behavior_upto(t, 3).pairs == frozenset()


def test_parity_behavior():
    got = behavior_upto(PARITY, 4)
    aa = ("a", "a")
    assert got.pairs == frozenset({((), ()), (aa, aa), (aa + aa, aa + aa)})


def shift(t, n):
    """The behavior sample of ``t`` as its loop term's bounded evaluation."""
    return denotation_upto(loop_term(t), n)


def test_behavior_via_shift_matches_on_examples():
    for t, n in ((SWAP_T, 2), (PARITY, 4)):
        assert shift(t, n).pairs == behavior_via_shift_upto(t, n).pairs == behavior_upto(t, n).pairs


def test_shift_excludes_empty_pair_when_disjoint():
    t = transducer(Aa, Aa, Alphabet("Q", ("q",)), set(), {"q"}, set())
    assert ((), ()) not in behavior_via_shift_upto(t, 0).pairs
    assert shift(t, 0).pairs == frozenset()


def test_finite_shift_examples():
    assert finite_shift_at(A, {"a"}, {"b"}, 1) == frozenset({(("b",), ("a",))})
    assert finite_shift_at(A, {"a"}, {"b"}, 0) == frozenset()
    got = finite_shift_at(A, set(A.elements), set(A.elements), 2)
    assert len(got) == 8
    for w, v in got:
        assert w[0] == v[1]


def test_compose_transducers_swap_swap_is_identity_lift():
    t = compose_transducers(SWAP_T, SWAP_T)
    ident = lift_transducer(rel(obj(A), obj(A), {(("a",), ("a",)), (("b",), ("b",))}))
    assert behavior_upto(t, 3).pairs == behavior_upto(ident, 3).pairs


def test_compose_with_identity_lift_keeps_behavior():
    ident = lift_transducer(rel(obj(Aa), obj(Aa), {(("a",), ("a",))}))
    t = compose_transducers(PARITY, ident)
    assert behavior_upto(t, 3).pairs == behavior_upto(PARITY, 3).pairs


def test_compose_behavior_is_sample_composition():
    rng = random.Random(SEED + 11)
    B = Alphabet("B", ("x", "y"))
    for _ in range(20):
        t1 = random_transducer(rng, input=A, output=B)
        t2 = random_transducer(rng, input=B, output=A)
        got = behavior_upto(compose_transducers(t1, t2), 5)
        want = sample_compose(behavior_upto(t1, 5), behavior_upto(t2, 5))
        assert got.pairs == want.pairs


def test_product_behavior_is_sample_zip():
    rng = random.Random(SEED + 13)
    B = Alphabet("B", ("x", "y"))
    for _ in range(20):
        t1 = random_transducer(rng, input=A, output=B)
        t2 = random_transducer(rng, input=B, output=A)
        got = behavior_upto(product_transducers(t1, t2), 5)
        want = sample_product(behavior_upto(t1, 5), behavior_upto(t2, 5))
        assert got.pairs == want.pairs


def test_compose_alphabet_mismatch():
    with pytest.raises(TypeMismatch):
        compose_transducers(PARITY, SWAP_T)


def test_product_with_identity_zips():
    ident = lift_transducer(rel(obj(Aa), obj(Aa), {(("a",), ("a",))}))
    t = product_transducers(PARITY, ident)
    want = sample_product(behavior_upto(PARITY, 3), behavior_upto(ident, 3))
    assert behavior_upto(t, 3).pairs == want.pairs


def test_product_swap_swap():
    t = product_transducers(SWAP_T, SWAP_T)
    got = behavior_upto(t, 2)
    want = sample_product(behavior_upto(SWAP_T, 2), behavior_upto(SWAP_T, 2))
    assert got.pairs == want.pairs
    assert (("(a,b)",), ("(b,a)",)) in got.pairs


def test_product_with_empty_machine():
    dead = transducer(Aa, Aa, Q2, set(), set(), {"q0"})
    t = product_transducers(PARITY, dead)
    assert behavior_upto(t, 3).pairs == frozenset()


def test_lift_transducer_edges():
    empty = lift_transducer(rel(obj(A), obj(A), set()))
    assert behavior_upto(empty, 3).pairs == frozenset({((), ())})
    ident = lift_transducer(rel(obj(A), obj(A), {(("a",), ("a",)), (("b",), ("b",))}))
    assert behavior_upto(ident, 3).pairs == lift_sample(
        rel(obj(A), obj(A), {(("a",), ("a",)), (("b",), ("b",))}), 3).pairs


def test_lift_transducer_packs_bundles_as_pack_rel_does():
    """A relation between bundles lifts to the machine of its packed
    relation: two wires to one, no wire to one, and the unit wire."""
    for dom, cod in ((obj(A, Aa), obj(A)), (obj(), obj(A, A)), (obj(UNIT, A), obj(Aa, UNIT))):
        space = [(x, y) for x in dom.tuples() for y in cod.tuples()]
        for r in (rel(dom, cod, set()), rel(dom, cod, space), rel(dom, cod, space[::2])):
            assert lift_transducer(r) == lift_transducer(pack_rel(r))


def test_to_automaton_swap():
    nfa_view = to_automaton(SWAP_T)
    got = {w for w, _ in behavior_upto(nfa_view, 2).pairs}
    assert got == {(), ("(a,b)",), ("(b,a)",),
                   ("(a,b)", "(a,b)"), ("(a,b)", "(b,a)"),
                   ("(b,a)", "(a,b)"), ("(b,a)", "(b,a)")}


def test_from_automaton_round_trip():
    for t in (SWAP_T, PARITY):
        back = from_automaton(to_automaton(t), t.input, t.output)
        assert back == t


def test_parity_automaton_language():
    n = to_automaton(PARITY)
    words = {w for w, _ in behavior_upto(n, 4).pairs}
    aa = ("(a,a)", "(a,a)")
    assert words == {(), aa, aa + aa}


def test_random_behaviors_agree_with_oracle():
    rng = random.Random(SEED + 12)
    for _ in range(25):
        t = random_transducer(rng)
        want = brute_behavior(t, 4)
        assert behavior_upto(t, 4).pairs == want
        assert behavior_via_shift_upto(t, 4).pairs == want
        assert shift(t, 4).pairs == want


def test_empty_state_alphabet():
    none = Alphabet("Q", ())
    t = transducer(Aa, Aa, none, set(), set(), set())
    assert behavior_upto(t, 2).pairs == frozenset()
    assert behavior_via_shift_upto(t, 2).pairs == frozenset()
    assert shift(t, 2) == UniformRelationSample(Aa, Aa, 2, frozenset())


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.sampled_from(["Q", "unit", "empty"]),
       st.booleans(), st.booleans())
def test_loop_term_denotation_matches_shift_oracle(seed_, n, states, unit_in, unit_out):
    """The loop term of a transducer, evaluated by ``denotation_upto``,
    gives the shift route's sample: its pairs, its alphabets and its bound,
    on unit input, output and state alphabets, an empty state alphabet and
    empty label sets."""
    rng = random.Random(seed_)
    states = {"Q": None, "unit": UNIT, "empty": Alphabet("Q", ())}[states]
    t = random_transducer(rng, max_states=4, input=UNIT if unit_in else None,
                          output=UNIT if unit_out else None, density=0.4, states=states)
    t = transducer(t.input, t.output, t.states, t.trans, random_subset(rng, t.states, 0.3),
                   random_subset(rng, t.states, 0.3))
    want = behavior_via_shift_upto(t, n)
    assert shift(t, n) == want
    assert want.pairs == behavior_upto(t, n).pairs


# -- lift laws ---------------------------------------------------------------

small_alpha = st.sampled_from([
    Alphabet("A", ("a",)),
    Alphabet("B", ("0", "1")),
    Alphabet("C", ("x", "y", "z")),
])


@st.composite
def relation_pair(draw):
    a, b, c = draw(small_alpha), draw(small_alpha), draw(small_alpha)
    space1 = [((x,), (y,)) for x in a.elements for y in b.elements]
    space2 = [((x,), (y,)) for x in b.elements for y in c.elements]
    r = rel(obj(a), obj(b), draw(st.sets(st.sampled_from(space1))))
    s = rel(obj(b), obj(c), draw(st.sets(st.sampled_from(space2))))
    return r, s


@given(relation_pair())
def test_lift_functoriality(rs):
    r, s = rs
    composed = behavior_upto(lift_transducer(compose(r, s)), 4)
    pieces = sample_compose(
        behavior_upto(lift_transducer(r), 4), behavior_upto(lift_transducer(s), 4)
    )
    assert composed.pairs == pieces.pairs


@given(relation_pair())
def test_lift_faithfulness(rs):
    r, s = rs
    if r.dom.signature() != s.dom.signature() or r.cod.signature() != s.cod.signature():
        return
    b_r = behavior_upto(lift_transducer(r), 1)
    b_s = behavior_upto(lift_transducer(s), 1)
    if b_r.pairs == b_s.pairs:
        assert rel_equals(r, s)


def test_sample_validates_uniformity():
    with pytest.raises(Exception):
        UniformRelationSample(A, A, 2, frozenset({(("a",), ())}))


def test_sample_validates_symbols():
    with pytest.raises(MachineError, match="symbol 'zz' not in alphabet 'A'"):
        UniformRelationSample(A, A, 1, frozenset({(("zz",), ("a",))}))
    with pytest.raises(MachineError, match="symbol 5 not in alphabet 'A'"):
        UniformRelationSample(A, A, 1, frozenset({(("a",), (5,))}))
    with pytest.raises(MachineError):
        UniformRelationSample(A, A, 1, frozenset({(("zz",), (5,))}))
    assert UniformRelationSample(A, A, 1, frozenset({(("a",), ("a",)), ((), ())})).max_len == 1
