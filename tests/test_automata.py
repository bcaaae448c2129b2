import itertools
import random

import pytest

from conftest import SEED
from genrand import random_nfa
from helpers import compose, dfa, factor_closure, image, is_factor_closed, is_pruned_lang, \
    minimal_dfa, product, rel_equals, trans_rel, trim, triples
from relmach.automata import (
    accepts,
    determinize,
    empty_dfa,
    iso_check,
    language_upto,
    minimize,
    nfa,
    nfa_equiv,
    prune_language,
)
from relmach.relcore import Alphabet, MachineError, TypeMismatch, identity, obj
from relmach.transducer import behavior_upto
from seed_algorithms import nfa_to_transducer, transducer_to_nfa

Aa = Alphabet("A", ("a",))
Ab = Alphabet("A", ("a", "b"))


def aplus_nfa():
    Q = Alphabet("Q", ("0", "1"))
    return nfa(Aa, Q, {("0", "a", "0"), ("0", "a", "1")}, {"0"}, {"1"})


def astar_nfa():
    Q = Alphabet("Q", ("0",))
    return nfa(Aa, Q, {("0", "a", "0")}, {"0"}, {"0"})


def brute_language(n, k):
    return {
        w
        for length in range(k + 1)
        for w in itertools.product(n.alphabet.elements, repeat=length)
        if accepts(n, w)
    }


def test_determinize_aplus():
    d, contains = determinize(aplus_nfa())
    assert set(d.states.elements) == {"{0}", "{0,1}"}
    assert triples(d) == {("{0}", "a", "{0,1}"), ("{0,1}", "a", "{0,1}")}
    assert d.initial == frozenset({"{0}"})
    assert d.final == frozenset({"{0,1}"})
    assert set(contains.pairs) == {(("{0}",), ("0",)), (("{0,1}",), ("0",)), (("{0,1}",), ("1",))}


def test_determinize_already_deterministic():
    n = astar_nfa()
    d, _ = determinize(n)
    assert iso_check(d, dfa(n.alphabet, n.states, triples(n), n.initial, n.final)) is not None


def test_determinize_no_initial():
    Q = Alphabet("Q", ("0",))
    n = nfa(Aa, Q, {("0", "a", "0")}, set(), {"0"})
    d, _ = determinize(n)
    assert d.states.elements == ("{}",)
    assert d.final == frozenset()
    assert triples(d) == {("{}", "a", "{}")}


def test_determinize_certificate_equation():
    # lifted transitions against the membership relation, by enumeration
    n = aplus_nfa()
    d, contains = determinize(n)
    t1 = nfa_to_transducer(n)
    t2 = nfa_to_transducer(d)
    lhs = compose(product(identity(obj(n.alphabet)), contains),
                  trans_rel(t1.input, t1.output, t1.states, t1.trans))
    rhs = compose(trans_rel(t2.input, t2.output, t2.states, t2.trans), contains)
    assert rel_equals(lhs, rhs)


def test_minimize_chain_to_two_states():
    Q = Alphabet("Q", ("s", "t", "u"))
    d = dfa(Aa, Q, frozenset({("s", "a", "t"), ("t", "a", "u"), ("u", "a", "u")}),
            frozenset({"s"}), frozenset({"t", "u"}))
    m, lmap = minimize(d)
    assert len(m.states) == 2
    assert {x for x, _ in lmap.pairs} == {("s",), ("t",), ("u",)}
    # t and u share a follow language
    assert image(lmap, ("t",)) == image(lmap, ("u",))


def test_minimize_idempotent_on_minimal():
    m = minimal_dfa(aplus_nfa())
    m2, _ = minimize(m)
    assert iso_check(m, m2) is not None


def test_minimize_all_accepting_loop():
    Q = Alphabet("Q", ("0", "1"))
    d = dfa(Aa, Q, frozenset({("0", "a", "1"), ("1", "a", "0")}),
            frozenset({"0"}), frozenset({"0", "1"}))
    m, _ = minimize(d)
    assert len(m.states) == 1


def test_minimize_empty_language():
    Q = Alphabet("Q", ("0",))
    d = dfa(Aa, Q, frozenset({("0", "a", "0")}), frozenset({"0"}), frozenset())
    m, lmap = minimize(d)
    assert len(m.states) == 0
    assert lmap.pairs == frozenset()


def test_iso_self_and_cross():
    m = minimal_dfa(aplus_nfa())
    assert iso_check(m, m) == {q: q for q in m.states.elements}
    other = nfa(Aa, Alphabet("P", ("x", "y", "z")),
                {("x", "a", "y"), ("y", "a", "y"), ("x", "a", "z"), ("z", "a", "y")},
                {"x"}, {"y", "z"})
    assert iso_check(m, minimal_dfa(other)) is not None
    assert iso_check(m, minimal_dfa(astar_nfa())) is None


def test_iso_check_refuses_different_alphabets():
    """A letter that only one machine has, or the same letters in another
    order, is a type error, as for ``nfa_equiv``; it is never skipped or
    matched by name."""
    Q = Alphabet("Q", ("0",))
    loops = dfa(Aa, Q, frozenset({("0", "a", "0")}), frozenset({"0"}), frozenset({"0"}))
    with_b = dfa(Ab, Q, frozenset({("0", "a", "0"), ("0", "b", "0")}), frozenset({"0"}), frozenset({"0"}))
    ba = Alphabet("A", ("b", "a"))
    swapped = dfa(ba, Q, frozenset({("0", "a", "0"), ("0", "b", "0")}), frozenset({"0"}), frozenset({"0"}))
    for d1, d2 in ((loops, with_b), (with_b, loops), (with_b, swapped), (swapped, with_b)):
        with pytest.raises(TypeMismatch):
            iso_check(d1, d2)
        with pytest.raises(TypeMismatch):
            nfa_equiv(d1, d2)


def test_iso_check_refuses_a_map_that_is_not_one_to_one():
    """0 -a-> 1 -a-> 0 forces 0 and 1 onto x, both final and with an a-step to x."""
    d1 = dfa(Aa, Alphabet("Q", ("0", "1")), frozenset({("0", "a", "1"), ("1", "a", "0")}),
             frozenset({"0"}), frozenset({"0", "1"}))
    d2 = dfa(Aa, Alphabet("P", ("x", "y")), frozenset({("x", "a", "x"), ("y", "a", "x")}),
             frozenset({"x"}), frozenset({"x", "y"}))
    assert iso_check(d1, d2) is None
    assert iso_check(d2, d1) is None


def test_nfa_equiv_examples():
    n = aplus_nfa()
    d, _ = determinize(n)
    assert nfa_equiv(n, nfa(d.alphabet, d.states, triples(d), d.initial, d.final))
    assert not nfa_equiv(aplus_nfa(), astar_nfa())
    # two structurally different machines for (ab)*
    Q1 = Alphabet("Q", ("0", "1"))
    m1 = nfa(Ab, Q1, {("0", "a", "1"), ("1", "b", "0")}, {"0"}, {"0"})
    Q2 = Alphabet("P", ("u", "v", "w"))
    m2 = nfa(Ab, Q2, {("u", "a", "v"), ("v", "b", "w"), ("w", "a", "v")}, {"u"}, {"u", "w"})
    assert nfa_equiv(m1, m2)
    with pytest.raises(TypeMismatch):
        nfa_equiv(m1, astar_nfa())


def test_language_upto_and_accepts():
    n = aplus_nfa()
    assert language_upto(n, 3) == {("a",), ("a", "a"), ("a", "a", "a")}
    assert accepts(n, ("a", "a"))
    assert not accepts(n, ())


def test_accepts_rejects_letters_outside_the_alphabet():
    n = aplus_nfa()
    for word in (["z"], ("a", "z"), ("z", "a", "a")):
        with pytest.raises(MachineError, match="'z' not in alphabet"):
            accepts(n, word)
    # also where no run is left before the foreign letter is read
    empty = nfa(Aa, Alphabet("Q", ("0",)), set(), set(), set())
    with pytest.raises(MachineError):
        accepts(empty, ("a", "z"))
    assert accepts(n, iter(["a"]))


def test_factor_closure_of_ab():
    Q = Alphabet("Q", ("0", "1", "2"))
    n = nfa(Ab, Q, {("0", "a", "1"), ("1", "b", "2")}, {"0"}, {"2"})
    fc = factor_closure(n)
    assert language_upto(fc, 3) == {(), ("a",), ("b",), ("a", "b")}
    assert is_factor_closed(fc)
    assert not is_factor_closed(n)


def test_factor_closure_fixed_points():
    full = nfa(Ab, Alphabet("Q", ("0",)),
               {("0", "a", "0"), ("0", "b", "0")}, {"0"}, {"0"})
    assert nfa_equiv(factor_closure(full), full)
    empty = nfa(Ab, Alphabet("Q", ("0",)), set(), {"0"}, set())
    assert language_upto(factor_closure(empty), 2) == set()


def test_prune_language_examples():
    astar = astar_nfa()
    assert nfa_equiv(prune_language(astar), astar)
    Q = Alphabet("Q", ("0", "1", "2"))
    just_ab = nfa(Ab, Q, {("0", "a", "1"), ("1", "b", "2")}, {"0"}, {"2"})
    assert language_upto(prune_language(just_ab), 4) == set()
    full = nfa(Ab, Alphabet("Q", ("0",)), {("0", "a", "0"), ("0", "b", "0")}, {"0"}, {"0"})
    assert nfa_equiv(prune_language(full), full)
    assert is_pruned_lang(astar)
    assert not is_pruned_lang(just_ab)
    assert is_factor_closed(factor_closure(just_ab))
    assert not is_pruned_lang(factor_closure(just_ab))


def test_trim_keeps_path_states_only():
    Q = Alphabet("Q", ("0", "1", "dead"))
    n = nfa(Aa, Q, {("0", "a", "1"), ("1", "a", "dead")}, {"0"}, {"1"})
    t = trim(n)
    assert set(t.states.elements) == {"0", "1"}


def test_empty_dfa_is_minimal_of_empty():
    assert iso_check(minimal_dfa(nfa(Aa, Alphabet("Q", ("0",)), set(), {"0"}, set())),
                     empty_dfa(Aa)) is not None


def test_random_determinize_preserves_language():
    rng = random.Random(SEED + 21)
    for _ in range(60):
        n = random_nfa(rng)
        d, _ = determinize(n)
        assert language_upto(n, 6) == language_upto(d, 6)
        assert nfa_equiv(n, nfa(d.alphabet, d.states, triples(d), d.initial, d.final))


def test_random_minimize_never_grows_and_idempotent():
    rng = random.Random(SEED + 22)
    for _ in range(60):
        n = random_nfa(rng)
        d, _ = determinize(n)
        m, _ = minimize(d)
        assert len(m.states) <= len(d.states)
        m2, _ = minimize(m)
        assert iso_check(m, m2) is not None
        assert nfa_equiv(n, nfa(m.alphabet, m.states, triples(m), m.initial, m.final))


def test_union_with_self_has_isomorphic_minimal():
    rng = random.Random(SEED + 23)
    for _ in range(30):
        n = random_nfa(rng)
        # disjoint union with itself recognizes the same language
        renamed = {q: q + "_copy" for q in n.states.elements}
        states = Alphabet("Q", n.states.elements + tuple(renamed[q] for q in n.states.elements))
        doubled = nfa(
            n.alphabet, states,
            triples(n) | {(renamed[q], a, renamed[q2]) for q, a, q2 in triples(n)},
            set(n.initial) | {renamed[q] for q in n.initial},
            set(n.final) | {renamed[q] for q in n.final},
        )
        assert iso_check(minimal_dfa(n), minimal_dfa(doubled)) is not None


def test_fact_and_prun_idempotent_random():
    rng = random.Random(SEED + 24)
    for _ in range(25):
        n = random_nfa(rng)
        fc = factor_closure(n)
        assert nfa_equiv(fc, factor_closure(fc))
        pr = prune_language(n)
        assert nfa_equiv(pr, prune_language(pr))
        both = factor_closure(prune_language(n))
        assert is_factor_closed(both)
        assert is_pruned_lang(both)


def test_random_language_against_oracle():
    rng = random.Random(SEED + 25)
    for _ in range(20):
        n = random_nfa(rng)
        assert language_upto(n, 4) == brute_language(n, 4)


def test_transducer_nfa_round_trip():
    n = aplus_nfa()
    assert transducer_to_nfa(nfa_to_transducer(n)) == n
    assert behavior_upto(nfa_to_transducer(n), 2).pairs == {
        (("a",), ("*",)), (("a", "a"), ("*", "*")),
    }
