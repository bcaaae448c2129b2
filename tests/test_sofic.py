import itertools
import random

import pytest

from conftest import SEED
from genrand import random_presentation
from helpers import image, presentations_equiv, rooted_iso, triples
from seed_algorithms import as_nfa, compose_z, presentation_of_ztransducer, product_z
from relmach import sofic
from relmach.automata import nfa_equiv, prune_language
from relmach.relcore import Alphabet, MachineError, TypeMismatch
from relmach.simulation import check_inf
from relmach.sofic import (
    backward_prune,
    canonical_form,
    determinize_presentation,
    factor_language,
    factors_upto,
    forward_prune,
    is_language_pruned,
    is_right_resolving,
    minimize_presentation,
    periodic_membership,
    presentation,
    prune,
    ztransducer,
)

Ab = Alphabet("A", ("a", "b"))
Aa = Alphabet("A", ("a",))


def golden_mean():
    Q = Alphabet("Q", ("0", "1"))
    return presentation(Ab, Q, {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")})


def full_shift():
    Q = Alphabet("Q", ("0",))
    return presentation(Ab, Q, {("0", "a", "0"), ("0", "b", "0")})


def test_prune_single_edge_empties():
    Q = Alphabet("Q", ("p", "q"))
    p = presentation(Aa, Q, {("p", "a", "q")})
    assert prune(p).is_empty()


def test_prune_self_loop_is_fixed():
    Q = Alphabet("Q", ("q",))
    p = presentation(Aa, Q, {("q", "a", "q")})
    assert prune(p) == p


def test_prune_chain_into_loop():
    Q = Alphabet("Q", ("p", "q"))
    p = presentation(Aa, Q, {("p", "a", "q"), ("q", "a", "q")})
    assert set(forward_prune(p).states.elements) == {"p", "q"}
    assert set(backward_prune(p).states.elements) == {"q"}
    assert set(prune(p).states.elements) == {"q"}


def test_double_pruning_and_idempotence_random():
    rng = random.Random(SEED + 41)
    for _ in range(80):
        p = random_presentation(rng)
        fb = forward_prune(backward_prune(p))
        bf = backward_prune(forward_prune(p))
        pr = prune(p)
        assert fb.states.elements == bf.states.elements == pr.states.elements
        for op in (forward_prune, backward_prune, prune):
            once = op(p)
            assert op(once) == once
            assert set(once.states.elements) <= set(p.states.elements)


def test_state_pruning_matches_language_pruning():
    rng = random.Random(SEED + 42)
    for _ in range(40):
        p = random_presentation(rng)
        assert nfa_equiv(factor_language(p), prune_language(as_nfa(p)))


def test_determinize_golden_mean():
    det, cert = determinize_presentation(golden_mean())
    assert set(det.states.elements) == {"{0,1}", "{0}", "{1}"}
    assert det.root == "{0,1}"
    assert triples(det) == frozenset({
        ("{0,1}", "a", "{0}"), ("{0,1}", "b", "{1}"),
        ("{0}", "a", "{0}"), ("{0}", "b", "{1}"),
        ("{1}", "a", "{0}"),
    })
    assert is_right_resolving(det)
    assert check_inf(golden_mean(), det, cert).ok


def test_determinize_full_shift():
    det, _ = determinize_presentation(full_shift())
    assert det.states.elements == ("{0}",)
    assert len(det.trans) == 2


def test_determinize_two_disjoint_loops():
    Q = Alphabet("Q", ("p", "q"))
    p = presentation(Ab, Q, {("p", "a", "p"), ("q", "b", "q")})
    det, _ = determinize_presentation(p)
    assert det.root == "{p,q}"
    assert ("{p,q}", "a", "{p}") in triples(det)
    assert ("{p,q}", "b", "{q}") in triples(det)


def test_determinize_rejects_empty_and_unpruned(monkeypatch):
    empty = presentation(Aa, Alphabet("Q", ()), set())
    with pytest.raises(MachineError):
        determinize_presentation(empty)
    Q = Alphabet("Q", ("p", "q"))
    unpruned = presentation(Aa, Q, {("p", "a", "q")})
    with pytest.raises(MachineError, match="determinization requires a pruned presentation"):
        determinize_presentation(unpruned)
    # q ends every word but starts none, so only the languages tell that
    # pruning would lose no word
    checked = []
    monkeypatch.setattr(sofic, "nfa_equiv", lambda *ns: checked.append(ns) or nfa_equiv(*ns))
    det, _ = determinize_presentation(presentation(Aa, Q, {("p", "a", "p"), ("p", "a", "q")}))
    assert triples(det) == {("{p,q}", "a", "{p,q}")} and len(checked) == 1


def test_pruned_presentations_need_no_language_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("a pruned presentation was checked by its language")

    monkeypatch.setattr(sofic, "nfa_equiv", refuse)
    rng = random.Random(SEED + 47)
    for _ in range(30):
        p = prune(random_presentation(rng))
        if not p.is_empty():
            determinize_presentation(p)


def test_minimize_golden_mean():
    det, _ = determinize_presentation(golden_mean())
    minp, cert = minimize_presentation(det)
    assert len(minp.states) == 2
    assert minp.root == minp.states.elements[0]  # class of the old root
    # the {0} and {0,1} subsets share a follow language
    assert image(cert.s, ("{0}",)) == image(cert.s, ("{0,1}",))
    assert check_inf(minp, det, cert).ok


def test_minimize_validates_preconditions():
    Q = Alphabet("Q", ("p", "q"))
    nondet = presentation(Aa, Q, {("p", "a", "p"), ("p", "a", "q"), ("q", "a", "p")})
    with pytest.raises(MachineError):
        minimize_presentation(nondet)


def test_canonical_form_examples():
    assert canonical_form(presentation(Aa, Alphabet("Q", ("p", "q")),
                                       {("p", "a", "q")})).is_empty()
    c = canonical_form(full_shift())
    assert len(c.states) == 1 and c.root is not None and len(c.trans) == 2
    gm = canonical_form(golden_mean())
    assert len(gm.states) == 2


def test_golden_mean_two_presentations_isomorphic():
    gm1 = canonical_form(golden_mean())
    Q = Alphabet("Q", ("0", "1", "2"))
    bigger = presentation(Ab, Q, {
        ("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0"),
        ("0", "a", "2"), ("2", "a", "0"), ("2", "a", "2"), ("2", "b", "1"),
    })
    gm2 = canonical_form(bigger)
    assert rooted_iso(gm1, gm2) is not None
    assert presentations_equiv(golden_mean(), bigger)


def test_canonical_form_idempotent_up_to_iso():
    rng = random.Random(SEED + 43)
    for _ in range(40):
        p = random_presentation(rng)
        c = canonical_form(p)
        again = canonical_form(c)
        if c.is_empty():
            assert again.is_empty()
        else:
            assert rooted_iso(c, again) is not None


def test_presentations_equiv_basics():
    assert presentations_equiv(golden_mean(), golden_mean())
    assert not presentations_equiv(golden_mean(), full_shift())
    with pytest.raises(TypeMismatch):
        presentations_equiv(golden_mean(), presentation(Aa, Alphabet("Q", ()), set()))


def test_even_shift_two_presentations():
    Q1 = Alphabet("Q", ("0", "1"))
    even1 = presentation(Ab, Q1, {("0", "a", "0"), ("0", "b", "1"), ("1", "b", "0")})
    Q2 = Alphabet("P", ("x", "y", "z"))
    even2 = presentation(Ab, Q2, {
        ("x", "a", "x"), ("x", "b", "y"), ("y", "b", "x"),
        ("x", "a", "z"), ("z", "a", "x"), ("z", "b", "y"),
    })
    assert presentations_equiv(even1, even2)


def test_factor_language_golden_mean():
    got = factors_upto(golden_mean(), 3)
    bb_free = {
        w
        for k in range(4)
        for w in itertools.product("ab", repeat=k)
        if "bb" not in "".join(w)
    }
    assert got == bb_free


def test_factor_language_edge_cases():
    empty = presentation(Aa, Alphabet("Q", ("p", "q")), {("p", "a", "q")})
    assert factors_upto(empty, 2) == set()
    assert factors_upto(full_shift(), 2) == {
        w for k in range(3) for w in itertools.product("ab", repeat=k)
    }


def test_subshift_equiv_iff_factor_language_equiv():
    rng = random.Random(SEED + 44)
    for _ in range(50):
        p1 = random_presentation(rng)
        p2 = random_presentation(rng, alphabet=p1.alphabet)
        want = nfa_equiv(factor_language(prune(p1)), factor_language(prune(p2)))
        assert presentations_equiv(p1, p2) == want


def test_periodic_membership():
    gm = golden_mean()
    assert periodic_membership(gm, ("a",))
    assert not periodic_membership(gm, ("b",))
    assert periodic_membership(gm, ("a", "b"))
    assert periodic_membership(gm, ("b", "a"))
    with pytest.raises(MachineError):
        periodic_membership(gm, ())


def test_factors_are_factor_closed_and_pruned_sample():
    rng = random.Random(SEED + 45)
    for _ in range(25):
        p = prune(random_presentation(rng))
        words = factors_upto(p, 4)
        for w in words:
            for i in range(len(w)):
                for j in range(i, len(w) + 1):
                    assert w[i:j] in words
        # every shorter member extends on both sides within the horizon
        for w in (w for w in words if len(w) <= 2):
            if p.states.elements:
                assert any(
                    u[1:-1] == w and len(u) == len(w) + 2 for u in words
                ), f"{w} does not extend inside the sample"


def identity_z(alpha):
    return ztransducer(alpha, alpha, Alphabet("QI", ("i",)),
                       {(x, "i", x, "i") for x in alpha.elements})


def swap_z():
    return ztransducer(Ab, Ab, Alphabet("QS", ("s",)),
                       {("a", "s", "b", "s"), ("b", "s", "a", "s")})


def ztransducers_equiv(z1, z2):
    return presentations_equiv(presentation_of_ztransducer(z1), presentation_of_ztransducer(z2))


def test_ztransducer_equivalences():
    ident = identity_z(Ab)
    assert ztransducers_equiv(compose_z(swap_z(), swap_z()), ident)
    assert ztransducers_equiv(compose_z(ident, swap_z()), swap_z())
    assert not ztransducers_equiv(swap_z(), ident)


def test_ztransducer_with_empty_states_is_empty_subshift():
    dead = ztransducer(Ab, Ab, Alphabet("Q", ()), set())
    prod = product_z(swap_z(), dead)
    assert canonical_form(presentation_of_ztransducer(prod)).is_empty()


def test_presentation_of_ztransducer_alphabet():
    p = presentation_of_ztransducer(swap_z())
    assert p.alphabet.elements == ("(a,a)", "(a,b)", "(b,a)", "(b,b)")
    assert ("s", "(a,b)", "s") in triples(p)


def test_is_language_pruned_on_det_output():
    det, _ = determinize_presentation(golden_mean())
    assert is_language_pruned(det)


def test_inf_certificates_on_random_presentations():
    rng = random.Random(SEED + 46)
    for _ in range(30):
        p = prune(random_presentation(rng))
        if p.is_empty():
            continue
        det, cert = determinize_presentation(p)
        assert check_inf(p, det, cert).ok
        minp, cert2 = minimize_presentation(det)
        assert check_inf(minp, det, cert2).ok
