import random

import pytest
from hypothesis import given, strategies as st

import seed_algorithms as seed
from conftest import SEED
from genrand import random_alphabet, random_nfa, random_rel, random_transducer
from helpers import dfa, rel, triples, verify_equiv_certificate
from relmach import io
from relmach.automata import determinize, nfa, nfa_equiv
from relmach.relcore import Alphabet, MachineError, TypeMismatch, identity, obj
from relmach.simulation import (
    BACKWARD,
    FORWARD,
    TWO_SIDED,
    SimCertificate,
    certificate_for_determinization,
    certificate_for_minimization,
    check_fin,
    equiv_chain,
)
from relmach.transducer import behavior_upto, transducer
from seed_algorithms import nfa_to_transducer

Aa = Alphabet("A", ("a",))
Ab = Alphabet("A", ("a", "b"))


def verify_report(m1, m2, cert, report) -> bool:
    """Re-check that a failing report's witness indeed violates the named
    condition (passing reports verify trivially)."""
    if report.ok:
        return check_fin(m1, m2, cert).ok
    again = check_fin(m1, m2, cert)
    return (not again.ok and again.failed_condition == report.failed_condition
            and again.witness == report.witness)


def ident_cert(t, mode=TWO_SIDED):
    return SimCertificate(identity(obj(t.states)), mode)


def test_reflexive_pass():
    rng = random.Random(SEED + 31)
    for _ in range(20):
        t = random_transducer(rng)
        for mode in (TWO_SIDED, BACKWARD, FORWARD):
            assert check_fin(t, t, ident_cert(t, mode)).ok


def test_determinization_certificate_passes():
    Q = Alphabet("Q", ("0", "1"))
    n = nfa(Aa, Q, {("0", "a", "0"), ("0", "a", "1")}, {"0"}, {"1"})
    dfa, cert = certificate_for_determinization(n)
    assert check_fin(nfa_to_transducer(n), nfa_to_transducer(dfa), cert).ok


def test_minimization_certificate_passes():
    Q = Alphabet("Q", ("s", "t", "u"))
    d = dfa(Aa, Q, frozenset({("s", "a", "t"), ("t", "a", "u"), ("u", "a", "u")}),
            frozenset({"s"}), frozenset({"t", "u"}))
    mdfa, cert = certificate_for_minimization(d)
    assert len(mdfa.states) == 2
    # surjective onto the two classes
    assert {y for _, y in cert.s.pairs} == {(q,) for q in mdfa.states.elements}
    assert check_fin(nfa_to_transducer(mdfa), nfa_to_transducer(d), cert).ok


def test_equivalence_closure_is_no_two_sided_certificate():
    # {0} -a-> {1} -a-> {0}, both final, and the loop {p} accept the same
    # words; the closure of the union-find walk relates {p} to {0} and {1},
    # but the initial condition asks s(J2) to be I1 exactly
    d1 = dfa(Aa, Alphabet("Q", ("{0}", "{1}")), frozenset({("{0}", "a", "{1}"), ("{1}", "a", "{0}")}),
             frozenset({"{0}"}), frozenset({"{0}", "{1}"}))
    d2 = dfa(Aa, Alphabet("P", ("{p}",)), frozenset({("{p}", "a", "{p}")}),
             frozenset({"{p}"}), frozenset({"{p}"}))
    assert nfa_equiv(d1, d2)
    closure = rel(obj(d2.states), obj(d1.states), {(("{p}",), ("{0}",)), (("{p}",), ("{1}",))})
    report = check_fin(d1, d2, SimCertificate(closure, TWO_SIDED))
    assert (report.failed_condition, report.witness) == ("initial", ((), ("{1}",)))
    # a functional link passes: the follow relation onto the minimal DFA
    minimal, follow = certificate_for_minimization(d1)
    assert len(minimal.states) == 1
    assert check_fin(minimal, d1, follow).ok


def test_minimization_certificate_idempotent_case():
    Q = Alphabet("Q", ("0", "1"))
    d = dfa(Aa, Q, frozenset({("0", "a", "1"), ("1", "a", "1")}),
            frozenset({"0"}), frozenset({"1"}))
    mdfa, cert = certificate_for_minimization(d)
    assert len(mdfa.states) == 2
    assert check_fin(nfa_to_transducer(mdfa), nfa_to_transducer(d), cert).ok


def test_minimization_requires_accessible():
    Q = Alphabet("Q", ("0", "stranded"))
    d = dfa(Aa, Q, frozenset({("0", "a", "0")}), frozenset({"0"}), frozenset({"0"}))
    with pytest.raises(MachineError):
        certificate_for_minimization(d)


def test_empty_relation_fails_initial_condition():
    t = transducer(Aa, Aa, Alphabet("Q", ("q",)), {("a", "q", "a", "q")}, {"q"}, {"q"})
    cert = SimCertificate(rel(obj(t.states), obj(t.states), set()), TWO_SIDED)
    report = check_fin(t, t, cert)
    assert not report.ok
    assert report.failed_condition == "initial"
    assert report.witness == ((), ("q",))
    assert verify_report(t, t, cert, report)
    # backward also demands the initial condition; forward trips on "final"
    assert check_fin(t, t, SimCertificate(cert.s, BACKWARD)).failed_condition == "initial"
    assert check_fin(t, t, SimCertificate(cert.s, FORWARD)).failed_condition == "final"


def test_type_errors():
    t1 = random_transducer(random.Random(SEED), input=Aa, output=Aa)
    t2 = random_transducer(random.Random(SEED + 1), input=Ab, output=Ab)
    with pytest.raises(TypeMismatch):
        check_fin(t1, t2, ident_cert(t1))
    bad = SimCertificate(identity(obj(Alphabet("Z", ("z1", "z2", "z3", "z4")))))
    with pytest.raises(TypeMismatch):
        check_fin(t1, t1, bad)


def _random_pair_with_cert(rng):
    """A machine pair sharing alphabets plus a random state relation."""
    inp = random_alphabet(rng, "A")
    out = random_alphabet(rng, "B")
    m1 = random_transducer(rng, input=inp, output=out)
    m2 = random_transducer(rng, input=inp, output=out)
    s = random_rel(rng, obj(m2.states), obj(m1.states), density=rng.uniform(0.1, 0.9))
    return m1, m2, s


def test_soundness_of_all_modes_on_random_triples():
    """Certificate passes imply the corresponding behavior relationships."""
    rng = random.Random(SEED + 32)
    passes = 0
    for _ in range(300):
        m1, m2, s = _random_pair_with_cert(rng)
        b1 = behavior_upto(m1, 5).pairs
        b2 = behavior_upto(m2, 5).pairs
        if check_fin(m1, m2, SimCertificate(s, TWO_SIDED)).ok:
            passes += 1
            assert b1 == b2
        if check_fin(m1, m2, SimCertificate(s, BACKWARD)).ok:
            passes += 1
            assert b1 <= b2
        if check_fin(m1, m2, SimCertificate(s, FORWARD)).ok:
            passes += 1
            assert b1 >= b2
    assert passes > 0  # the suite exercises non-vacuous passes


def test_failing_reports_are_self_validating():
    rng = random.Random(SEED + 33)
    checked = 0
    for _ in range(100):
        m1, m2, s = _random_pair_with_cert(rng)
        cert = SimCertificate(s, rng.choice((TWO_SIDED, BACKWARD, FORWARD)))
        report = check_fin(m1, m2, cert)
        if not report.ok:
            checked += 1
            assert verify_report(m1, m2, cert, report)
            lhs, rhs = report.witness
            assert isinstance(lhs, tuple) and isinstance(rhs, tuple)
    assert checked > 0


def test_generated_certificates_always_pass():
    rng = random.Random(SEED + 34)
    for _ in range(60):
        n = nfa_from_random(rng)
        dfa, cert = certificate_for_determinization(n)
        assert check_fin(nfa_to_transducer(n), nfa_to_transducer(dfa), cert).ok
        mdfa, cert2 = certificate_for_minimization(dfa)
        assert check_fin(nfa_to_transducer(mdfa), nfa_to_transducer(dfa), cert2).ok


def nfa_from_random(rng):
    from genrand import random_nfa

    return random_nfa(rng)


def renamed(n):
    """A copy of ``n`` with every state renamed."""
    name = {q: q + "_copy" for q in n.states.elements}
    return nfa(n.alphabet, Alphabet("P", tuple(name.values())),
               {(name[q], a, name[q2]) for q, a, q2 in triples(n)},
               {name[q] for q in n.initial}, {name[q] for q in n.final})


@given(st.integers(0, 2**32 - 1).map(random.Random))
def test_equiv_chain_links_check_and_keep_their_bytes(rng):
    """Against its subset DFA and against a renamed copy, an NFA's chain
    holds links that each pass ``check_fin``, and it writes the bytes of the
    two-type chain it replaced."""
    n = random_nfa(rng)
    for other in (determinize(n)[0], renamed(n)):
        c = equiv_chain(n, other)
        assert c.left[0].m1 is n and c.right[0].m1 is other
        assert verify_equiv_certificate(c)
        assert io.dumps(c) == io.dumps(seed.chain_payload(seed.equiv_chain(n, other)))
