"""Acceptance suite: one test per criterion, exact checks, fixed seeds.

Each test prints a single PASS line when its criterion holds (pytest
reports the failure otherwise); run with ``pytest -s tests/test_acceptance.py``
to see the lines.  All comparisons are exact (discrete data, tolerance
zero).  Set RELMACH_TEST_SEED to rerun the corpora under a different seed.
"""

import itertools
import json
import random
import time

from conftest import SEED
from genrand import (
    alter_one_box,
    preserving_mutation,
    random_diagram,
    random_nfa,
    random_presentation,
    random_rel,
    random_transducer,
)
from helpers import diagrams_equiv, image, lift_transducer, load_file, presentations_equiv, rel, \
    rooted_iso, slide, triples
from relmach import io
from relmach.automata import determinize, iso_check, minimize, nfa, nfa_equiv
from relmach.cli import main as cli_main
from relmach.diagram import Box, denotation_upto, interpret_upto, loop_term
from relmach.relcore import Alphabet, obj
from relmach.simulation import (
    TWO_SIDED,
    SimCertificate,
    certificate_for_determinization,
    certificate_for_minimization,
    check_fin,
    check_inf,
)
from relmach.sofic import (
    backward_prune,
    canonical_form,
    determinize_presentation,
    factor_language,
    forward_prune,
    minimize_presentation,
    presentation,
    prune,
)
from relmach.transducer import behavior_upto
from seed_algorithms import behavior_via_shift_upto, nfa_to_transducer

Ab = Alphabet("A", ("a", "b"))
Aa = Alphabet("A", ("a",))


def done(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_1_behavior_agreement():
    rng = random.Random(SEED + 101)
    start = time.perf_counter()
    for _ in range(200):
        t = random_transducer(rng, max_states=3, max_alpha=2)
        runs = behavior_upto(t, 5).pairs
        assert runs == denotation_upto(loop_term(t), 5).pairs == behavior_via_shift_upto(t, 5).pairs
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"run/shift agreement took {elapsed:.1f}s (target < 10s)"
    done(1, f"run and shift behaviors agree on 200 machines ({elapsed:.2f}s)")


def test_criterion_2_determinize_minimize():
    rng = random.Random(SEED + 102)
    for _ in range(200):
        n = random_nfa(rng, max_states=4, max_alpha=2)
        d, _ = determinize(n)
        assert nfa_equiv(n, nfa(d.alphabet, d.states, triples(d), d.initial, d.final))
        m, _ = minimize(d)
        assert nfa_equiv(n, nfa(m.alphabet, m.states, triples(m), m.initial, m.final))
        m2, _ = minimize(m)
        assert iso_check(m, m2) is not None
    aplus = nfa(Aa, Alphabet("Q", ("0", "1")),
                {("0", "a", "0"), ("0", "a", "1")}, {"0"}, {"1"})
    m, _ = minimize(determinize(aplus)[0])
    assert len(m.states) == 2
    done(2, "determinization/minimization preserve languages; a+ has 2 states")


def test_criterion_3_certificates_and_soundness():
    rng = random.Random(SEED + 103)
    # every generated certificate passes
    for _ in range(100):
        n = random_nfa(rng, max_states=4, max_alpha=2)
        dfa, cert = certificate_for_determinization(n)
        assert check_fin(nfa_to_transducer(n), nfa_to_transducer(dfa), cert).ok
        mdfa, cert2 = certificate_for_minimization(dfa)
        assert check_fin(nfa_to_transducer(mdfa), nfa_to_transducer(dfa), cert2).ok
    # two-sided passes never separate behaviors
    passes = 0
    for _ in range(500):
        inp = Alphabet("A", ("a", "b")[: rng.randint(1, 2)])
        out = Alphabet("B", ("x", "y")[: rng.randint(1, 2)])
        m1 = random_transducer(rng, input=inp, output=out)
        m2 = random_transducer(rng, input=inp, output=out)
        s = random_rel(rng, obj(m2.states), obj(m1.states), density=rng.uniform(0.05, 0.9))
        if check_fin(m1, m2, SimCertificate(s, TWO_SIDED)).ok:
            passes += 1
            assert behavior_upto(m1, 5).pairs == behavior_upto(m2, 5).pairs
    done(3, f"all canonical certificates pass; {passes} two-sided passes all sound")


def test_criterion_4_diagram_completeness():
    rng = random.Random(SEED + 104)
    wire = Alphabet("IO", ("a", "b"))
    for _ in range(100):
        d = random_diagram(rng, obj(wire), obj(wire), nodes=6, feedbacks=2)
        m = preserving_mutation(rng, d)
        eq, _ = diagrams_equiv(d, m)
        assert eq, "language-preserving mutation changed the decision"
    differing = 0
    for _ in range(100):
        d = random_diagram(rng, obj(wire), obj(wire), nodes=5, feedbacks=2)
        altered = alter_one_box(rng, d)
        if altered is None:
            continue
        eq, _ = diagrams_equiv(d, altered)
        if interpret_upto(d, 6).pairs != interpret_upto(altered, 6).pairs:
            differing += 1
            assert not eq, "equivalence claimed despite differing samples"
    assert differing >= 30  # the corpus genuinely exercises the negative side
    done(4, f"mutation pairs all equal; {differing} altered pairs all separated")


def test_criterion_5_sliding():
    rng = random.Random(SEED + 105)
    io_wire = Alphabet("IO", ("a", "b"))
    for _ in range(50):
        C = Alphabet("C", tuple(f"c{i}" for i in range(rng.randint(1, 2))))
        D = Alphabet("D", tuple(f"d{i}" for i in range(rng.randint(1, 2))))
        s = random_rel(rng, obj(D), obj(C), density=rng.uniform(0.2, 0.8))
        body = Box(random_rel(rng, obj(io_wire, C), obj(io_wire, D), density=0.4))
        i = frozenset(x for x in D.elements if rng.random() < 0.7)
        f = frozenset(x for x in C.elements if rng.random() < 0.7)
        one, other = slide(s, body, i, f, side=rng.choice(("left", "right")))
        eq, _ = diagrams_equiv(one, other)
        assert eq, "sliding produced inequivalent sides"
    done(5, "both sliding sides equivalent on 50 instances")


def test_criterion_6_pruning_algebra():
    rng = random.Random(SEED + 106)
    for _ in range(200):
        p = random_presentation(rng, max_states=5, max_alpha=2)
        fb = forward_prune(backward_prune(p))
        bf = backward_prune(forward_prune(p))
        pr = prune(p)
        assert pr.states.elements == fb.states.elements == bf.states.elements
        for op in (forward_prune, backward_prune, prune):
            once = op(p)
            assert op(once) == once
    done(6, "pruning operators commute and are idempotent on 200 machines")


def _follow_words(p, state, horizon):
    """Oracle: the set of words of length <= horizon readable from a state."""
    delta = {(q, a): q2 for q, a, q2 in triples(p)}
    out = set()
    for k in range(horizon + 1):
        for w in itertools.product(p.alphabet.elements, repeat=k):
            q = state
            for a in w:
                q = delta.get((q, a))
                if q is None:
                    break
            else:
                out.add(w)
    return frozenset(out)


def test_criterion_7_golden_mean_canonical():
    gm = presentation(Ab, Alphabet("Q", ("0", "1")),
                      {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")})
    det, _ = determinize_presentation(gm)
    assert set(det.states.elements) == {"{0,1}", "{0}", "{1}"}
    # follow-language oracle fixes the expected state merge
    oracle = {q: _follow_words(det, q, 6) for q in det.states.elements}
    assert oracle["{0}"] == oracle["{0,1}"] != oracle["{1}"]
    minp, _ = minimize_presentation(det)
    assert len(minp.states) == 2
    root_class = minp.root
    assert minp.root is not None
    # the root is the class that contains the old root {0,1}
    _, cert = minimize_presentation(det)
    assert image(cert.s, ("{0,1}",)) == {(root_class,)}
    bigger = presentation(Ab, Alphabet("Q", ("0", "1", "2")), {
        ("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0"),
        ("0", "a", "2"), ("2", "a", "0"), ("2", "a", "2"), ("2", "b", "1"),
    })
    assert rooted_iso(canonical_form(gm), canonical_form(bigger)) is not None
    done(7, "golden mean canonicalizes to the 2-state rooted machine")


def test_criterion_8_subshift_equiv_iff_factor_equiv():
    rng = random.Random(SEED + 108)
    agreements = 0
    for _ in range(100):
        p1 = random_presentation(rng, max_states=5, max_alpha=2)
        p2 = random_presentation(rng, max_states=5, max_alpha=2, alphabet=p1.alphabet)
        lhs = presentations_equiv(p1, p2)
        rhs = nfa_equiv(factor_language(prune(p1)), factor_language(prune(p2)))
        assert lhs == rhs
        agreements += lhs
    done(8, f"subshift equality tracks pruned factor languages ({agreements} equal pairs)")


def test_criterion_9_infinite_certificates():
    fixtures = [
        presentation(Ab, Alphabet("Q", ("0", "1")),
                     {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")}),
        presentation(Ab, Alphabet("Q", ("0",)), {("0", "a", "0"), ("0", "b", "0")}),
        presentation(Ab, Alphabet("Q", ("0", "1")),
                     {("0", "a", "0"), ("0", "b", "1"), ("1", "b", "0")}),
    ]
    rng = random.Random(SEED + 109)
    fixtures += [prune(random_presentation(rng)) for _ in range(30)]
    for p in fixtures:
        p = prune(p)
        if p.is_empty():
            continue
        det, cert = determinize_presentation(p)
        assert check_inf(p, det, cert).ok
        minp, cert2 = minimize_presentation(det)
        assert check_inf(minp, det, cert2).ok
    # soundness: a passing two-sided check forces equal subshifts; the pair
    # corpus mixes canonically certified pairs with random relations
    passes = 0
    for k in range(200):
        p1 = prune(random_presentation(rng, max_states=4))
        if k % 3 == 0 and not p1.is_empty():
            p2, cert = determinize_presentation(p1)
        else:
            p2 = prune(random_presentation(rng, max_states=4, alphabet=p1.alphabet))
            s = random_rel(rng, obj(p2.states), obj(p1.states),
                           density=rng.uniform(0.1, 0.9))
            cert = SimCertificate(s, TWO_SIDED)
        if check_inf(p1, p2, cert).ok:
            passes += 1
            assert nfa_equiv(factor_language(p1), factor_language(p2))
    assert passes >= 50
    done(9, f"infinite certificates pass; {passes} two-sided passes all sound")


def test_criterion_10_cli_round_trip_and_exit_codes(tmp_path, capsys):
    from test_cli import fixture_corpus

    corpus = fixture_corpus()
    assert len(corpus) >= 30
    for i, x in enumerate(corpus):
        path = tmp_path / f"fx_{i}.json"
        io.save_file(path, x)
        assert load_file(path) == x
        assert io.dumps(load_file(path)) == path.read_text()
    swap = tmp_path / "swap.json"
    io.save_file(swap, lift_transducer(
        rel(obj(Ab), obj(Ab), {(("a",), ("b",)), (("b",), ("a",))})))
    assert cli_main(["behavior", str(swap), "--max-len", "3", "--via", "runs"]) == 0
    runs_out = capsys.readouterr().out
    assert cli_main(["behavior", str(swap), "--max-len", "3", "--via", "shift"]) == 0
    shift_out = capsys.readouterr().out
    assert runs_out == shift_out
    gm = tmp_path / "gm.json"
    io.save_file(gm, presentation(Ab, Alphabet("Q", ("0", "1")),
                                  {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")}))
    full = tmp_path / "full.json"
    io.save_file(full, presentation(Ab, Alphabet("Q", ("0",)),
                                    {("0", "a", "0"), ("0", "b", "0")}))
    assert cli_main(["equiv", str(gm), str(gm)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "equal"
    assert cli_main(["equiv", str(gm), str(full)]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "not-equal"
    assert cli_main(["equiv", str(gm), str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    done(10, "serialization round trips; dual evaluation byte-equal; exit codes hold")
