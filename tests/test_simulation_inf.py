"""Bi-infinite certificate checks against presentation machines."""

import random

from conftest import SEED
from genrand import random_presentation
from helpers import rel
from relmach.relcore import Alphabet, identity, obj
from relmach.simulation import BACKWARD, FORWARD, TWO_SIDED, SimCertificate, check_inf
from relmach.sofic import factor_language, presentation, prune
from relmach.automata import nfa_equiv

Ab = Alphabet("A", ("a", "b"))


def golden_mean():
    return presentation(Ab, Alphabet("Q", ("0", "1")),
                        {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")})


def test_identity_certificate_passes_all_modes():
    p = golden_mean()
    for mode in (TWO_SIDED, BACKWARD, FORWARD):
        cert = SimCertificate(identity(obj(p.states)), mode)
        assert check_inf(p, p, cert).ok


def test_missing_loop_state_fails_domain_condition():
    p = golden_mean()
    # relate only state 1 of the second machine; 0 sits on a self-loop
    partial = rel(obj(p.states), obj(p.states), {(("1",), ("1",))})
    report = check_inf(p, p, SimCertificate(partial, TWO_SIDED))
    assert not report.ok
    assert report.failed_condition in ("transition", "domain-path")
    only_domain = rel(obj(p.states), obj(p.states),
                      {(("1",), ("1",)), (("1",), ("0",)), (("0",), ("0",)), (("0",), ("1",))})
    # total and surjective: path conditions hold, only intertwining can fail
    report2 = check_inf(p, p, SimCertificate(only_domain, TWO_SIDED))
    assert report2.failed_condition != "domain-path"


def test_domain_condition_witness_names_the_state():
    p = golden_mean()
    # intertwining holds for the empty relation only in ⊆ direction; use a
    # relation that satisfies intertwining but misses a looping state.
    selfsim = identity(obj(p.states))
    dropped = rel(obj(p.states), obj(p.states),
                  {pair for pair in selfsim.pairs if pair[0] != ("0",)})
    report = check_inf(p, p, SimCertificate(dropped, FORWARD))
    if not report.ok and report.failed_condition == "domain-path":
        assert report.witness == (("0",), ())


def test_backward_mode_skips_domain_condition():
    p = golden_mean()
    empty = rel(obj(p.states), obj(p.states), set())
    # empty relation satisfies the ⊆ intertwining; backward only adds the
    # codomain side, which fails on the looping states
    report = check_inf(p, p, SimCertificate(empty, BACKWARD))
    assert not report.ok
    assert report.failed_condition == "codomain-path"


def test_two_sided_pass_implies_equal_subshifts():
    rng = random.Random(SEED + 71)
    passes = 0
    for _ in range(150):
        p1 = prune(random_presentation(rng, max_states=4))
        p2 = prune(random_presentation(rng, max_states=4, alphabet=p1.alphabet))
        from genrand import random_rel

        s = random_rel(rng, obj(p2.states), obj(p1.states), density=rng.uniform(0.1, 0.9))
        if check_inf(p1, p2, SimCertificate(s, TWO_SIDED)).ok:
            passes += 1
            assert nfa_equiv(factor_language(p1), factor_language(p2))
    assert passes > 0
