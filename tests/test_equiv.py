"""``equiv`` decides every kind as one question, the equality of two
finite-word acceptor languages (``nfa_equiv``), and builds a certificate
chain only for two equal finite-word terms.  Tested differentially against
the per-kind verdicts it replaced (``seed_algorithms``): the same verdicts,
byte-identical chains, and the same errors."""

import contextlib
import io as stdio
import os
import random
import tempfile

from hypothesis import given, strategies as st

import seed_algorithms as seed
from genrand import alter_one_box, preserving_mutation, random_alphabet, random_diagram, \
    random_presentation, random_transducer
from helpers import diagrams_equiv, presentations_equiv
from relmach import io
from relmach.cli import main
from relmach.relcore import MachineError, obj
from relmach.sofic import ztransducer
from test_constructions import unlabel

SEEDS = st.integers(0, 2**32 - 1)


def outcome(fn, *args):
    """A call's result, or the class and message of the error it raised."""
    try:
        return fn(*args)
    except MachineError as e:
        return type(e), str(e)


def cli_equiv(x, y, *options):
    """Run ``equiv`` on ``x`` and ``y`` (values or documents) saved to files:
    the exit code, stdout, stderr, and the chain file written for
    ``--certify`` (or None)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("x.json", "y.json", "chain.json")]
        io.save_file(paths[0], x)
        io.save_file(paths[1], y)
        argv = ["equiv", *paths[:2]] + (["--certify", paths[2]] if "--certify" in options else [])
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        chain = open(paths[2], encoding="utf-8").read() if os.path.exists(paths[2]) else None
    return code, out.getvalue(), err.getvalue(), chain


def expected_cli(verdict):
    """What ``equiv`` prints for an oracle's verdict or error."""
    if isinstance(verdict, tuple):
        return 2, "", f"error: {verdict[1]}\n"
    status = "equal" if verdict else "not-equal"
    return int(not verdict), io.dumps({"kind": "verdict", "status": status}), ""


def term_pairs(rng):
    """A random term, and pairs of it with itself, a language-preserving
    rewrite, a one-box mutant and a term of another or the same type."""
    dom, cod = obj(random_alphabet(rng, "I")), obj(random_alphabet(rng, "O"))
    d = random_diagram(rng, dom, cod, rng.randint(2, 6), rng.randint(0, 2))
    altered = alter_one_box(rng, d) or d
    other = random_diagram(rng, obj(random_alphabet(rng, "I")), obj(random_alphabet(rng, "O")),
                           rng.randint(1, 4), 1)
    return [(d, d), (d, preserving_mutation(rng, d)), (d, altered), (altered, d), (d, other)]


def chain_outcome(fn, d1, d2, serialize):
    result = outcome(fn, d1, d2)
    if isinstance(result[0], type):
        return result
    equal, cert = result
    return equal, None if cert is None else io.dumps(serialize(cert))


@given(SEEDS)
def test_term_verdicts_and_chains_match_oracle(seed_):
    rng = random.Random(seed_)
    for d1, d2 in term_pairs(rng):
        new = chain_outcome(diagrams_equiv, d1, d2, lambda c: c)
        old = chain_outcome(seed.diagrams_equiv, d1, d2, seed.chain_payload)
        assert new == old
        code, out, err, chain = cli_equiv(d1, d2, "--certify")
        assert (code, out, err) == expected_cli(old if isinstance(old[0], type) else old[0])
        assert chain == (old[1] if old[0] is True else None)


def test_term_corpus_has_both_verdicts():
    verdicts = []
    for i in range(40):
        for d1, d2 in term_pairs(random.Random(i))[1:4]:
            equal, cert = diagrams_equiv(d1, d2)
            assert (cert is not None) == equal
            verdicts.append(equal)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


@given(SEEDS)
def test_z_term_verdicts_match_oracle(seed_):
    rng = random.Random(seed_)
    for d1, d2 in term_pairs(rng):
        z1, z2 = unlabel(d1, lambda i: True), unlabel(d2, lambda i: True)
        old = outcome(seed.z_diagrams_equiv, z1, z2)
        # tagged as zdiagrams even when a term has no feedback at all
        tagged = ({**io.to_payload(z), "kind": "zdiagram"} for z in (z1, z2))
        assert cli_equiv(*tagged, "--certify") == (*expected_cli(old), None)


def random_ztransducer(rng):
    t = random_transducer(rng, max_states=3)
    return ztransducer(t.input, t.output, t.states, t.trans)


def one_quad_mutant(rng, z):
    quad = (rng.choice(z.input.elements), rng.choice(z.states.elements),
            rng.choice(z.output.elements), rng.choice(z.states.elements))
    return ztransducer(z.input, z.output, z.states, z.trans ^ {quad})


@given(SEEDS)
def test_ztransducer_verdicts_match_oracle(seed_):
    rng = random.Random(seed_)
    z = random_ztransducer(rng)
    for other in (z, one_quad_mutant(rng, z), random_ztransducer(rng)):
        old = outcome(seed.ztransducers_equiv, z, other)
        assert cli_equiv(z, other) == (*expected_cli(old), None)


@given(SEEDS)
def test_presentation_verdicts_match_oracle(seed_):
    rng = random.Random(seed_)
    p = random_presentation(rng, max_states=5)
    for other in (p, random_presentation(rng, max_states=5, alphabet=p.alphabet),
                  random_presentation(rng, max_states=5)):
        new = outcome(presentations_equiv, p, other)
        old = outcome(seed.presentations_equiv_by_refinement, p, other)
        if isinstance(old, tuple):
            assert isinstance(new, tuple) and new[0] is old[0]
        else:
            assert new == old
        code, out, err, _ = cli_equiv(p, other)
        assert code == expected_cli(old)[0] and out == expected_cli(old)[1]
        assert err.startswith("error: ") if code == 2 else err == ""
