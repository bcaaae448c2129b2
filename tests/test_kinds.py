"""Every machine kind is one value: the bytes the command line prints for
each kind, and the verdicts and reports of the row-reading algorithms
against the route through the old per-kind conversions
(``seed_algorithms``), which packed a transducer's letter pairs into one
product alphabet."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import seed_algorithms as seed
from genrand import random_alphabet, random_nfa, random_presentation, random_rel, random_transducer
from relmach import io
from relmach.automata import nfa_equiv
from relmach.cli import main
from relmach.relcore import UNIT, Alphabet, MachineError, obj
from relmach.simulation import MODES, SimCertificate, certificate_for_determinization, check_fin, \
    check_inf
from relmach.sofic import factor_language, prune, ztransducer
from seed_algorithms import canonical_dumps

A = {"name": "A", "elements": ["a", "b"]}
Y = {"name": "Y", "elements": ["x", "y", "y2"]}
U = {"name": "unit", "elements": ["*"]}
Q = {"name": "Q", "elements": ["p", "q"]}
Q3 = {"name": "Q", "elements": ["s", "p", "q"]}

DOCS = {
    "nfa": {"kind": "nfa", "alphabet": A, "states": Q3,
            "trans": [["s", "a", "p"], ["s", "b", "p"], ["p", "a", "q"], ["q", "a", "s"], ["q", "b", "q"]],
            "initial": ["s", "q"], "final": ["p", "q"]},
    "dfa": {"kind": "dfa", "alphabet": A, "states": Q3,
            "trans": [["s", "a", "p"], ["s", "b", "q"], ["p", "a", "q"], ["q", "b", "q"]],
            "initial": ["s"], "final": ["q"]},
    "transducer": {"kind": "transducer", "input": A, "output": Y, "states": Q,
                   "trans": [["a", "p", "x", "q"], ["b", "p", "y", "q"], ["a", "q", "y2", "q"],
                             ["b", "q", "x", "p"]],
                   "initial": ["p"], "final": ["q"]},
    "presentation": {"kind": "presentation", "alphabet": A, "states": Q3,
                     "trans": [["s", "a", "p"], ["s", "b", "p"], ["p", "a", "s"], ["q", "b", "q"]],
                     "root": "p"},
    "ztransducer": {"kind": "ztransducer", "input": A, "output": Y, "states": Q,
                    "trans": [["a", "p", "x", "q"], ["b", "p", "y", "q"], ["b", "q", "x", "p"]]},
}

# What ``export-dot`` prints for each document above, whose rows and label
# sets are in canonical order.
DOT = {
    "nfa": 'digraph {\n  rankdir=LR;\n  __start0 [shape=point];\n  __start1 [shape=point];\n'
           '  "s" [shape=circle];\n  "p" [shape=doublecircle];\n  "q" [shape=doublecircle];\n'
           '  __start0 -> "s";\n  __start1 -> "q";\n  "p" -> "q" [label="a"];\n'
           '  "q" -> "q" [label="b"];\n  "q" -> "s" [label="a"];\n  "s" -> "p" [label="a, b"];\n}\n',
    "dfa": 'digraph {\n  rankdir=LR;\n  __start0 [shape=point];\n  "s" [shape=circle];\n'
           '  "p" [shape=circle];\n  "q" [shape=doublecircle];\n  __start0 -> "s";\n'
           '  "p" -> "q" [label="a"];\n  "q" -> "q" [label="b"];\n  "s" -> "p" [label="a"];\n'
           '  "s" -> "q" [label="b"];\n}\n',
    "transducer": 'digraph {\n  rankdir=LR;\n  __start0 [shape=point];\n  "p" [shape=circle];\n'
                  '  "q" [shape=doublecircle];\n  __start0 -> "p";\n'
                  '  "p" -> "q" [label="a / x, b / y"];\n  "q" -> "p" [label="b / x"];\n'
                  '  "q" -> "q" [label="a / y2"];\n}\n',
    "presentation": 'digraph {\n  rankdir=LR;\n  "s" [shape=doublecircle];\n'
                    '  "p" [shape=doublecircle style=bold color=red];\n  "q" [shape=doublecircle];\n'
                    '  "p" -> "s" [label="a"];\n  "q" -> "q" [label="b"];\n'
                    '  "s" -> "p" [label="a, b"];\n}\n',
    "ztransducer": 'digraph {\n  rankdir=LR;\n  "p" [shape=circle];\n  "q" [shape=circle];\n'
                   '  "p" -> "q" [label="a / x, b / y"];\n  "q" -> "p" [label="b / x"];\n}\n',
}


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def write(tmp_path, name: str, doc: dict):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("kind", sorted(DOCS))
def test_export_dot_keeps_its_bytes(kind, tmp_path, capsys):
    path = write(tmp_path, f"{kind}.json", DOCS[kind])
    assert run(capsys, "export-dot", path) == (0, DOT[kind])
    assert run(capsys, "equiv", path, path) == (0, '{\n  "kind": "verdict",\n  "status": "equal"\n}\n')


@pytest.mark.parametrize("kind", sorted(DOCS))
def test_machine_documents_round_trip(kind):
    text = canonical_dumps(DOCS[kind])  # each document above is in canonical order
    assert io.dumps(io.loads(text)) == text


def ztransducer_doc(input: dict, output: dict, trans: list) -> dict:
    return {"kind": "ztransducer", "input": input, "output": output, "states": Q, "trans": trans}


IDENTITY = {"kind": "certificate", "mode": "two-sided",
            "s": {"dom": [Q], "cod": [Q], "pairs": [[["p"], ["p"]], [["q"], ["q"]]]}}


def report(witness: list) -> str:
    return io.dumps({"kind": "sim-report", "verdict": "fail", "failed_condition": "transition",
                     "witness": witness})


# Two ztransducers and the witness of the identity certificate between them.
# Each has several transitions the second lacks, and the witness is the least
# as a tuple (letter, state, state) with the letter pair packed: ("(b,y)", "q",
# "p") before ("(b,y2)", "p", "q"), though "p" comes before "q".
WITNESSES = {
    "both": (ztransducer_doc(A, Y, [["a", "p", "x", "p"], ["b", "q", "y", "p"], ["b", "p", "y2", "q"]]),
             ztransducer_doc(A, Y, [["a", "p", "x", "p"]]),
             [["(b,y)", "q"], ["p"]]),
    "unit-input": (ztransducer_doc(U, Y, [["*", "p", "x", "p"], ["*", "q", "y", "p"], ["*", "q", "y", "q"],
                                      ["*", "p", "y", "q"]]),
                   ztransducer_doc(U, Y, [["*", "p", "x", "p"]]),
                   [["y", "p"], ["q"]]),
    "unit-output": (ztransducer_doc(A, U, [["a", "p", "*", "p"], ["b", "q", "*", "p"], ["b", "q", "*", "q"],
                                       ["b", "p", "*", "q"]]),
                    ztransducer_doc(A, U, [["a", "p", "*", "p"]]),
                    [["b", "p"], ["q"]]),
}


@pytest.mark.parametrize("case", sorted(WITNESSES))
def test_ztransducer_witness_keeps_its_packed_letter(case, tmp_path, capsys):
    z1, z2, witness = WITNESSES[case]
    paths = [write(tmp_path, name, doc) for name, doc in
             (("z1.json", z1), ("z2.json", z2), ("cert.json", IDENTITY))]
    assert run(capsys, "check-sim", *paths, "--infinite") == (1, report(witness))


# ---------------------------------------------------------------------------
# The row-reading routes against the old conversions, on random machines.

def outcome(fn, *args):
    """What a call returned, or the class and message of what it raised."""
    try:
        return fn(*args)
    except MachineError as e:
        return type(e), str(e)


def alphabet(rng: random.Random, name: str) -> Alphabet:
    """An alphabet, now and then the unit or one whose letters pack with escapes."""
    return rng.choice([random_alphabet(rng, name), random_alphabet(rng, name), UNIT,
                       Alphabet(name, ("a", "a,b")), Alphabet(name, ("b,c", "c"))])


def random_machine(rng: random.Random, kind: str, like=None):
    """A machine of ``kind``, over the alphabets of ``like`` if given."""
    input = like.input if like else alphabet(rng, "A")
    output = like.output if like else alphabet(rng, "B")
    if kind == "presentation":
        return random_presentation(rng, alphabet=input)
    if kind == "nfa":
        return random_nfa(rng, alphabet=input)
    t = random_transducer(rng, input=input, output=output)
    return t if kind == "transducer" else ztransducer(input, output, t.states, t.trans)


def other_machine(rng: random.Random, kind: str, m):
    """A machine of ``kind`` over ``m``'s alphabets: ``m`` itself, ``m`` with
    one row flipped or with its states renamed, or another one."""
    choice = rng.randrange(4)
    if choice == 0:
        return m
    if choice == 1:
        row = tuple(rng.choice(a.elements) for a in (m.input, m.states, m.output, m.states))
        return replace(m, trans=m.trans ^ {row})
    if choice == 2:
        name = {q: q + "'" for q in m.states.elements}
        labels = [None if s is None else {name[q] for q in s} for s in (m.initial, m.final)]
        return type(m)(m.input, m.output, Alphabet("P", tuple(name.values())),
                       {(a, name[q], b, name[q2]) for a, q, b, q2 in m.trans}, *labels)
    return random_machine(rng, kind, m)


# Each kind's verdict as ``equiv`` reaches it, and through the old conversions:
# a transducer as the acceptor over its packed letter pairs, a ztransducer as
# the presentation over them, a presentation as its pruned NFA.
OLD_ACCEPTORS = {
    "transducer": lambda t: seed.transducer_to_nfa(seed.to_automaton(t)),
    "ztransducer": lambda z: factor_language(seed.presentation_of_ztransducer(z)),
    "presentation": lambda p: seed.as_nfa(prune(p)),
}


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_verdicts_match_the_conversions(seed_):
    rng = random.Random(seed_)
    for kind, old in OLD_ACCEPTORS.items():
        x = random_machine(rng, kind)
        y = other_machine(rng, kind, x)
        new = factor_language if kind in ("presentation", "ztransducer") else (lambda m: m)
        assert outcome(lambda a, b: nfa_equiv(new(a), new(b)), x, y) == \
            outcome(lambda a, b: nfa_equiv(old(a), old(b)), x, y)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_reports_match_the_conversions(seed_):
    """``check_fin`` reads automata and ``check_inf`` ztransducers as they
    read the unit-output transducers and the presentations they converted to."""
    rng = random.Random(seed_)
    n = random_machine(rng, "nfa")
    d, contains = certificate_for_determinization(n)
    z = random_machine(rng, "ztransducer")
    for check, convert, m1, m2, s in [
        (check_fin, seed.nfa_to_transducer, n, d, contains.s),
        (check_fin, seed.nfa_to_transducer, n, other_machine(rng, "nfa", n), None),
        (check_inf, seed.presentation_of_ztransducer, z, other_machine(rng, "ztransducer", z), None),
    ]:
        if s is None or rng.random() < 0.5:
            s = random_rel(rng, obj(m2.states), obj(m1.states), density=rng.uniform(0.2, 0.9))
        cert = SimCertificate(s, rng.choice(MODES))
        assert outcome(check, m1, m2, cert) == outcome(check, convert(m1), convert(m2), cert)


@pytest.mark.parametrize("kind", ["transducer", "ztransducer"])
def test_equiv_reads_a_unit_alphabet_and_its_namesake_alike(kind, tmp_path, capsys):
    """Letters are pairs over the alphabets' elements, as ``check_fin``
    reads them, so the unit and a one-element namesake of it compare."""
    labels = {"initial": ["p"], "final": ["p"]} if kind == "transducer" else {}
    paths = [write(tmp_path, f"{i}.json", {"kind": kind, "input": unit, "output": Y, "states": Q,
                                           "trans": [["*", "p", "x", "p"]], **labels})
             for i, unit in enumerate([U, {"name": "U", "elements": ["*"]}])]
    assert run(capsys, "equiv", *paths) == (0, '{\n  "kind": "verdict",\n  "status": "equal"\n}\n')
