import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

import seed_algorithms as seed
from conftest import SEED
from genrand import random_diagram, random_nfa, random_presentation, random_transducer
from helpers import dfa, lift_transducer, load_file, rel
import relmach
from relmach import automata, cli, diagram, io, simulation, sofic
from relmach.automata import determinize, minimize, nfa
from relmach.cli import build_parser, main
from relmach.diagram import Box, Feedback, Id, Par, Seq
from relmach.relcore import UNIT, UNIT_OBJ, Alphabet, obj
from relmach.simulation import SimCertificate
from relmach.sofic import presentation, ztransducer
from relmach.transducer import transducer

Ab = Alphabet("A", ("a", "b"))
Aa = Alphabet("A", ("a",))
Q2 = Alphabet("Q", ("q0", "q1"))

SWAP_REL = rel(obj(Ab), obj(Ab), {(("a",), ("b",)), (("b",), ("a",))})
PARITY_REL = rel(obj(Aa, Q2), obj(Aa, Q2), {
    (("a", "q0"), ("a", "q1")), (("a", "q1"), ("a", "q0")),
})


def fixture_corpus():
    """At least thirty machine values covering every file kind."""
    rng = random.Random(SEED + 61)
    gm = presentation(Ab, Alphabet("Q", ("0", "1")),
                      {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")})
    aplus = nfa(Aa, Alphabet("Q", ("0", "1")),
                {("0", "a", "0"), ("0", "a", "1")}, {"0"}, {"1"})
    astar = nfa(Aa, Alphabet("Q", ("0",)), {("0", "a", "0")}, {"0"}, {"0"})
    dfa1, contains = determinize(aplus)
    mdfa, lmap = minimize(dfa1)
    parity = transducer(Aa, Aa, Q2,
                        {("a", "q0", "a", "q1"), ("a", "q1", "a", "q0")},
                        {"q0"}, {"q0"})
    items = [
        Ab, Aa, Alphabet("greek", ("alpha", "beta", "gamma")),
        SWAP_REL, PARITY_REL,
        rel(obj(Ab), UNIT_OBJ, set()),
        rel(obj(Ab, Aa), obj(Aa), {(("a", "a"), ("a",))}),
        lift_transducer(SWAP_REL), parity,
        random_transducer(rng), random_transducer(rng),
        aplus, astar, random_nfa(rng), random_nfa(rng),
        dfa1, mdfa, determinize(astar)[0],
        gm,
        presentation(Ab, Alphabet("Q", ("0",)), {("0", "a", "0"), ("0", "b", "0")}),
        presentation(Ab, Alphabet("Q", ("0", "1")),
                     {("0", "a", "0"), ("0", "b", "1"), ("1", "b", "0")}, root="0"),
        random_presentation(rng),
        ztransducer(Ab, Ab, Alphabet("S", ("s",)),
                    {("a", "s", "b", "s"), ("b", "s", "a", "s")}),
        ztransducer(Aa, Aa, Q2, {("a", "q0", "a", "q1"), ("a", "q1", "a", "q0")}),
        ztransducer(Ab, Aa, Alphabet("S", ("s",)), set()),
        Box(SWAP_REL),
        Feedback(Q2, frozenset({"q0"}), frozenset({"q0"}), Box(PARITY_REL)),
        Seq(Box(SWAP_REL), Box(SWAP_REL)),
        random_diagram(rng, obj(Ab), obj(Ab), nodes=5, feedbacks=1),
        Feedback(Q2, None, None, Box(PARITY_REL)),
        SimCertificate(contains),
        SimCertificate(lmap, "backward"),
    ]
    return items


def test_corpus_round_trip(tmp_path):
    items = fixture_corpus()
    assert len(items) >= 30
    for i, x in enumerate(items):
        path = tmp_path / f"fixture_{i}.json"
        io.save_file(path, x)
        back = load_file(path)
        assert back == x, f"round trip failed for item {i}: {type(x).__name__}"
        # canonical output is stable under a second round trip
        assert io.dumps(back) == path.read_text()


def write(tmp_path, name, x):
    path = tmp_path / name
    io.save_file(path, x)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_behavior_dual_evaluation_byte_identical(tmp_path, capsys):
    t = write(tmp_path, "swap.json", lift_transducer(SWAP_REL))
    code1, out1, _ = run(capsys, "behavior", t, "--max-len", "3", "--via", "runs")
    code2, out2, _ = run(capsys, "behavior", t, "--max-len", "3", "--via", "shift")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "behavior", t, "--max-len", "3")
    assert code3 == 0 and out3 == out1


def test_behavior_output_contents(tmp_path, capsys):
    t = write(tmp_path, "swap.json", lift_transducer(SWAP_REL))
    code, out, _ = run(capsys, "behavior", t, "--max-len", "1")
    payload = json.loads(out)
    assert payload["kind"] == "sample"
    assert [[[], []], [["a"], ["b"]], [["b"], ["a"]]] == payload["pairs"]


def test_equiv_nfa_exit_codes(tmp_path, capsys):
    n1 = write(tmp_path, "aplus1.json", nfa(
        Aa, Alphabet("Q", ("0", "1")), {("0", "a", "0"), ("0", "a", "1")}, {"0"}, {"1"}))
    n2 = write(tmp_path, "aplus2.json", nfa(
        Aa, Alphabet("P", ("x", "y", "z")),
        {("x", "a", "y"), ("y", "a", "y"), ("x", "a", "z"), ("z", "a", "y")},
        {"x"}, {"y", "z"}))
    astar = write(tmp_path, "astar.json", nfa(
        Aa, Alphabet("Q", ("0",)), {("0", "a", "0")}, {"0"}, {"0"}))
    code, out, _ = run(capsys, "equiv", n1, n2)
    assert code == 0 and json.loads(out)["status"] == "equal"
    code, out, _ = run(capsys, "equiv", n1, astar)
    assert code == 1 and json.loads(out)["status"] == "not-equal"


def test_equiv_transducers_and_presentations(tmp_path, capsys):
    t1 = write(tmp_path, "t1.json", lift_transducer(SWAP_REL))
    t2 = write(tmp_path, "t2.json", lift_transducer(SWAP_REL))
    assert run(capsys, "equiv", t1, t2)[0] == 0
    gm1 = write(tmp_path, "gm1.json", presentation(
        Ab, Alphabet("Q", ("0", "1")), {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")}))
    full = write(tmp_path, "full.json", presentation(
        Ab, Alphabet("Q", ("0",)), {("0", "a", "0"), ("0", "b", "0")}))
    assert run(capsys, "equiv", gm1, full)[0] == 1


def test_equiv_on_states_whose_subset_names_collide(tmp_path, capsys):
    """{a,b} and {"a,b"} spell the same subset name; a verdict needs none."""
    Ax = Alphabet("A", ("x", "y"))
    Q = Alphabet("Q", ("a", "b", "a,b"))
    n1 = write(tmp_path, "n1.json", nfa(Ax, Q, {("a", "x", "a,b")}, {"a", "b"}, {"a,b"}))
    just_x = write(tmp_path, "x.json", nfa(
        Ax, Alphabet("P", ("0", "1")), {("0", "x", "1")}, {"0"}, {"1"}))
    xx = write(tmp_path, "xx.json", nfa(
        Ax, Alphabet("P", ("0", "1", "2")), {("0", "x", "1"), ("1", "x", "2")}, {"0"}, {"2"}))
    p = write(tmp_path, "p.json", presentation(
        Ax, Q, {("a", "x", "a"), ("b", "y", "a,b"), ("a,b", "x", "b")}))
    full = write(tmp_path, "full.json", presentation(
        Ax, Alphabet("P", ("0",)), {("0", "x", "0"), ("0", "y", "0")}))
    for argv, expect in [
        (("equiv", n1, just_x), 0),
        (("equiv", n1, n1), 0),
        (("equiv", n1, xx), 1),
        (("equiv", p, p), 0),
        (("equiv", p, full), 1),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == expect
        assert json.loads(out)["status"] == ("equal" if expect == 0 else "not-equal")


def test_subset_names_of_states_with_commas(tmp_path, capsys):
    """{a,b} and {"a,b"} get distinct names, so the commands that print
    subsets accept these machines, and the certificate checks."""
    Ax = Alphabet("A", ("x", "y"))
    Q = Alphabet("Q", ("a", "b", "a,b"))
    n = write(tmp_path, "n.json", nfa(Ax, Q, {("a", "x", "a,b")}, {"a", "b"}, {"a,b"}))
    p = write(tmp_path, "p.json", presentation(
        Ax, Q, {("a", "x", "a"), ("b", "y", "a,b"), ("a,b", "x", "b")}))
    cert = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "determinize", n, "--certify", cert)
    assert code == 0
    assert json.loads(out)["states"]["elements"] == ["{a,b}", "{a\\,b}", "{}"]
    det = str(tmp_path / "det.json")
    with open(det, "w", encoding="utf-8") as fh:
        fh.write(out)
    assert run(capsys, "check-sim", n, det, cert)[0] == 0
    code, out, _ = run(capsys, "canonical", p)
    assert code == 0 and json.loads(out)["kind"] == "presentation"


def test_equiv_diagrams_with_certificate(tmp_path, capsys):
    d = Feedback(Q2, frozenset({"q0"}), frozenset({"q0"}), Box(PARITY_REL))
    f1 = write(tmp_path, "d1.json", d)
    f2 = write(tmp_path, "d2.json", d)
    cert_path = tmp_path / "chain.json"
    code, out, _ = run(capsys, "equiv", f1, f2, "--certify", str(cert_path))
    assert code == 0
    chain = json.loads(cert_path.read_text())
    assert chain["kind"] == "certificate-chain"
    assert chain["left"]["contains"]["kind"] == "certificate"


def test_equiv_on_letters_whose_packed_names_collide(tmp_path, capsys):
    """(a, "b,c") and ("a,b", c) would both be named "(a,b,c)"."""
    A = Alphabet("A", ("a", "a,b"))
    B = Alphabet("B", ("b,c", "c"))
    Q = Alphabet("Q", ("s",))
    both = write(tmp_path, "t.json", transducer(
        A, B, Q, {("a", "s", "b,c", "s"), ("a,b", "s", "c", "s")}, {"s"}, {"s"}))
    one = write(tmp_path, "u.json", transducer(A, B, Q, {("a", "s", "b,c", "s")}, {"s"}, {"s"}))
    assert run(capsys, "equiv", both, both)[0] == 0
    assert run(capsys, "equiv", both, one)[0] == 1
    box = Box(rel(obj(A), obj(B), {(("a",), ("b,c",)), (("a,b",), ("c",))}))
    d = write(tmp_path, "d.json", box)
    assert run(capsys, "equiv", d, d)[0] == 0
    code, out, _ = run(capsys, "normalize", d)
    assert code == 0 and json.loads(out)["kind"] == "transducer"


def test_equiv_decides_a_wide_par_of_identities(tmp_path, capsys):
    term = Box(rel(obj(Ab), obj(Ab), {(("a",), ("a",)), (("b",), ("b",))}))
    for _ in range(11):
        term = Par(term, Id(obj(Ab)))
    w = write(tmp_path, "w.json", term)
    code, out, _ = run(capsys, "equiv", w, w)
    assert code == 0 and json.loads(out)["status"] == "equal"


def test_equiv_kind_mismatch_is_error(tmp_path, capsys):
    t = write(tmp_path, "t.json", lift_transducer(SWAP_REL))
    gm = write(tmp_path, "gm.json", presentation(
        Ab, Alphabet("Q", ("0",)), {("0", "a", "0")}))
    code, _, err = run(capsys, "equiv", t, gm)
    assert code == 2
    assert "error" in err


def test_equiv_transducers_of_different_types_is_error(tmp_path, capsys):
    """Two transducers whose alphabets pack to one product alphabet are
    still of different types."""
    Aab, Ac, Abc = Alphabet("A", ("a", "b")), Alphabet("C", ("c",)), Alphabet("B", ("b", "c"))
    s = Alphabet("Q", ("s",))

    def one_state(input, output):
        quad = (input.elements[0], "s", output.elements[0], "s")
        return transducer(input, output, s, {quad}, {"s"}, {"s"})

    for t1, t2 in ((one_state(UNIT, Aab), one_state(Aab, UNIT)),
                   (one_state(Aa, Abc), one_state(Aab, Ac))):
        f1, f2 = write(tmp_path, "t1.json", t1), write(tmp_path, "t2.json", t2)
        assert run(capsys, "equiv", f1, f1)[0] == 0
        assert run(capsys, "equiv", f1, f2) == \
            (2, "", "error: machines do not share input/output alphabets\n")


def kind_files(tmp_path):
    """One file per kind, two diagrams among them, every machine over the
    one-letter alphabet so that the kinds that compare do."""
    aplus = nfa(Aa, Q2, {("q0", "a", "q0"), ("q0", "a", "q1")}, {"q0"}, {"q1"})
    ident = rel(obj(Aa), obj(Aa), {(("a",), ("a",))})
    values = {
        "alphabet": Aa,
        "relation": ident,
        "transducer": lift_transducer(ident),
        "nfa": aplus,
        "dfa": determinize(aplus)[0],
        "presentation": presentation(Aa, Q2, {("q0", "a", "q1"), ("q1", "a", "q0")}),
        "ztransducer": ztransducer(Aa, Aa, Q2, {("a", "q0", "a", "q1"), ("a", "q1", "a", "q0")}),
        "diagram": Box(ident),
        "feedback-diagram": Feedback(Q2, frozenset({"q0"}), frozenset({"q0"}), Box(PARITY_REL)),
        "zdiagram": Feedback(Q2, None, None, Box(PARITY_REL)),
        "certificate": SimCertificate(rel(obj(Q2), obj(Q2), {(("q0",), ("q0",))})),
    }
    return {name: write(tmp_path, f"{name}.json", x) for name, x in values.items()}


# Exit codes of the kind pairs that compare; every other pair is an error.
COMPARABLE = {
    ("nfa", "nfa"): 0, ("nfa", "dfa"): 0, ("dfa", "nfa"): 0, ("dfa", "dfa"): 0,
    ("transducer", "transducer"): 0, ("presentation", "presentation"): 0,
    ("ztransducer", "ztransducer"): 0,
    ("diagram", "diagram"): 0, ("feedback-diagram", "feedback-diagram"): 0,
    ("diagram", "feedback-diagram"): 1, ("feedback-diagram", "diagram"): 1,
    ("diagram", "zdiagram"): 0, ("zdiagram", "diagram"): 0, ("zdiagram", "zdiagram"): 0,
}


def test_equiv_kind_pair_matrix(tmp_path, capsys):
    files = kind_files(tmp_path)
    tag = {name: io.load_tagged(path)[0] for name, path in files.items()}
    labelled = "error: labelled feedback belongs to the finite-word language\n"
    for (name1, f1), (name2, f2) in itertools.product(files.items(), repeat=2):
        code, out, err = run(capsys, "equiv", f1, f2)
        if (name1, name2) in COMPARABLE:
            status = COMPARABLE[name1, name2]
            assert (code, err) == (status, ""), (name1, name2)
            assert json.loads(out)["status"] == ("equal" if status == 0 else "not-equal")
        elif {name1, name2} == {"feedback-diagram", "zdiagram"}:
            assert (code, out, err) == (2, "", labelled)
        else:
            assert (code, out) == (2, ""), (name1, name2)
            assert err == f"error: cannot compare kinds {tag[name1]} and {tag[name2]}\n"


# Every command but equiv (see COMPARABLE), its arguments with "{}" for the
# kind file (a file name such as "nfa" stands for that file of
# ``kind_files``), and the tags it reads, in the order its refusal names them,
# each with the exit code it gives on ``kind_files``.  A file of any other
# kind exits 2 with "expected kind <tags>, got <tag>" and prints nothing.
COMMAND_KINDS = [
    (["behavior", "{}", "--max-len", "2"], {"transducer": 0, "diagram": 0, "zdiagram": 2}),
    (["determinize", "{}"], {"nfa": 0, "dfa": 0, "presentation": 0}),
    (["minimize", "{}"], {"dfa": 0, "presentation": 0}),
    (["prune", "{}"], {"nfa": 0, "dfa": 0, "presentation": 0}),
    (["canonical", "{}"], {"presentation": 0}),
    # the certificate relates two states q0, so it fits only the machines over Q2
    (["check-sim", "{}", "{}", "certificate"], {"transducer": 2, "nfa": 1, "dfa": 2}),
    (["check-sim", "{}", "{}", "certificate", "--infinite"], {"presentation": 1, "ztransducer": 1}),
    (["check-sim", "nfa", "nfa", "{}"], {"certificate": 1}),
    (["check-sim", "presentation", "presentation", "{}", "--infinite"], {"certificate": 1}),
    (["normalize", "{}"], {"diagram": 0, "zdiagram": 0}),
    (["factors", "{}", "--max-len", "2"], {"presentation": 0}),
    (["periodic", "{}", "a"], {"presentation": 0}),
]


def test_every_command_reads_exactly_its_kinds(tmp_path, capsys):
    files = kind_files(tmp_path)
    tag = {name: io.load_tagged(path)[0] for name, path in files.items()}
    for template, accepted in COMMAND_KINDS:
        for name, path in files.items():
            argv = [path if a == "{}" else files.get(a, a) for a in template]
            code, out, err = run(capsys, *argv)
            if tag[name] in accepted:
                assert code == accepted[tag[name]], argv
                assert (out == "") == (code == 2), argv
            else:
                expected = f"error: {path}: expected kind {'/'.join(accepted)}, got {tag[name]}\n"
                assert (code, out, err) == (2, "", expected), argv
    for name, path in files.items():
        code, out, err = run(capsys, "export-dot", path)
        if tag[name] in ("alphabet", "relation", "certificate"):
            assert (code, out, err) == (2, "", f"error: no DOT rendering for {tag[name]}\n")
        else:
            assert code == 0 and out.startswith("digraph {") and err == ""


def test_minimize_certify_needs_every_state_accessible(tmp_path, capsys):
    """The CLI certifies a minimization as the library does: a DFA with an
    unreachable state is minimized, but gets no certificate."""
    d = write(tmp_path, "d.json", dfa(
        Ab, Alphabet("Q", ("p", "q", "r")),
        frozenset({("p", "a", "p"), ("p", "b", "p"), ("r", "a", "p")}),
        frozenset({"p"}), frozenset({"p"})))
    cert = tmp_path / "cert.json"
    assert run(capsys, "minimize", d, "--certify", str(cert)) == \
        (2, "", "error: minimization certificate requires every state accessible\n")
    assert not cert.exists()
    code, out, err = run(capsys, "minimize", d)
    assert (code, err) == (0, "") and json.loads(out)["states"]["elements"] == ["p"]


def test_check_sim_reads_a_unit_alphabet_and_its_namesake_alike(tmp_path, capsys):
    """Two one-state NFAs with a ``*`` loop, over the unit alphabet and over
    a one-element namesake of it, simulate each other by the identity."""
    Q = Alphabet("Q", ("p",))
    loops = [write(tmp_path, f"{a.name}.json", nfa(a, Q, {("p", "*", "p")}, {"p"}, {"p"}))
             for a in (UNIT, Alphabet("U", ("*",)))]
    ident = write(tmp_path, "id.json", SimCertificate(rel(obj(Q), obj(Q), {(("p",), ("p",))})))
    for m1, m2 in (loops, loops[::-1]):
        code, out, _ = run(capsys, "check-sim", m1, m2, ident)
        assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_chain_is_built_only_for_certify_on_equal_diagrams(tmp_path, capsys, monkeypatch):
    d = Feedback(Q2, frozenset({"q0"}), frozenset({"q0"}), Box(PARITY_REL))
    ident = Box(rel(obj(Aa), obj(Aa), {(("a",), ("a",))}))
    f1, f2, other = (write(tmp_path, f"{i}.json", x) for i, x in enumerate((d, d, ident)))
    files = kind_files(tmp_path)
    chain = tmp_path / "chain.json"

    def refuse(*args):
        raise AssertionError("certificate work for a verdict")

    for module in (automata, diagram, simulation):
        for name in ("iso_check", "minimize", "certificate_for_minimization"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert run(capsys, "equiv", f1, f2)[0] == 0
    assert run(capsys, "equiv", f1, other, "--certify", str(chain))[0] == 1
    for name in ("nfa", "transducer", "presentation", "ztransducer", "zdiagram"):
        assert run(capsys, "equiv", files[name], files[name], "--certify", str(chain))[0] == 0
    assert not chain.exists()
    monkeypatch.undo()
    assert run(capsys, "equiv", f1, f2, "--certify", str(chain))[0] == 0
    assert json.loads(chain.read_text())["kind"] == "certificate-chain"


def test_determinize_minimize_with_certificates(tmp_path, capsys):
    n = write(tmp_path, "n.json", nfa(
        Aa, Alphabet("Q", ("0", "1")), {("0", "a", "0"), ("0", "a", "1")}, {"0"}, {"1"}))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "determinize", n, "--certify", str(cert_path))
    assert code == 0
    dfa_payload = json.loads(out)
    assert dfa_payload["kind"] == "dfa"
    dfa_file = tmp_path / "d.json"
    dfa_file.write_text(out)
    code, _, _ = run(capsys, "check-sim", n, str(dfa_file), str(cert_path),
                     "--mode", "two-sided")
    assert code == 0
    code, out, _ = run(capsys, "minimize", str(dfa_file))
    assert code == 0 and json.loads(out)["kind"] == "dfa"


@pytest.mark.parametrize("command, x", [
    ("determinize", nfa(Ab, UNIT, {("*", "a", "*")}, {"*"}, {"*"})),
    ("determinize", dfa(Ab, UNIT, frozenset({("*", "a", "*"), ("*", "b", "*")}),
                        frozenset({"*"}), frozenset({"*"}))),
    ("minimize", dfa(Ab, UNIT, frozenset({("*", "a", "*")}), frozenset({"*"}), frozenset({"*"}))),
    ("determinize", presentation(Ab, UNIT, {("*", "a", "*"), ("*", "b", "*")})),
    ("minimize", presentation(Ab, UNIT, {("*", "a", "*"), ("*", "b", "*")})),
])
def test_certificates_over_a_unit_state_alphabet_check(tmp_path, capsys, monkeypatch, command, x):
    """A machine whose states are the unit alphabet gets a certificate that
    check-sim passes; the certified pair is (input, result) for determinize
    and (result, input) for minimize.  Without --certify the same machine is
    printed, and no certificate relation is built."""
    f = write(tmp_path, "x.json", x)
    cert = str(tmp_path / "cert.json")
    code, out, err = run(capsys, command, f, "--certify", cert)
    assert (code, err) == (0, "")

    def refuse(*args):
        raise AssertionError("a certificate built without --certify")

    with monkeypatch.context() as patch:
        for module in (automata, sofic, simulation):
            for name in ("membership", "class_relation"):
                patch.setattr(module, name, refuse, raising=False)
        assert run(capsys, command, f) == (0, out, "")
    result = tmp_path / "y.json"
    result.write_text(out)
    pair = (f, str(result)) if command == "determinize" else (str(result), f)
    infinite = ["--infinite"] if json.loads(out)["kind"] == "presentation" else []
    code, out, _ = run(capsys, "check-sim", *pair, cert, *infinite)
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_check_sim_failure_exit(tmp_path, capsys):
    t = lift_transducer(SWAP_REL)
    f = write(tmp_path, "m.json", t)
    bad = write(tmp_path, "bad.json", SimCertificate(
        rel(obj(Alphabet("Q", ("*",))), obj(Alphabet("Q", ("*",))), set())))
    code, out, _ = run(capsys, "check-sim", f, f, bad)
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_check_sim_infinite(tmp_path, capsys):
    gm = presentation(Ab, Alphabet("Q", ("0", "1")),
                      {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")})
    from relmach.sofic import determinize_presentation

    det, cert = determinize_presentation(gm)
    f1 = write(tmp_path, "gm.json", gm)
    f2 = write(tmp_path, "det.json", det)
    c = write(tmp_path, "cert.json", cert)
    code, out, _ = run(capsys, "check-sim", f1, f2, c, "--infinite")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_prune_modes(tmp_path, capsys):
    p = write(tmp_path, "p.json", presentation(
        Aa, Alphabet("Q", ("p", "q")), {("p", "a", "q"), ("q", "a", "q")}))
    code, out, _ = run(capsys, "prune", p, "--mode", "fwd")
    assert code == 0
    assert json.loads(out)["states"]["elements"] == ["p", "q"]
    code, out, _ = run(capsys, "prune", p, "--mode", "bwd")
    assert json.loads(out)["states"]["elements"] == ["q"]
    code, out, _ = run(capsys, "prune", p)
    assert json.loads(out)["states"]["elements"] == ["q"]


def test_canonical_command(tmp_path, capsys):
    gm = write(tmp_path, "gm.json", presentation(
        Ab, Alphabet("Q", ("0", "1")), {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")}))
    code, out, _ = run(capsys, "canonical", gm)
    payload = json.loads(out)
    assert code == 0
    assert len(payload["states"]["elements"]) == 2
    assert payload["root"] in payload["states"]["elements"]


def test_normalize_commands(tmp_path, capsys):
    d = write(tmp_path, "d.json",
              Feedback(Q2, frozenset({"q0"}), frozenset({"q0"}), Box(PARITY_REL)))
    code, out, _ = run(capsys, "normalize", d)
    assert code == 0 and json.loads(out)["kind"] == "transducer"
    zd = write(tmp_path, "zd.json", Feedback(Q2, None, None, Box(PARITY_REL)))
    code, out, _ = run(capsys, "normalize", zd)
    assert code == 0 and json.loads(out)["kind"] == "ztransducer"


def test_factors_and_periodic(tmp_path, capsys):
    gm = write(tmp_path, "gm.json", presentation(
        Ab, Alphabet("Q", ("0", "1")), {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")}))
    code, out, _ = run(capsys, "factors", gm, "--max-len", "2")
    assert code == 0
    words = [tuple(w) for w in json.loads(out)["words"]]
    assert ("b", "b") not in words and ("a", "b") in words
    assert run(capsys, "periodic", gm, "a")[0] == 0
    assert run(capsys, "periodic", gm, "b")[0] == 1
    assert run(capsys, "periodic", gm, "a,b")[0] == 0


def test_export_dot(tmp_path, capsys):
    gm = write(tmp_path, "gm.json", presentation(
        Ab, Alphabet("Q", ("0", "1")),
        {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")}, root="0"))
    code, out, _ = run(capsys, "export-dot", gm)
    assert code == 0
    assert out.startswith("digraph") and "doublecircle" in out
    d = write(tmp_path, "d.json", Box(SWAP_REL))
    code, out, _ = run(capsys, "export-dot", d)
    assert code == 0 and "box" in out


def test_ill_typed_term_files_are_refused_when_read(tmp_path, capsys):
    a = '{"name": "A", "elements": ["a", "b"]}'
    q = '{"name": "Q", "elements": ["q0", "q1"]}'
    box = '{"node": "box", "rel": {"dom": [%s], "cod": [%s], "pairs": []}}'
    path = tmp_path / "ill.json"
    path.write_text('{"kind": "diagram", "term": {"node": "seq", "first": %s, "second": %s}}'
                    % (box % (a, a), box % (q, q)))
    for argv in (["normalize", path], ["equiv", path, path], ["export-dot", path]):
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out, err) == (2, "", f"error: {path}: sequential composition of incompatible terms\n")


def test_error_diagnostics(tmp_path, capsys):
    code, _, err = run(capsys, "behavior", str(tmp_path / "missing.json"),
                       "--max-len", "2")
    assert code == 2 and "missing.json" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nfa", "alphabet": {"name": "A", "elements": ["a"]}, '
                   '"states": {"name": "Q", "elements": ["0"]}, '
                   '"trans": [["0", "zz", "0"]], "initial": ["0"], "final": []}')
    code, _, err = run(capsys, "equiv", str(bad), str(bad))
    assert code == 2 and "bad.json" in err


def test_exit_codes_follow_verdict_contract(tmp_path, capsys):
    """Scan a handful of command invocations for the 0/1/2 contract."""
    gm = write(tmp_path, "gm.json", presentation(
        Ab, Alphabet("Q", ("0", "1")), {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")}))
    full = write(tmp_path, "full.json", presentation(
        Ab, Alphabet("Q", ("0",)), {("0", "a", "0"), ("0", "b", "0")}))
    for argv, expect in [
        (("equiv", gm, gm), 0),
        (("equiv", gm, full), 1),
        (("periodic", gm, "b"), 1),
        (("factors", gm, "--max-len", "1"), 0),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == expect
        if argv[0] == "equiv":
            assert json.loads(out)["status"] == ("equal" if expect == 0 else "not-equal")


def test_unexpected_exception_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    """Exit 1 means "not equal / fail"; a crash inside a command is an error."""
    gm = write(tmp_path, "gm.json", presentation(
        Ab, Alphabet("Q", ("0",)), {("0", "a", "0"), ("0", "b", "0")}))
    for exc in (RecursionError("maximum recursion depth exceeded"),
                RuntimeError("first line\nsecond line")):
        def crash(*args, exc=exc):
            raise exc

        monkeypatch.setattr("relmach.cli.nfa_equiv", crash)
        code, out, err = run(capsys, "equiv", gm, gm)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {type(exc).__name__}: ") and err.count("\n") == 1


def test_malformed_documents_exit_2_with_one_line(tmp_path, capsys):
    from test_io import MALFORMED_DOCS
    commands = {"nfa": "determinize", "relation": "export-dot", "diagram": "normalize",
                "presentation": "canonical", "alphabet": "export-dot"}
    for i, (doc, words) in enumerate(MALFORMED_DOCS):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        command = commands[doc["kind"]] if isinstance(doc, dict) else "determinize"
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == "", doc
        assert err.startswith(f"error: {path}: ") and words in err and err.count("\n") == 1


def test_equiv_and_normalize_read_each_file_once(tmp_path, capsys, monkeypatch):
    z = write(tmp_path, "z.json", Feedback(Q2, None, None, Box(PARITY_REL)))
    d = write(tmp_path, "d.json", Box(SWAP_REL))
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    for argv in (("equiv", z, z), ("normalize", z), ("normalize", d), ("equiv", d, d)):
        opened.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert sorted(opened) == sorted(argv[1:])
    monkeypatch.undo()
    # The tag, not the term, picks the semantics: a feedback-free term read
    # as a zdiagram normalizes to a bi-infinite machine, and one zdiagram
    # side makes equiv compare over bi-infinite words.
    ident = rel(obj(Aa), obj(Aa), {(("a",), ("a",))})
    plain = write(tmp_path, "plain.json", Box(ident))
    tagged = tmp_path / "tagged.json"
    tagged.write_text(json.dumps({**io.to_payload(Box(ident)), "kind": "zdiagram"}))
    code, out, _ = run(capsys, "normalize", str(tagged))
    assert code == 0 and json.loads(out)["kind"] == "ztransducer"
    assert run(capsys, "equiv", plain, z)[0] == 0
    n = write(tmp_path, "n.json", nfa(Aa, Q2, {("q0", "a", "q1")}, {"q0"}, {"q1"}))
    code, _, err = run(capsys, "equiv", n, z)
    assert code == 2 and err == "error: cannot compare kinds nfa and zdiagram\n"


def test_over_deep_document_exits_2_with_one_line(tmp_path, capsys):
    from test_io import deep_seq_document
    path = tmp_path / "deep.json"
    path.write_text(deep_seq_document(1500))
    for argv in (("normalize", str(path)), ("equiv", str(path), str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and "nested too deeply" in err
        assert err.count("\n") == 1


def test_main_returns_argparse_status(capsys):
    """Usage errors and --help return their status with argparse's own text."""
    for argv, status in ((["equiv"], 2), (["bogus"], 2),
                         (["behavior", "x", "--max-len", "z"], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        expected = capsys.readouterr()
        assert exc.value.code == status
        assert run(capsys, *argv) == (status, expected.out, expected.err)
        assert (expected.out if status == 0 else expected.err).startswith("usage: relmach")


def test_negative_max_len_is_a_usage_error(tmp_path, capsys):
    gm = write(tmp_path, "gm.json", presentation(
        Ab, Alphabet("Q", ("0", "1")), {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")}))
    code, out, err = run(capsys, "factors", gm, "--max-len", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("usage: relmach factors") and "argument --max-len: " in err
    assert run(capsys, "factors", gm, "--max-len", "0")[0] == 0


def test_negative_behavior_max_len_is_a_usage_error(tmp_path, capsys):
    t = write(tmp_path, "swap.json", lift_transducer(SWAP_REL))
    code, out, err = run(capsys, "behavior", t, "--max-len", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("usage: relmach behavior") and "argument --max-len: " in err
    assert "uniform length bound" not in err


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    gm = write(tmp_path, "gm.json", presentation(
        Ab, Alphabet("Q", ("0",)), {("0", "a", "0"), ("0", "b", "0")}))
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    cli._parser.cache_clear()
    # a well-formed argv builds no parser; the first other one builds it
    for argv, count in ((("equiv", gm, gm), 0), (("canonical", gm), 0), (("bogus",), 1),
                        (("equiv", gm, gm), 1), (("equiv", gm, gm, "--cert", str(tmp_path / "c")), 1)):
        run(capsys, *argv)
        assert len(built) == count, argv
    assert len(built) == 1


# Each command's positional count and options, as the help texts list them.
GRAMMAR = {"behavior": (1, ("--max-len", "--via")), "equiv": (2, ("--certify",)),
           "determinize": (1, ("--certify",)), "minimize": (1, ("--certify",)), "prune": (1, ("--mode",)),
           "canonical": (1, ()), "check-sim": (3, ("--mode", "--infinite")), "normalize": (1, ()),
           "factors": (1, ("--max-len",)), "periodic": (2, ()), "export-dot": (1, ())}
COMMAND_NAMES = tuple(GRAMMAR)
ORACLE = seed.build_parser()


def oracle_output(parser, argv) -> tuple[dict | int, str, str]:
    """The fields of the namespace ``parser.parse_args(argv)`` returns, or
    the status it exits with, and what it prints on stdout and stderr."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


def test_help_and_usage_errors_match_the_oracle_parser():
    """The parser built from the command table prints argparse's text as the
    one built call by call did: every help, and each command's usage error."""
    assert build_parser().format_help() == ORACLE.format_help()
    for command in COMMAND_NAMES:
        for argv in ([command, "--help"], [command]):
            expected = oracle_output(ORACLE, argv)
            assert oracle_output(build_parser(), argv) == expected
            assert (expected[1] or expected[2]).startswith(f"usage: relmach {command} ")


WELL_FORMED = (
    ["behavior", "f", "--max-len", "3"], ["behavior", "--via", "shift", "--max-len", "0", "f"],
    ["equiv", "a", "b"], ["equiv", "a", "--certify", "c", "b"], ["equiv", "", "b"],
    ["determinize", "f", "--certify", "c"], ["minimize", "f"], ["prune", "f"],
    ["prune", "--mode", "fwd", "f"], ["canonical", "f"], ["check-sim", "a", "b", "c"],
    ["check-sim", "a", "--infinite", "b", "--mode", "forward", "c"], ["normalize", "x y"],
    ["factors", "f", "--max-len", "007"], ["periodic", "f", "a,b"], ["export-dot", "f"],
)
# argparse reads these as the well-formed argv beside them, or reports them;
# either way ``_match`` leaves them to argparse.
DECLINED = (
    ["equiv", "a", "b", "--cert", "c"], ["equiv", "a", "b", "--certify=c"],
    ["prune", "f", "--mode", "fwd", "--mode", "bwd"], ["equiv", "a", "b", "-h"], ["equiv", "--", "a", "b"],
    ["determinize", "f", "--certify", "-"], ["equiv", "a", "b", "--certify", "--"],
    ["factors", "f", "--max-len", "-1"], ["check-sim", "a", "b", "c", "--inf"],
    ["equiv", "a"], ["canonical"], ["canonical", "f", "g"], ["bogus"], ["--help"], [],
)


def test_match_reads_well_formed_argv():
    for argv in WELL_FORMED:
        matched = cli._match(argv)
        assert matched is not None and vars(matched) == oracle_output(ORACLE, argv)[0], argv
    for argv in DECLINED:
        assert cli._match(argv) is None, argv


FILES = ("a.json", "dir/b.json", "x y", "=", "ab", "")
VALUES = {"--max-len": ("0", "3", "007", " 2", "-1", "x"), "--via": ("shift", "runs", "full"),
          "--certify": ("c.json", "", "-"), "--mode": ("fwd", "full", "two-sided", "backward", "x"),
          "--infinite": ("a.json", "1")}
ODD = ("--max", "--cert", "--mo", "--inf", "--max-len=3", "--certify=x", "--mode=full", "--infinite=1",
       "-h", "--help", "--", "-1", "-", "", "--bogus", "-m")


@st.composite
def argvs(draw):
    """A command name (or not), then files, options with and without a
    value, and malformed tokens, in any order.  Half are drawn clean: the
    command's number of files, some of its own options and ``--max-len``,
    which is required, each option but the flag with a value, and no
    malformed token, so that many are well-formed.  The others have one
    file too few or too many or the right number, and options of the
    command's own or of any command."""
    command = draw(st.sampled_from((*COMMAND_NAMES, "bogus", "-h", "--help", "")))
    count, own = GRAMMAR.get(command, (1, ()))
    clean = draw(st.booleans())
    if clean:
        options = [o for o in own if o == "--max-len" or draw(st.booleans())]
    else:
        names = own if own and draw(st.booleans()) else sorted(VALUES)
        options = draw(st.lists(st.sampled_from(names), max_size=3))
        count = draw(st.integers(max(count - 1, 0), count + 1))
    pieces = [[f] for f in draw(st.lists(st.sampled_from(FILES), min_size=count, max_size=count))]
    for o in options:
        bare = o == "--infinite" if clean else draw(st.booleans())
        pieces.append([o] if bare else [o, draw(st.sampled_from(VALUES[o]))])
    if not clean:
        pieces += [[t] for t in draw(st.lists(st.sampled_from([*FILES, *ODD]), max_size=1))]
    return [command, *itertools.chain.from_iterable(draw(st.permutations(pieces)))]


@settings(max_examples=500)
@given(argvs())
def test_match_declines_or_agrees_with_argparse(argv):
    """``_match`` returns argparse's namespace or None, and None wherever
    argparse exits."""
    matched = cli._match(argv)
    expected = oracle_output(ORACLE, argv)[0]
    if not isinstance(expected, dict):
        assert matched is None
    else:
        assert matched is None or vars(matched) == expected


def test_no_state_leaks_between_calls(tmp_path, capsys):
    n = write(tmp_path, "n.json", nfa(
        Aa, Alphabet("Q", ("0", "1")), {("0", "a", "0"), ("0", "a", "1")}, {"0"}, {"1"}))
    cert = tmp_path / "c.json"
    code, det, _ = run(capsys, "determinize", n, "--certify", str(cert))
    assert code == 0 and cert.exists()
    cert.unlink()
    assert run(capsys, "determinize", n) == (0, det, "")
    assert not cert.exists()

    # p -> q, q -> q, q -> r: fwd drops r, bwd drops p, full drops both
    p = write(tmp_path, "p.json", presentation(
        Aa, Alphabet("Q", ("p", "q", "r")), {("p", "a", "q"), ("q", "a", "q"), ("q", "a", "r")}))
    full = run(capsys, "prune", p, "--mode", "full")
    assert json.loads(full[1])["states"]["elements"] == ["q"]
    assert run(capsys, "prune", p, "--mode", "fwd") != full
    assert run(capsys, "prune", p) == full

    valid = run(capsys, "equiv", n, n)
    assert valid[0] == 0
    assert run(capsys, "equiv", n)[0] == 2
    assert run(capsys, "equiv", n, n) == valid


def test_module_entry_point_exit_codes(tmp_path):
    """``python -m relmach.cli`` exits with main's status: 0 / 1 / 2."""
    gm = write(tmp_path, "gm.json", presentation(
        Ab, Alphabet("Q", ("0", "1")), {("0", "a", "0"), ("0", "b", "1"), ("1", "a", "0")}))
    full = write(tmp_path, "full.json", presentation(
        Ab, Alphabet("Q", ("0",)), {("0", "a", "0"), ("0", "b", "0")}))
    src = os.path.dirname(os.path.dirname(relmach.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv, status, stdout in (((gm, gm), 0, '"equal"'), ((gm, full), 1, '"not-equal"'),
                                 ((gm,), 2, "")):
        proc = subprocess.run([sys.executable, "-m", "relmach.cli", "equiv", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == status, proc.stderr
        assert stdout in proc.stdout and (status != 2 or proc.stderr.startswith("usage: relmach"))
