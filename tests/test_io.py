import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from genrand import random_alphabet, random_diagram, random_nfa, random_presentation, random_rel, \
    random_transducer
from helpers import dfa, lift_transducer, load_file, rel
from relmach import io
from relmach.automata import Dfa, nfa
from relmach.cli import main
from relmach.diagram import Box, Feedback, Par, Seq
from relmach.dot import to_dot
from relmach.relcore import UNIT, Alphabet, MachineError, Obj, obj
from relmach.simulation import SimCertificate, certificate_for_determinization, check_fin, \
    equiv_chain
from relmach.sofic import presentation, ztransducer
from relmach.transducer import Transducer, behavior_upto
import seed_algorithms as seed
from seed_algorithms import canonical_dumps, nfa_to_transducer

Ab = Alphabet("A", ("a", "b"))
Q2 = Alphabet("Q", ("q0", "q1"))
SWAP_REL = rel(obj(Ab), obj(Ab), {(("a",), ("b",)), (("b",), ("a",))})


def test_unknown_kind_rejected():
    with pytest.raises(MachineError):
        io.from_payload({"kind": "widget"})


def test_dfa_payload_validates_determinism():
    payload = {
        "kind": "dfa",
        "alphabet": {"name": "A", "elements": ["a"]},
        "states": {"name": "Q", "elements": ["0", "1"]},
        "trans": [["0", "a", "0"], ["0", "a", "1"]],
        "initial": ["0"],
        "final": [],
    }
    with pytest.raises(MachineError, match=r"^nondeterministic transition on \('0', 'a'\)$"):
        io.from_payload(payload)


def test_kind_consistency_for_diagram_terms():
    d = Feedback(Q2, frozenset(), frozenset(), Box(rel(obj(Ab, Q2), obj(Ab, Q2), set())))
    payload = io.to_payload(d)
    assert payload["kind"] == "diagram"
    zd = Feedback(Q2, None, None, Box(rel(obj(Ab, Q2), obj(Ab, Q2), set())))
    assert io.to_payload(zd)["kind"] == "zdiagram"
    broken = dict(io.to_payload(zd), kind="diagram")
    with pytest.raises(MachineError):
        io.from_payload(broken)


def test_words_serialize_as_symbol_arrays():
    greek = Alphabet("greek", ("alpha", "beta"))
    r = rel(obj(greek), obj(greek), {(("alpha",), ("beta",))})
    assert json.loads(io.dumps(r))["pairs"] == [[["alpha"], ["beta"]]]


def test_canonical_ordering_is_alphabet_order():
    # states deliberately not in sorted-string order
    weird = Alphabet("Q", ("z", "a"))
    p = presentation(Ab, weird, {("z", "a", "a"), ("a", "b", "z")})
    payload = io.to_payload(p)
    assert payload["trans"] == [["z", "a", "a"], ["a", "b", "z"]]


def test_dumps_is_canonical_json():
    text = io.dumps(SWAP_REL)
    assert text == io.dumps(io.loads(text))
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


# Strings with quotes, backslashes, control, non-ASCII and astral characters
# (written as surrogate pairs), and the other leaves a payload may hold.
SYMBOLS = st.text(st.sampled_from('a"\\\n\t\x00\x1f\x7f é\u2028\U0001d11e') | st.characters(),
                  max_size=6)
LEAVES = SYMBOLS | st.integers() | st.integers(-2**80, 2**80) | st.booleans() | st.none()
# Rows of symbols, and their near misses; a machine's rows (``io._Rows``)
# are joined one row at a time.
ROWS = (st.lists(st.lists(SYMBOLS, min_size=1, max_size=3) | st.tuples(SYMBOLS, SYMBOLS), max_size=4)
        | st.lists(st.lists(SYMBOLS, max_size=2) | st.tuples(SYMBOLS, LEAVES), max_size=3)
        | st.lists(SYMBOLS | st.lists(SYMBOLS, max_size=2), max_size=4)
        | st.lists(st.lists(SYMBOLS, min_size=1, max_size=3), max_size=4).map(io._Rows))
# Rows of word pairs, and their near misses: a string, a leaf or a third
# word in a pair.  Pairs may share one word object, and a relation's or a
# sample's pairs (``io._Pairs``, tuples of words that are tuples) are
# written a run of equal first words at a time, sorted or not.
WORDS = st.lists(SYMBOLS, max_size=3) | st.tuples(SYMBOLS)
SHARED = st.lists(WORDS, min_size=1, max_size=3).flatmap(
    lambda ws: st.lists(st.tuples(st.sampled_from(ws), st.sampled_from(ws))
                        | st.lists(st.sampled_from(ws), min_size=2, max_size=2), min_size=1, max_size=5))
RUNS = st.lists(st.lists(SYMBOLS, max_size=3).map(tuple), min_size=1, max_size=3).flatmap(
    lambda ws: st.lists(st.tuples(st.sampled_from(ws), st.sampled_from(ws)), max_size=6).map(io._Pairs))
NEAR = st.lists(WORDS | SYMBOLS | st.lists(LEAVES, max_size=2), min_size=1, max_size=3)
PAIRS = SHARED | RUNS | st.lists(st.tuples(WORDS, WORDS) | NEAR, min_size=1, max_size=4)
TREES = st.recursive(
    LEAVES | ROWS | PAIRS,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(SYMBOLS, kids, max_size=4),
    max_leaves=24)


@settings(max_examples=100)
@given(st.dictionaries(SYMBOLS, TREES, max_size=4))
def test_dumps_writes_the_stdlib_bytes(payload):
    assert io.dumps(payload) == canonical_dumps(payload)


def test_a_relation_document_lists_its_sorted_pairs():
    x, y = Alphabet("X", ("0", "1")), Alphabet("Y", ("u", "v", "w"))
    r = rel(obj(x, x), obj(y),
            {((a, b), (c,)) for a in "01" for b in "01" for c in "uvw" if c != "v" or a == b})
    text = io.dumps(r)
    assert json.loads(text)["pairs"] == [[list(p), list(q)] for p, q in r.sorted_pairs()]
    assert text == canonical_dumps(io.to_payload(r)) == seed.pair_list_dumps(r)


def bundles(rng: random.Random, pool: list[Alphabet]) -> Obj:
    """Zero to three wires drawn from ``pool``."""
    return Obj(tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))))


@given(st.integers(0, 2**32).map(random.Random))
def test_pair_documents_match_the_pair_list_writer(rng):
    """Relations (unit wires and no wires among them, so words may be
    empty, and no pairs at all), samples with the empty word, certificates
    and chains are written as the pair list writer wrote them, canonically."""
    pool = [random_alphabet(rng, "A", 3), random_alphabet(rng, "B", 2), UNIT]
    values = [random_rel(rng, bundles(rng, pool), bundles(rng, pool), rng.choice([0, 0.3, 1]))
              for _ in range(3)]
    n, t = random_nfa(rng), random_transducer(rng)
    values += [certificate_for_determinization(n)[1], equiv_chain(n, n)]
    t = Transducer(t.input, t.output, t.states, t.trans, t.initial | t.final, t.final)
    for x in [*values, io.sample_payload(behavior_upto(t, rng.randint(0, 3)))]:
        text = io.dumps(x)
        assert text == seed.pair_list_dumps(x) == canonical_dumps(json.loads(text))


@given(st.integers(0, 2**32).map(random.Random))
def test_machine_documents_keep_their_bytes(rng):
    t, n, p = random_transducer(rng), random_nfa(rng), random_presentation(rng)
    dfa, cert = certificate_for_determinization(n)
    a, w = random_alphabet(rng, "A", 3), random_alphabet(rng, "W", 2)
    body = random_diagram(rng, obj(a, w), obj(a, w), nodes=4, feedbacks=0)
    machines = [a, random_rel(rng, obj(a), obj(a, a)), t, n, dfa, p,
                ztransducer(t.input, t.output, t.states, t.trans),
                random_diagram(rng, obj(a), obj(a), nodes=6), Feedback(w, None, None, body),
                cert, equiv_chain(n, dfa)]
    assert {io.kind_of(x) for x in machines} == set(io.KINDS)
    m1, m2 = nfa_to_transducer(n), nfa_to_transducer(dfa)
    empty = SimCertificate(rel(cert.s.dom, cert.s.cod, set()))
    reports = [check_fin(m1, m2, cert), check_fin(m1, m2, empty)]
    for payload in [*map(io.to_payload, machines), io.sample_payload(behavior_upto(t, 2)),
                    *map(io.report_payload, reports)]:
        assert io.dumps(payload) == canonical_dumps(payload)


def seq_chain(depth: int) -> Seq:
    """A right-nested chain of ``depth`` ``Seq`` nodes over one box."""
    term = Box(SWAP_REL)
    for _ in range(depth):
        term = Seq(Box(SWAP_REL), term)
    return term


def test_deep_terms_and_unencodable_values():
    term = seq_chain(900)
    assert io.dumps(term) == canonical_dumps(io.to_payload(term))
    for dumps in (io.dumps, canonical_dumps):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps({"kind": "nfa", "trans": [["p", {"a", "b"}, "q"]]})


def test_dot_outputs():
    assert "digraph" in to_dot(lift_transducer(SWAP_REL))
    assert "a / b" in to_dot(lift_transducer(SWAP_REL))
    d = Seq(Box(SWAP_REL), Box(SWAP_REL))
    assert to_dot(d).count("seq") == 1
    p = presentation(Ab, Q2, {("q0", "a", "q1")}, root="q0")
    assert "color=red" in to_dot(p)
    with pytest.raises(MachineError):
        to_dot(object())


def test_state_graph_start_markers_are_no_state_names():
    n = nfa(Ab, Alphabet("Q", ("__start0", "p")), {("p", "a", "__start0")}, {"p"}, {"__start0"})
    assert to_dot(n) == (
        'digraph {\n  rankdir=LR;\n  ___start0 [shape=point];\n  "__start0" [shape=doublecircle];\n'
        '  "p" [shape=circle];\n  ___start0 -> "p";\n  "p" -> "__start0" [label="a"];\n}\n')
    n = nfa(Ab, Alphabet("Q", ("__start0", "___start0", "p")), set(), {"p"}, set())
    assert '  ____start0 -> "p";' in to_dot(n)


def test_mixed_feedback_is_refused_before_it_is_written(tmp_path):
    r = rel(obj(Q2), obj(Q2), {(("q0",), ("q1",))})
    mixed = Seq(Feedback(Q2, {"q0"}, {"q0"}, Box(r)), Feedback(Q2, None, None, Box(r)))
    path = tmp_path / "mixed.json"
    for attempt in (io.kind_of, io.dumps, lambda x: io.save_file(path, x)):
        with pytest.raises(MachineError, match="term mixes labelled and unlabelled feedback"):
            attempt(mixed)
    assert not path.exists()
    # a feedback node's label lists are read as sets: null is no unlabelled loop
    doc = io.to_payload(Feedback(Q2, {"q0"}, {"q0"}, Box(r)))
    doc["term"].update(initial=None, final=None)
    with pytest.raises(MachineError, match="field 'initial': expected an array"):
        io.from_payload(doc)


LOOP_BODY = Box(rel(obj(Ab, Q2), obj(Ab, Q2), {(("a", "q0"), ("b", "q1")), (("b", "q1"), ("a", "q0"))}))
WIRES = '{"elements": ["a", "b"], "name": "A"}, {"elements": ["q0", "q1"], "name": "Q"}'
BODY_DOC = ('{"node": "box", "rel": {"cod": [%s], "dom": [%s], '
            '"pairs": [[["a", "q0"], ["b", "q1"]], [["b", "q1"], ["a", "q0"]]]}}' % (WIRES, WIRES))
MACHINE_DOC = ('"input": {"elements": ["a", "b"], "name": "A"}, "output": {"elements": ["a", "b"], '
               '"name": "A"}, "states": {"elements": ["q0", "q1"], "name": "Q"}, '
               '"trans": [["a", "q0", "b", "q1"], ["b", "q1", "a", "q0"]]')
DOT_DOC = 'digraph {\n  node [shape=box];\n  n0 [label="%s"];\n  n1 [label="box 2 pairs"];\n  n0 -> n1;\n}\n'


# A labelled and an unlabelled loop: the document each is written as, its
# DOT rendering and what ``normalize`` prints, JSON given compactly.
@pytest.mark.parametrize("term, doc, dot, normal", [
    (Feedback(Q2, {"q0"}, {"q1"}, LOOP_BODY),
     '{"kind": "diagram", "term": {"body": %s, "final": ["q1"], "initial": ["q0"], "node": "feedback", '
     '"wire": {"elements": ["q0", "q1"], "name": "Q"}}}' % BODY_DOC,
     DOT_DOC % "feedback Q I={q0} F={q1}",
     '{"final": ["q1"], "initial": ["q0"], "kind": "transducer", %s}' % MACHINE_DOC),
    (Feedback(Q2, None, None, LOOP_BODY),
     '{"kind": "zdiagram", "term": {"body": %s, "node": "feedback-z", '
     '"wire": {"elements": ["q0", "q1"], "name": "Q"}}}' % BODY_DOC,
     DOT_DOC % "feedback-z Q",
     '{"kind": "ztransducer", %s}' % MACHINE_DOC),
])
def test_feedback_terms_keep_their_bytes(term, doc, dot, normal, tmp_path, capsys):
    path = tmp_path / "term.json"
    io.save_file(path, term)
    assert path.read_text() == canonical_dumps(json.loads(doc)) and to_dot(term) == dot
    assert main(["normalize", str(path)]) == 0
    assert capsys.readouterr().out == canonical_dumps(json.loads(normal))


def test_kind_of_is_the_tag_a_value_is_written_under():
    from test_cli import fixture_corpus
    for x in fixture_corpus():
        assert io.kind_of(x) == io.to_payload(x)["kind"]
        assert isinstance(x, io.KINDS[io.kind_of(x)].cls)
    d = dfa(Ab, Q2, frozenset(), frozenset(), frozenset())
    assert io.kind_of(d) == "dfa" and io.kind_of(io.loads(io.dumps(d))) == "dfa"
    assert io.kind_of(Par(Box(SWAP_REL), Feedback(Q2, None, None, Box(rel(obj(Q2), obj(Q2), set()))))) == "zdiagram"
    with pytest.raises(MachineError, match="no machine kind"):
        io.kind_of(object())
    with pytest.raises(MachineError, match="unknown kind 'certificate-chain'"):
        io.from_payload({"kind": "certificate-chain"})


def test_dfa_round_trip_keeps_class():
    d = dfa(Ab, Q2, frozenset({("q0", "a", "q1")}), frozenset({"q0"}), frozenset({"q1"}))
    assert isinstance(io.loads(io.dumps(d)), Dfa)


NFA_DOC = {"kind": "nfa", "alphabet": {"name": "A", "elements": ["a"]},
           "states": {"name": "Q", "elements": ["p"]},
           "trans": [["p", "a", "p"]], "initial": ["p"], "final": ["p"]}
ALPHA = {"name": "A", "elements": ["a"]}
ID_TERM = {"node": "id", "obj": [ALPHA]}

# Structurally malformed documents, each with the words its error must name.
MALFORMED_DOCS = [
    ({**NFA_DOC, "trans": [["p", "a"]]}, "nfa document: malformed"),
    ({k: v for k, v in NFA_DOC.items() if k != "final"}, "missing field 'final'"),
    ({"kind": "relation", "dom": [ALPHA], "cod": [ALPHA], "pairs": [[["a"]]]},
     "relation document: malformed"),
    ({"kind": "diagram", "term": {"node": "seq"}}, "missing field 'first'"),
    ([NFA_DOC], "JSON object, not list"),
    ({"kind": "presentation", "alphabet": ALPHA, "states": 3, "trans": []}, "malformed"),
    ({"kind": "alphabet", "name": "A", "elements": 7}, "malformed"),
    ({"kind": "diagram", "term": ["box"]}, "malformed"),
    # a string or an object where an array belongs, which would read as its
    # characters or keys, and a name that is no string
    ({"kind": "alphabet", "name": "A", "elements": "ab"}, "field 'elements': expected an array"),
    ({**NFA_DOC, "initial": "p"}, "field 'initial': expected an array"),
    ({**NFA_DOC, "final": {"p": 1}}, "field 'final': expected an array"),
    ({**NFA_DOC, "trans": ["pap"]}, "field 'trans': expected an array"),
    ({**NFA_DOC, "alphabet": {"name": 5, "elements": ["a"]}}, "alphabet name 5 is not a string"),
    ({"kind": "relation", "dom": [ALPHA], "cod": [ALPHA], "pairs": ["aa"]},
     "field 'pairs': expected an array"),
    ({"kind": "relation", "dom": [ALPHA], "cod": [ALPHA], "pairs": {"a": "a"}},
     "field 'pairs': expected an array"),
    ({"kind": "relation", "dom": ALPHA, "cod": [ALPHA], "pairs": []}, "field 'dom': expected an array"),
    ({"kind": "presentation", "alphabet": ALPHA, "states": {"name": "Q", "elements": ["p"]},
      "trans": ["pap"]}, "field 'trans': expected an array"),
    ({"kind": "diagram", "term": {"node": "feedback", "wire": {"name": "Q", "elements": ["p"]},
                                  "initial": [], "final": "p", "body": ID_TERM}},
     "field 'final': expected an array"),
    # the words of a relation's pairs: a string would read as its letters
    ({"kind": "relation", "dom": [ALPHA], "cod": [ALPHA], "pairs": [["a", "a"]]},
     "field 'pairs': expected pairs of arrays"),
    ({"kind": "relation", "dom": [ALPHA], "cod": [ALPHA], "pairs": [[["a"], {"a": 0}]]},
     "field 'pairs': expected pairs of arrays"),
    ({"kind": "relation", "dom": [ALPHA], "cod": [ALPHA], "pairs": [[["a"], ["a"], ["a"]]]},
     "relation document: malformed"),
    ({"kind": "diagram", "term": {"node": "box", "rel": {"dom": [ALPHA], "cod": [ALPHA],
                                                         "pairs": [["a", "a"]]}}},
     "field 'pairs': expected pairs of arrays"),
]


@pytest.mark.parametrize("doc, words", MALFORMED_DOCS)
def test_malformed_documents_raise_machine_error(doc, words, tmp_path):
    text = json.dumps(doc)
    with pytest.raises(MachineError, match=words):
        io.loads(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(MachineError, match=words):
        load_file(path)


PRESENTATION_DOC = {"kind": "presentation", "alphabet": ALPHA, "states": NFA_DOC["states"]}


@pytest.mark.parametrize("doc", [NFA_DOC, {**NFA_DOC, "kind": "dfa"}, PRESENTATION_DOC])
@pytest.mark.parametrize("rows, offender", [
    ([["p", "a", "p"], ["p", "a"], ["p"]], "('p', 'a')"),
    ([["p", "a", "p", "p"], ["p", "a", "p"]], "('p', 'a', 'p', 'p')"),
    ([["p", "a", "p"], []], "()"),
])
def test_automaton_rows_name_their_first_offender(doc, rows, offender):
    """A row of another length than [q, a, q2] is named as the constructors
    name it, though the rows are read straight into quadruples."""
    with pytest.raises(MachineError) as e:
        io.loads(json.dumps({**doc, "trans": rows}))
    assert str(e.value) == \
        f"{doc['kind']} document: malformed (transition {offender} is not a tuple of 3 symbols)"


@settings(max_examples=20)
@given(st.integers(0, 2**32).map(random.Random))
def test_relation_words_keep_their_bytes(rng):
    a, b = random_alphabet(rng, "A", 3), random_alphabet(rng, "B", 2)
    for r in (random_rel(rng, obj(a), obj(a, b)), random_rel(rng, obj(a, b), obj()),
              rel(obj(a), obj(), set())):
        for x in (r, Box(r)):
            text = io.dumps(x)
            assert io.loads(text) == x and io.dumps(io.loads(text)) == text


def test_invalid_json_raises_machine_error(tmp_path):
    with pytest.raises(MachineError, match="not a JSON document"):
        io.loads('{"kind": ')
    path = tmp_path / "bad.json"
    path.write_text("[1, 2")
    with pytest.raises(MachineError, match="not a JSON document"):
        load_file(path)


def deep_seq_document(depth: int) -> str:
    """A right-nested chain of ``depth`` ``seq`` nodes, written without recursion."""
    head = '{"node": "seq", "first": %s, "second": ' % json.dumps(ID_TERM)
    return '{"kind": "diagram", "term": ' + head * depth + json.dumps(ID_TERM) + "}" * depth + "}"


def test_over_deep_documents_raise_machine_error(tmp_path):
    assert isinstance(io.loads(deep_seq_document(100)), Seq)
    text = deep_seq_document(1500)
    with pytest.raises(MachineError, match="nested too deeply"):
        io.loads(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(MachineError, match="nested too deeply"):
        load_file(path)
    term = ID_TERM
    for _ in range(1500):  # past the decoder: the term parser recurses too
        term = {"node": "seq", "first": ID_TERM, "second": term}
    with pytest.raises(MachineError, match="diagram document: nested too deeply"):
        io.from_payload({"kind": "diagram", "term": term})


def test_over_deep_values_raise_machine_error_and_write_no_file(tmp_path):
    path = tmp_path / "deep.json"
    for write in (io.dumps, lambda x: io.save_file(path, x)):
        with pytest.raises(MachineError, match="diagram value: nested too deeply to write"):
            write(seq_chain(1500))
    assert not path.exists()
    payload = ID_TERM
    for _ in range(1500):  # a payload too deep for the encoder itself
        payload = {"node": "seq", "first": ID_TERM, "second": payload}
    with pytest.raises(MachineError, match="diagram value: nested too deeply to write"):
        io.dumps({"kind": "diagram", "term": payload})


def test_load_tagged_returns_the_document_kind(tmp_path):
    path = tmp_path / "z.json"
    io.save_file(path, Feedback(Q2, None, None, Box(rel(obj(Q2), obj(Q2), {(("q0",), ("q1",))}))))
    kind, x = io.load_tagged(path)
    assert kind == "zdiagram" and x == load_file(path)
