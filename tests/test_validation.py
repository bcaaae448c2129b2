"""Constructor validation: differential tests against the original linear
validator (``seed_validator``), malformed symbols, and value semantics of
the alphabet and bundle types."""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

import seed_validator as seed
from helpers import dfa, rel, trans_rel
from relmach import io
from relmach.automata import nfa
from relmach.cli import main
from relmach.diagram import Box, Feedback, Id, Par, Seq, Swap
from relmach.relcore import UNIT, Alphabet, MachineError, Obj, Rel, ShapeError, is_unit, obj
from relmach.sofic import ZTransducer, presentation, ztransducer
from relmach.transducer import Transducer, transducer

A = Alphabet("A", ("a", "b", "c"))
B = Alphabet("B", ("0", "1"))
Q = Alphabet("Q", ("p", "q", "r"))

# Symbols of every alphabet above, the unit symbol, a foreign string, and
# hashable non-strings of the kinds a JSON file can hold.
SYMBOLS = ["a", "b", "c", "0", "1", "p", "q", "r", "*", "z", "", 1, 0, None, True, False, 0.5]
symbols = st.sampled_from(SYMBOLS)
objs = st.lists(st.sampled_from([A, B, UNIT]), max_size=3).map(lambda ws: Obj(tuple(ws)))


def outcome(fn, *args):
    """What a call did: ``None`` when it returned, else (exception class, message)."""
    try:
        fn(*args)
    except Exception as e:
        return type(e), str(e)
    return None


@st.composite
def tuple_of(draw, o):
    """Mostly a tuple of ``o``'s tuple space; otherwise any short tuple of symbols."""
    if draw(st.integers(0, 4)):
        return tuple(draw(st.sampled_from(w.elements)) for w in o.wires if w != UNIT)
    return tuple(draw(st.lists(symbols, max_size=3)))


@st.composite
def typed_pairs(draw):
    dom, cod = draw(objs), draw(objs)
    pairs = draw(st.lists(st.tuples(tuple_of(dom), tuple_of(cod)), max_size=6))
    return dom, cod, pairs


def symbol_of(a):
    return st.one_of(st.sampled_from(a.elements), symbols)


@settings(max_examples=400)
@given(typed_pairs())
def test_rel_validation_matches_seed(case):
    dom, cod, pairs = case
    got = outcome(Rel, dom, cod, frozenset(pairs))
    assert got == outcome(seed.check_rel, dom, cod, pairs)
    if got is None:
        assert Rel(dom, cod, pairs).pairs == frozenset(pairs)


def test_rel_validation_corner_cases():
    unit_wire, empty = obj(UNIT), Obj(())
    assert rel(unit_wire, empty, {((), ())}).pairs == {((), ())}
    for dom, cod, pairs in [
        (unit_wire, empty, {(("*",), ())}),  # unit wires carry no symbol
        (obj(A, B), empty, {(("a",), ())}),  # too short
        (obj(A), obj(B), {(("a",), ("0",)), (("a",), ("0", "1"))}),  # one too long
        (obj(A, B), obj(B), {(("0", "a"), ("1",))}),  # symbols in swapped columns
        (obj(A), obj(B), {(("a",), ("0",)), ((1,), ("0",))}),  # one foreign symbol
    ]:
        assert outcome(Rel, dom, cod, pairs) == outcome(seed.check_rel, dom, cod, pairs)
        assert outcome(Rel, dom, cod, pairs)[0] is MachineError


@given(symbols, st.frozensets(symbols, max_size=4))
def test_alphabet_lookups_match_seed(s, subset):
    assert (s in A) == (s in A.elements)
    assert outcome(A.index, s) == outcome(seed.index, A, s)
    assert outcome(A.check_subset, subset) == outcome(seed.check_subset, A, subset)
    if outcome(A.check_subset, subset) is None:
        assert A.sort(subset) == sorted(subset, key=A.elements.index)


@settings(max_examples=200)
@given(st.lists(st.tuples(symbol_of(Q), symbol_of(A), symbol_of(Q)), max_size=5),
       st.frozensets(symbol_of(Q), max_size=3), st.frozensets(symbol_of(Q), max_size=3))
def test_nfa_validation_matches_seed(trans, initial, final):
    got = outcome(nfa, A, Q, frozenset(trans), initial, final)
    assert got == outcome(seed.check_nfa, A, Q, trans, initial, final)


@settings(max_examples=200)
@given(st.lists(st.tuples(symbol_of(Q), symbol_of(A), symbol_of(Q)), max_size=5),
       st.one_of(st.none(), symbol_of(Q)))
def test_presentation_validation_matches_seed(trans, root):
    got = outcome(presentation, A, Q, frozenset(trans), root)
    assert got == outcome(seed.check_presentation, A, Q, trans, root)


QUADS = {("a", "p", "0", "q"), ("b", "q", "1", "p")}


@given(st.frozensets(symbol_of(Q), max_size=3), st.frozensets(symbol_of(Q), max_size=3))
def test_transducer_and_feedback_label_sets_match_seed(initial, final):
    want = outcome(seed.check_label_sets, Q, initial, final)
    assert outcome(transducer, A, B, Q, QUADS, initial, final) == want
    assert outcome(Transducer, A, B, Q, QUADS, initial, final) == want
    body = Box(rel(obj(A, Q), obj(B, Q), set()))
    assert outcome(Feedback, Q, initial, final, body) == want


# -- transducer transitions -----------------------------------------------------

@st.composite
def quad_machines(draw):
    """Alphabets (the unit among them), transitions and label sets, now and
    then with one transition of the wrong arity."""
    input, output, states = (draw(st.sampled_from([A, B, Q, UNIT])) for _ in range(3))
    quad = st.tuples(*(symbol_of(a) for a in (input, states, output, states)))
    quads = draw(st.lists(quad, max_size=5))
    if not draw(st.integers(0, 9)):
        quads.append(tuple(draw(st.lists(symbols, min_size=2, max_size=5).filter(lambda t: len(t) != 4))))
    labels = st.frozensets(symbol_of(states), max_size=2)
    return input, output, states, quads, draw(labels), draw(labels)


@settings(max_examples=300)
@given(quad_machines())
def test_transducer_validation_matches_seed(case):
    """Same verdict and exception class as the first version, which encoded
    the transitions as a relation, except on a wrong arity or a unit state
    alphabet."""
    input, output, states, quads, initial, final = case
    for new, old, args in [
        (Transducer, seed.check_transducer, (input, output, states, quads, initial, final)),
        (ZTransducer, seed.check_ztransducer, (input, output, states, quads)),
    ]:
        got, want = outcome(new, *args), outcome(old, *args)
        if any(len(q) != 4 for q in quads):
            # It raised ValueError when unpacking a row, or MachineError first.
            assert want is not None and issubclass(got[0], MachineError)
        elif is_unit(states) and any({q[1], q[3]} != {"*"} for q in quads):
            # Its relation had no state column, so it accepted any state.
            assert got[0] is MachineError
        else:
            assert (got and got[0]) == (want and want[0])
        if got is None:
            t = new(*args)
            assert t.trans == frozenset(quads)
            assert trans_rel(input, output, states, t.trans) == \
                seed.trans_rel(input, output, states, quads)


def test_unit_states_hold_only_the_unit_symbol(tmp_path):
    quad = ("a", "zz", "0", "yy")
    assert outcome(seed.check_transducer, A, B, UNIT, [quad], {"*"}, {"*"}) is None
    with pytest.raises(MachineError, match="symbol 'zz' not in alphabet 'unit'"):
        transducer(A, B, UNIT, {quad}, {"*"}, {"*"})
    with pytest.raises(MachineError, match="symbol 'zz' not in alphabet 'unit'"):
        ztransducer(A, B, UNIT, {quad})
    assert transducer(A, B, UNIT, {("a", "*", "0", "*")}, {"*"}, {"*"}).trans == {("a", "*", "0", "*")}
    doc = {"kind": "transducer", "input": {"name": "A", "elements": ["a"]},
           "output": {"name": "A", "elements": ["a"]},
           "states": {"name": "unit", "elements": ["*"]},
           "trans": [["a", "zz", "a", "yy"]], "initial": ["*"], "final": ["*"]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert main(["behavior", str(path), "--max-len", "1"]) == 2
    assert main(["equiv", str(path), str(path)]) == 2


WRONG_SHAPES = [
    (nfa, seed.check_nfa, (A, Q, [("p", "a")], [], [])),
    (dfa, seed.check_nfa, (A, Q, [("p", "a", "q", "r")], [], [])),
    (presentation, seed.check_presentation, (A, Q, [("p", "a", "p", "p")], None)),
    (transducer, seed.check_transducer, (A, A, Q, [("a", "p", "a")], [], [])),
    (Transducer, seed.check_transducer, (A, B, Q, [("a", "p", "0", "q", "r")], [], [])),
    (ztransducer, seed.check_ztransducer, (A, B, Q, [("a", "p", "0")])),
    (ZTransducer, seed.check_ztransducer, (A, B, Q, [7])),
]


@pytest.mark.parametrize("new, old, args", WRONG_SHAPES, ids=lambda x: getattr(x, "__name__", None))
def test_wrongly_shaped_transitions_raise_machine_error(new, old, args):
    """The first version failed to unpack such a transition."""
    assert outcome(old, *args)[0] in (ValueError, TypeError)
    with pytest.raises(ShapeError, match="is not a tuple of [34] symbols"):
        new(*args)
    assert issubclass(ShapeError, MachineError)


# -- malformed symbols --------------------------------------------------------

MALFORMED = [1, None, True, ["a"]]


@pytest.mark.parametrize("bad", MALFORMED)
def test_malformed_symbols_raise_machine_error(bad):
    body = Box(rel(obj(A, Q), obj(B, Q), set()))
    attempts = [
        lambda: Alphabet("X", ("a", bad)),
        lambda: A.index(bad),
        lambda: A.check_subset(["a", bad]),
        lambda: Rel(obj(A), obj(B), [(("a",), ("0",)), ((bad,), ("0",))]),
        lambda: Rel(obj(A), obj(B), [(("a",), (bad,))]),
        lambda: nfa(A, Q, [("p", bad, "q")], {"p"}, {"q"}),
        lambda: nfa(A, Q, [], [bad], []),
        lambda: presentation(A, Q, [(bad, "a", "q")]),
        lambda: presentation(A, Q, [], 0 if bad is None else bad),  # null means no root
        lambda: transducer(A, B, Q, [("a", "p", bad, "q")], ["p"], ["q"]),
        lambda: transducer(A, B, Q, QUADS, ["p"], [bad]),
        lambda: Feedback(Q, [bad], [], body),
    ]
    for attempt in attempts:
        with pytest.raises(MachineError):
            attempt()
    assert bad not in A


def _nfa_doc(**over):
    doc = {"kind": "nfa", "alphabet": {"name": "A", "elements": ["a"]},
           "states": {"name": "Q", "elements": ["p", "q"]},
           "trans": [["p", "a", "q"]], "initial": ["p"], "final": ["q"]}
    doc.update(over)
    return doc


def _malformed_files(bad):
    """(command, document) pairs, each with ``bad`` in one symbol position."""
    alpha = {"name": "A", "elements": ["a"]}
    wire = {"name": "Q", "elements": ["p"]}
    relation = {"dom": [alpha], "cod": [alpha], "pairs": [[["a"], [bad]]]}
    loop = {"dom": [alpha, wire], "cod": [alpha, wire], "pairs": [[["a", "p"], ["a", "p"]]]}
    presentation = {"kind": "presentation", "alphabet": alpha, "states": wire,
                    "trans": [["p", "a", "p"]]}
    return [
        ("determinize", _nfa_doc(alphabet={"name": "A", "elements": ["a", bad]})),
        ("determinize", _nfa_doc(trans=[["p", bad, "q"]])),
        ("determinize", _nfa_doc(initial=[bad])),
        ("export-dot", {"kind": "relation", **relation}),
        ("normalize", {"kind": "diagram", "term": {"node": "box", "rel": relation}}),
        ("canonical", {**presentation, "trans": [["p", "a", bad]]}),
        ("canonical", {**presentation, "root": 0 if bad is None else bad}),
        ("normalize", {"kind": "diagram", "term": {
            "node": "feedback", "wire": wire, "initial": [bad], "final": ["p"],
            "body": {"node": "box", "rel": loop}}}),
        ("behavior", {"kind": "transducer", "input": alpha, "output": alpha, "states": wire,
                      "trans": [["a", "p", "a", "p"]], "initial": ["p"], "final": [bad]}),
    ]


@pytest.mark.parametrize("bad", MALFORMED)
def test_malformed_symbols_in_files(bad, tmp_path, capsys):
    for i, (command, doc) in enumerate(_malformed_files(bad)):
        text = json.dumps(doc)
        with pytest.raises(MachineError):
            io.loads(text)
        path = tmp_path / f"m{i}.json"
        path.write_text(text)
        extra = ["--max-len", "1"] if command == "behavior" else []
        assert main([command, str(path), *extra]) == 2, (command, doc)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# -- value semantics ----------------------------------------------------------

def test_cached_fields_stay_out_of_equality_hash_and_repr():
    assert Alphabet("A", ["a"]) == Alphabet("A", ("a",))
    assert hash(Alphabet("A", ["a"])) == hash(("A", ("a",)))
    assert repr(Alphabet("A", ["a"])) == "Alphabet(name='A', elements=('a',))"
    assert Alphabet("A", ("a", "b")) != Alphabet("A", ("b", "a"))
    assert Obj([A]) == Obj((A,)) and hash(Obj([A])) == hash(((A,),))
    assert repr(Obj((UNIT,))) == "Obj(wires=(Alphabet(name='unit', elements=('*',)),))"
    assert Obj((UNIT,)) != Obj(()) and Obj((UNIT,)).flat == Obj(()).flat == ()
    assert [f.name for f in fields(Alphabet) if f.compare] == ["name", "elements"]
    assert [f.name for f in fields(Obj) if f.compare] == ["wires"]
    # a term node's type, feedback kinds and children are cached fields too
    box = Box(rel(obj(A), obj(A), {(("a",), ("b",))}))
    loop = Feedback(B, None, None, Id(obj(A, B)))
    assert box.dom is box.rel.dom and loop.dom == loop.cod == obj(A) and loop.feedback == {False}
    assert Seq(box, box) == Seq(box, box) and hash(Seq(box, box)) == hash((box, box))
    assert Par(box, loop) != Par(loop, box)
    assert repr(Swap(A, B)) == f"Swap(a={A!r}, b={B!r})"
    assert repr(loop) == f"Feedback(wire={B!r}, initial=None, final=None, body=Id(o={obj(A, B)!r}))"
    for cls, names in [(Box, ["rel"]), (Id, ["o"]), (Swap, ["a", "b"]), (Seq, ["first", "second"]),
                       (Par, ["left", "right"]), (Feedback, ["wire", "initial", "final", "body"])]:
        assert [f.name for f in fields(cls) if f.compare] == list(cls.__match_args__) == names
        assert [f.name for f in fields(cls) if not f.compare and not f.repr and not f.init] == \
            ["dom", "cod", "feedback", "children"]
