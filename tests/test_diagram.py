import random

import pytest

from conftest import SEED
from helpers import compose, diagrams_equiv, lift_transducer, presentations_equiv, rel, slide, \
    trans_rel, type_of, verify_equiv_certificate
from genrand import (
    alter_one_box,
    merge_boxes,
    merge_feedbacks,
    preserving_mutation,
    random_diagram,
    random_rel,
    rename_feedback,
)
from relmach import io, transducer as transducer_module
from relmach.automata import nfa_equiv
from relmach.diagram import (
    Box,
    Diagram,
    Feedback,
    Id,
    Par,
    Seq,
    Swap,
    _post_order,
    acceptors,
    check_same_type,
    denotation_upto,
    interpret_upto,
    normal_form,
    z_normal_form,
)
from relmach.dot import to_dot
from relmach.relcore import (
    Alphabet,
    MachineError,
    Obj,
    TypeMismatch,
    UNIT,
    UNIT_OBJ,
    identity,
    obj,
)
from relmach.simulation import equiv_chain
from relmach.transducer import behavior_upto, transducer
from seed_algorithms import bend, denotation_upto as seed_denotation_upto, presentation_of_ztransducer

A = Alphabet("A", ("a", "b"))
Aa = Alphabet("A", ("a",))
Q2 = Alphabet("Q", ("q0", "q1"))

SWAP_REL = rel(obj(A), obj(A), {(("a",), ("b",)), (("b",), ("a",))})
PARITY_REL = rel(obj(Aa, Q2), obj(Aa, Q2), {
    (("a", "q0"), ("a", "q1")),
    (("a", "q1"), ("a", "q0")),
})


def parity_feedback():
    return Feedback(Q2, frozenset({"q0"}), frozenset({"q0"}), Box(PARITY_REL))


def test_type_of_basics():
    assert type_of(Box(SWAP_REL)) == (obj(A), obj(A))
    assert type_of(Seq(Box(SWAP_REL), Box(SWAP_REL))) == (obj(A), obj(A))
    s = Swap(A, Aa)
    assert type_of(s) == (obj(A, Aa), obj(Aa, A))
    # an ill-typed term cannot be built
    with pytest.raises(TypeMismatch, match="sequential composition of incompatible terms"):
        Seq(Box(SWAP_REL), Box(PARITY_REL))
    with pytest.raises(TypeMismatch, match="sequential composition of incompatible terms"):
        Seq(Box(SWAP_REL), Box(rel(obj(Q2), obj(Q2), set())))
    with pytest.raises(TypeMismatch, match="feedback wire 'Q' must be the last domain wire"):
        Feedback(Q2, frozenset(), frozenset(), Box(SWAP_REL))
    with pytest.raises(TypeMismatch, match="unit wire"):
        Feedback(UNIT, frozenset(), frozenset(), Box(rel(obj(A, UNIT), obj(A, UNIT), set())))
    # feedback over the whole boundary is legal and closes the term
    assert type_of(Feedback(A, frozenset(), frozenset(), Box(SWAP_REL))) == \
        (Obj(()), Obj(()))


def test_normal_form_of_wrapped_transducer_is_itself():
    nf = normal_form(parity_feedback())
    want = transducer(Aa, Aa, Q2, {("a", "q0", "a", "q1"), ("a", "q1", "a", "q0")},
                      {"q0"}, {"q0"})
    assert nf == want


def test_normal_form_of_box_is_one_state():
    nf = normal_form(Box(SWAP_REL))
    assert len(nf.states) == 1
    assert nf == lift_transducer(SWAP_REL)


def test_normal_form_merges_sequenced_boxes():
    r = SWAP_REL
    s = rel(obj(A), obj(A), {(("a",), ("a",))})
    nf = normal_form(Seq(Box(r), Box(s)))
    assert len(nf.states) == 1
    want = lift_transducer(compose(r, s))
    assert behavior_upto(nf, 3).pairs == behavior_upto(want, 3).pairs
    assert trans_rel(nf.input, nf.output, nf.states, nf.trans).pairs == compose(r, s).pairs


def seq_par_chain(depth: int):
    """A term A → A of ``depth`` nodes over one box, alternately a ``Seq``
    after a box and a ``Par`` beside the identity of the empty bundle."""
    term = Box(SWAP_REL)
    for i in range(depth):
        term = Seq(Box(SWAP_REL), term) if i % 2 else Par(term, Id(UNIT_OBJ))
    return term


def test_terms_are_typed_once_when_built(monkeypatch):
    # the readers of a term's type build no bundle per node
    built = 0
    post_init = Obj.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    for depth in (100, 400):
        term = seq_par_chain(depth)
        with monkeypatch.context() as m:
            m.setattr(Obj, "__post_init__", counting)
            built = 0
            normal_form(term)
            acceptors(term, term)
            check_same_type(term, term)
            assert io.kind_of(term) == "diagram"
            assert built <= 20


def recursive_post_order(d, order=None) -> list:
    """The distinct node objects of ``d``, each after its children, by recursion."""
    order = {} if order is None else order
    if id(d) not in order:
        for c in d.children:
            recursive_post_order(c, order)
        order[id(d)] = d
    return list(order.values())


def test_post_order_is_the_recursive_one():
    """Leaves are recorded without a stack entry, in the same place; terms
    that hold one subterm object several times list it once."""
    rng = random.Random(SEED + 47)
    a = Alphabet("A", ("a", "b"))
    for _ in range(40):
        t = random_diagram(rng, obj(a), obj(a), nodes=rng.randint(1, 9))
        for term in (t, Seq(t, t), Par(Seq(t, Box(SWAP_REL)), t), Feedback(a, None, None, Par(t, t))):
            assert [id(n) for n in _post_order(term)] == [id(n) for n in recursive_post_order(term)]


def test_deep_terms_are_typed_without_recursion():
    term = Box(SWAP_REL)
    for _ in range(5000):
        term = Seq(Box(SWAP_REL), term)
    assert term.dom == obj(A) and term.cod == obj(A) and term.feedback == frozenset()
    assert io.kind_of(term) == "diagram"
    check_same_type(term, term)
    # and normalizes, decides, converts to a payload and renders
    assert len(normal_form(term).trans) == 2
    assert nfa_equiv(*acceptors(term, term))
    payload = io.to_payload(term)["term"]
    for _ in range(5000):
        payload = payload["second"]
    assert payload["node"] == "box"
    dot = to_dot(term)
    assert dot.count(" [label=") == 10001 and dot.endswith("  n0 -> n2;\n}\n")


def test_diagram_dot_bytes():
    # nodes numbered in pre-order, each edge after the lines of its child's subtree
    term = Seq(Par(Box(SWAP_REL), Id(obj(Aa))),
               Feedback(Q2, {"q0"}, {"q1"}, Par(Id(obj(A)), Box(PARITY_REL))))
    assert to_dot(term) == """digraph {
  node [shape=box];
  n0 [label="seq"];
  n1 [label="par"];
  n2 [label="box 2 pairs"];
  n1 -> n2;
  n3 [label="id A"];
  n1 -> n3;
  n0 -> n1;
  n4 [label="feedback Q I={q0} F={q1}"];
  n5 [label="par"];
  n6 [label="id A"];
  n5 -> n6;
  n7 [label="box 2 pairs"];
  n5 -> n7;
  n4 -> n5;
  n0 -> n4;
}
"""


def test_shared_subterms_read_as_fresh_copies():
    # one node object twice under a Par, and that Par twice under a Seq
    loop = parity_feedback()
    both = Par(loop, loop)
    shared = Seq(both, both)
    fresh = Seq(Par(parity_feedback(), parity_feedback()), Par(parity_feedback(), parity_feedback()))
    assert shared == fresh
    assert io.dumps(normal_form(shared)) == io.dumps(normal_form(fresh))
    assert io.dumps(shared) == io.dumps(fresh) and to_dot(shared) == to_dot(fresh)
    assert nfa_equiv(*acceptors(shared, fresh))


def test_normal_forms_and_acceptors_validate_no_rows(monkeypatch):
    # their machines are valid by construction, so no row is checked again
    calls = 0
    check_rows = transducer_module.check_rows

    def counting(rows, columns):
        nonlocal calls
        calls += 1
        return check_rows(rows, columns)

    # every machine's rows are checked by transducer.Machine
    monkeypatch.setattr(transducer_module, "check_rows", counting)
    term = parity_feedback()
    for _ in range(4):
        swaps = Seq(Swap(Aa, Q2), Swap(Q2, Aa))
        term = Feedback(Q2, frozenset({"q1"}), frozenset({"q0", "q1"}),
                        Seq(Seq(Par(term, Id(obj(Q2))), swaps), Box(PARITY_REL)))
    loop = Feedback(Q2, None, None, Box(PARITY_REL))
    for make in (lambda: normal_form(term), lambda: acceptors(term, parity_feedback()),
                 lambda: z_normal_form(loop), lambda: acceptors(loop, loop, bi_infinite=True)):
        make()
    assert calls == 0
    # a public constructor still checks its rows
    transducer(Aa, Aa, Q2, {("a", "q0", "a", "q1")}, {"q0"}, {"q1"})
    assert calls == 1


def test_inner_bundles_are_never_packed():
    # X×Y would pack (p,q)·r and p·(q,r) to one name, "(p,q,r)"; only the
    # boundary of the term is packed, so the inner bundle needs no names
    X = Alphabet("X", ("p,q", "p"))
    Y = Alphabet("Y", ("r", "q,r"))
    split = Box(rel(obj(A), obj(X, Y), {(("a",), ("p,q", "r")), (("b",), ("p", "q,r"))}))
    join = Box(rel(obj(X, Y), obj(A), {(("p,q", "r"), ("a",))}))
    got = interpret_upto(Seq(split, join), 2)  # raises if the two routes disagree
    assert got.pairs == {((), ()), (("a",), ("a",)), (("a", "a"), ("a", "a"))}


def test_denotation_refuses_unlabelled_feedback():
    loop = Feedback(Q2, None, None, Box(PARITY_REL))
    with pytest.raises(TypeMismatch) as e:
        denotation_upto(loop, 1)
    assert str(e.value) == "unlabelled feedback belongs to the bi-infinite language"


def test_interpret_box_swap():
    got = interpret_upto(Box(SWAP_REL), 1)
    assert got.pairs == frozenset({((), ()), (("a",), ("b",)), (("b",), ("a",))})


def test_interpret_feedback_parity():
    got = interpret_upto(parity_feedback(), 4)
    aa = ("a", "a")
    assert got.pairs == frozenset({((), ()), (aa, aa), (aa + aa, aa + aa)})


def test_interpret_identity():
    got = interpret_upto(Id(obj(A)), 2)
    assert (("a", "b"), ("a", "b")) in got.pairs
    assert len([w for w, _ in got.pairs if len(w) == 2]) == 4


def test_interpret_routes_agree_on_random_terms():
    rng = random.Random(SEED + 51)
    for _ in range(40):
        wire = Alphabet("IO", ("a", "b"))
        d = random_diagram(rng, obj(wire), obj(wire), nodes=6, feedbacks=2)
        interpret_upto(d, 5)  # raises if the two routes disagree


def test_multiwire_par_and_packing():
    left = Box(SWAP_REL)
    right = Box(rel(obj(Aa), obj(Aa), {(("a",), ("a",))}))
    d = Par(left, right)
    nf = normal_form(d)
    assert nf.input.elements == ("(a,a)", "(b,a)")
    sample = interpret_upto(d, 2)
    assert (("(a,a)",), ("(b,a)",)) in sample.pairs


def test_diagrams_equiv_reflexive_with_certificate():
    d = parity_feedback()
    eq, cert = diagrams_equiv(d, d)
    assert eq
    assert verify_equiv_certificate(cert)


def test_diagrams_equiv_on_two_aplus_machines():
    # two different acceptor-shaped terms recognizing a+ over the unit output
    Q = Alphabet("Q", ("0", "1"))
    t1 = rel(obj(Aa, Q), obj(Q), {(("a", "0"), ("0",)), (("a", "0"), ("1",)),
                                  (("a", "1"), ("1",))})
    d1 = Feedback(Q, frozenset({"0"}), frozenset({"1"}), Box(t1))
    P = Alphabet("P", ("x", "y"))
    t2 = rel(obj(Aa, P), obj(P), {(("a", "x"), ("y",)), (("a", "y"), ("y",))})
    d2 = Feedback(P, frozenset({"x"}), frozenset({"y"}), Box(t2))
    eq, cert = diagrams_equiv(d1, d2)
    assert eq and verify_equiv_certificate(cert)


def test_diagrams_equiv_distinguishes_boxes():
    r = SWAP_REL
    s = rel(obj(A), obj(A), {(("a",), ("b",))})
    eq, cert = diagrams_equiv(Box(r), Box(s))
    assert not eq and cert is None


def test_equiv_chain_needs_one_language():
    s = rel(obj(A), obj(A), {(("a",), ("b",))})
    with pytest.raises(MachineError, match="accept different words"):
        equiv_chain(*acceptors(Box(SWAP_REL), Box(s)))


def test_diagrams_equiv_type_mismatch():
    with pytest.raises(TypeMismatch):
        diagrams_equiv(Box(SWAP_REL), Box(PARITY_REL))


def test_bend_gives_unit_output():
    nf = normal_form(bend(parity_feedback()))
    assert len(nf.output) == 1
    assert nf.input.elements == ("(a,a)",)


def test_slide_identity_relation():
    ident = identity(obj(Q2))
    before, after = slide(ident, Box(PARITY_REL), {"q0"}, {"q0"})
    eq, _ = diagrams_equiv(before, after)
    assert eq
    eq2, _ = diagrams_equiv(before, parity_feedback())
    assert eq2


def test_slide_bijection_renames_states():
    P = Alphabet("P", ("p0", "p1"))
    bij = rel(obj(P), obj(Q2), {(("p0",), ("q0",)), (("p1",), ("q1",))})
    body = Box(rel(obj(Aa, Q2), obj(Aa, P), {
        (("a", "q0"), ("a", "p1")),
        (("a", "q1"), ("a", "p0")),
    }))
    before, after = slide(bij, body, {"p0"}, {"q0"})
    eq, _ = diagrams_equiv(before, after)
    assert eq
    eq2, _ = diagrams_equiv(before, parity_feedback())
    assert eq2


def test_slide_collapse_of_equivalent_states():
    # two behaviorally identical states collapsed onto one
    One = Alphabet("C", ("c",))
    collapse = rel(obj(Q2), obj(One), {(("q0",), ("c",)), (("q1",), ("c",))})
    body = Box(rel(obj(A, One), obj(A, Q2), {
        (("a", "c"), ("a", "q0")), (("a", "c"), ("a", "q1")),
        (("b", "c"), ("b", "q0")), (("b", "c"), ("b", "q1")),
    }))
    before, after = slide(collapse, body, {"q0", "q1"}, {"c"})
    eq, _ = diagrams_equiv(before, after)
    assert eq


def test_slide_random_instances():
    rng = random.Random(SEED + 52)
    for _ in range(25):
        C = Alphabet("C", tuple(f"c{i}" for i in range(rng.randint(1, 2))))
        D = Alphabet("D", tuple(f"d{i}" for i in range(rng.randint(1, 2))))
        io_wire = Alphabet("IO", ("a", "b"))
        s = random_rel(rng, obj(D), obj(C), density=0.5)
        body = Box(random_rel(rng, obj(io_wire, C), obj(io_wire, D), density=0.4))
        i = frozenset(x for x in D.elements if rng.random() < 0.7)
        f = frozenset(x for x in C.elements if rng.random() < 0.7)
        before, after = slide(s, body, i, f, side=rng.choice(("left", "right")))
        eq, _ = diagrams_equiv(before, after)
        assert eq


def test_mutations_preserve_equivalence():
    rng = random.Random(SEED + 53)
    wire = Alphabet("IO", ("a", "b"))
    for _ in range(25):
        d = random_diagram(rng, obj(wire), obj(wire), nodes=6, feedbacks=2)
        for mutate in (merge_boxes, merge_feedbacks, lambda t: rename_feedback(rng, t)):
            m = mutate(d)
            if m is None:
                continue
            eq, _ = diagrams_equiv(d, m)
            assert eq, f"mutation {mutate} broke equivalence"


def test_preserving_mutation_always_applies():
    rng = random.Random(SEED + 54)
    wire = Alphabet("IO", ("a", "b"))
    for _ in range(10):
        d = random_diagram(rng, obj(wire), obj(wire), nodes=5, feedbacks=1)
        m = preserving_mutation(rng, d)
        eq, _ = diagrams_equiv(d, m)
        assert eq


def test_equiv_agrees_with_bounded_interpretation():
    # at this scale the exact decision and the length-6 samples coincide
    rng = random.Random(SEED + 55)
    wire = Alphabet("IO", ("a", "b"))
    for _ in range(30):
        d1 = random_diagram(rng, obj(wire), obj(wire), nodes=5, feedbacks=1)
        d2 = alter_one_box(rng, d1) or d1
        eq, _ = diagrams_equiv(d1, d2)
        same_sample = interpret_upto(d1, 6).pairs == interpret_upto(d2, 6).pairs
        assert eq == same_sample


def test_z_normal_form_of_wrapped_machine():
    zd = Feedback(Q2, None, None, Box(PARITY_REL))
    z = z_normal_form(zd)
    assert z.states == Q2
    assert trans_rel(z.input, z.output, z.states, z.trans).pairs == PARITY_REL.pairs
    with pytest.raises(TypeMismatch):
        z_normal_form(parity_feedback())
    with pytest.raises(TypeMismatch):
        normal_form(zd)


def z_diagrams_equiv(d1, d2):
    return nfa_equiv(*acceptors(d1, d2, bi_infinite=True))


def test_z_diagrams_equiv_golden_mean():
    # two presentations of the same subshift as unit-output terms
    Q = Alphabet("Q", ("0", "1"))
    gm1 = rel(obj(A, Q), obj(Q), {
        (("a", "0"), ("0",)), (("b", "0"), ("1",)), (("a", "1"), ("0",)),
    })
    P = Alphabet("P", ("x", "y", "z"))
    gm2 = rel(obj(A, P), obj(P), {
        (("a", "x"), ("x",)), (("b", "x"), ("y",)), (("a", "y"), ("x",)),
        (("a", "x"), ("z",)), (("a", "z"), ("x",)), (("a", "z"), ("z",)),
        (("b", "z"), ("y",)),
    })
    d1 = Feedback(Q, None, None, Box(gm1))
    d2 = Feedback(P, None, None, Box(gm2))
    assert z_diagrams_equiv(d1, d2)


def test_z_diagrams_equiv_empty_cases():
    Q = Alphabet("Q", ("0", "1"))
    acyclic = rel(obj(A, Q), obj(Q), {(("a", "0"), ("1",))})
    d1 = Feedback(Q, None, None, Box(acyclic))
    d2 = Box(rel(obj(A), UNIT_OBJ, set()))
    assert z_diagrams_equiv(d1, d2)
    full = Box(rel(obj(A), UNIT_OBJ, {(("a",), ()), (("b",), ())}))
    assert not z_diagrams_equiv(d1, full)


def test_z_normal_form_behavior_matches_presentation():
    rng = random.Random(SEED + 56)
    wire = Alphabet("IO", ("a", "b"))
    for _ in range(15):
        d = random_diagram(rng, obj(wire), obj(wire), nodes=4, feedbacks=1)
        # reuse the same term shape with unlabelled feedback
        def relabel(t):
            match t:
                case Feedback(wire=w, body=b):
                    return Feedback(w, None, None, relabel(b))
                case Seq(first=f, second=s):
                    return Seq(relabel(f), relabel(s))
                case Par(left=l, right=r):
                    return Par(relabel(l), relabel(r))
                case _:
                    return t
        zd = relabel(d)
        z = z_normal_form(zd)
        p = presentation_of_ztransducer(z)
        assert presentations_equiv(p, p)


def test_universality_round_trip():
    """Equivalence of wrapped machines coincides with acceptor equivalence."""
    from relmach.automata import nfa_equiv
    from seed_algorithms import to_automaton, transducer_to_nfa

    rng = random.Random(SEED + 57)
    from genrand import random_transducer

    inp = Alphabet("A", ("a", "b"))
    out = Alphabet("B", ("x",))
    for _ in range(20):
        t1 = random_transducer(rng, input=inp, output=out)
        t2 = random_transducer(rng, input=inp, output=out)
        d1 = Feedback(t1.states, t1.initial, t1.final,
                      Box(trans_rel(t1.input, t1.output, t1.states, t1.trans)))
        d2 = Feedback(t2.states, t2.initial, t2.final,
                      Box(trans_rel(t2.input, t2.output, t2.states, t2.trans)))
        want = nfa_equiv(transducer_to_nfa(to_automaton(t1)),
                         transducer_to_nfa(to_automaton(t2)))
        eq, _ = diagrams_equiv(d1, d2)
        assert eq == want


def test_denotation_of_unit_boundary_feedback():
    # a closed loop counts accepted lengths
    W = Alphabet("W", ("s0", "s1"))
    step = rel(obj(W), obj(W), {(("s0",), ("s1",)), (("s1",), ("s0",))})
    d = Feedback(W, frozenset({"s0"}), frozenset({"s0"}), Box(step))
    got = interpret_upto(d, 4)
    lengths = {len(w) for w, _ in got.pairs}
    assert lengths == {0, 2, 4}
    assert denotation_upto(d, 4).pairs == got.pairs


IO = Alphabet("IO", ("a", "b"))
W = Alphabet("W", ("s0", "s1"))
FLIP = rel(obj(W), obj(W), {(("s0",), ("s1",)), (("s1",), ("s0",))})
TO_B = rel(obj(IO), obj(IO), {(("a",), ("b",)), (("b",), ("b",))})


def nested_loops(outer: tuple, inner: tuple, inner_body: Diagram) -> Seq:
    """A loop over W, labelled ``outer``, around a loop over W, labelled
    ``inner``, around ``inner_body``, then the box ``TO_B``."""
    loop = Feedback(W, frozenset(inner[0]), frozenset(inner[1]), inner_body)
    return Seq(Feedback(W, frozenset(outer[0]), frozenset(outer[1]), loop), Box(TO_B))


def same_samples(d: Diagram, n: int) -> None:
    """The term's samples up to each length ≤ n agree on three routes: the
    evaluator, the former one and the normal form's runs."""
    for k in range(n + 1):
        got = denotation_upto(d, k)
        assert got == seed_denotation_upto(d, k) == behavior_upto(normal_form(d), k)


def test_two_nested_loops_at_length_8():
    # the outer loop has no initial label, so nothing is related; the
    # former evaluator built all 8^k word pairs of the inner body at each
    # length k before it filtered them
    d = nested_loops(((), ("s0", "s1")), (("s1",), ("s0",)), Id(obj(IO, W, W)))
    assert denotation_upto(d, 8) == behavior_upto(normal_form(d), 8)
    # with both loops' labels met, the term relates each word to b...b
    d = nested_loops((("s0",), ("s0", "s1")), (("s1",), ("s1",)), Id(obj(IO, W, W)))
    got = denotation_upto(d, 8)
    assert got == behavior_upto(normal_form(d), 8)
    assert len(got.pairs) == 2**9 - 1


def test_nested_loop_with_disjoint_labels_relates_no_empty_words():
    # the inner loop flips its fed-back letter, s1 first: it relates the odd
    # lengths, and at length 0 none, as its labels do not meet
    d = nested_loops((("s0",), ("s0",)), (("s1",), ("s0",)), Par(Id(obj(IO, W)), Box(FLIP)))
    assert {len(w) for w, _ in denotation_upto(d, 6).pairs} == {1, 3, 5}
    same_samples(d, 5)


# Over IO × W × W: the output tells the middle letter p, the next middle
# letter is the last letter q, flipped on input b, and the next last is p.
REGISTER = rel(obj(IO, W, W), obj(IO, W, W), {
    ((x, p, q), ("a" if p == "s0" else "b", q if x == "a" else flip, p))
    for x in IO.elements for p in W.elements for q, flip in zip(W.elements, W.elements[::-1])})


def test_loop_around_a_looped_body_at_lengths_0_to_4():
    # the outer loop's fed-back words are checked pair by pair: its first
    # input letter initial, each next one the output letter before, and the
    # last output letter final; at length 0, a label both initial and final
    inner = Feedback(W, frozenset({"s0"}), frozenset({"s0"}), Box(REGISTER))
    for initial, final in (({"s0"}, {"s1"}), ({"s1"}, {"s0", "s1"})):
        d = Feedback(W, frozenset(initial), frozenset(final), inner)
        same_samples(d, 4)
        pairs = denotation_upto(d, 4).pairs
        assert (((), ()) in pairs) == bool(initial & final)
        assert {len(w) for w, _ in pairs} >= {2, 3, 4}


def test_denotation_of_a_term_that_holds_one_subterm_twice():
    loop = Feedback(W, frozenset({"s1"}), frozenset({"s0", "s1"}), Par(Id(obj(IO)), Box(FLIP)))
    box = Box(TO_B)
    for d in (Par(loop, loop), Seq(loop, loop), Seq(Par(box, loop), Par(loop, box)),
              Par(box, box), Feedback(W, frozenset({"s0"}), frozenset({"s1"}),
                                      Seq(Par(loop, Box(FLIP)), Par(loop, Box(FLIP))))):
        same_samples(d, 6)
