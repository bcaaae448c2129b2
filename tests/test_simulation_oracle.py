"""The simulation checker, tested differentially against the one that composed
validated relations (``seed_algorithms.check_fin``/``check_inf``): on every
input both return the same report (verdict, failed condition, witness) or
raise the same error.  The one exception is a pair of machines where one
alphabet is the unit and the other a one-element namesake of it: the
oracle composes relations of two shapes there, so it checks machine 2 over
machine 1's alphabets, as the checker reads both.

Its bitmask transition check is tested against the tuple sets it replaced
(``check_fin_by_tuples``/``check_inf_by_tuples``), with no exception: on
certificates that pass, and on the same with one pair dropped or added
where the initial and final conditions cannot see it."""

from hypothesis import given, settings, strategies as st

import seed_algorithms as seed
from helpers import dfa, triples
from relmach.automata import determinize, minimize, nfa
from relmach.relcore import UNIT, Alphabet, MachineError, Rel, identity, is_unit, material, obj
from relmach.simulation import MODES, TWO_SIDED, SimCertificate, SimReport, check_fin, check_inf
from relmach.sofic import determinize_presentation, minimize_presentation, presentation, prune, \
    ztransducer
from relmach.transducer import Transducer, transducer
from seed_algorithms import nfa_to_transducer, presentation_of_ztransducer

KINDS = ("transducer", "nfa", "presentation", "ztransducer")


def outcome(check, m1, m2, cert):
    try:
        return check(m1, m2, cert)
    except MachineError as e:
        return type(e)


def namesakes(a: Alphabet, b: Alphabet) -> bool:
    """Whether one alphabet is the unit and the other a namesake of it: an
    alphabet over the unit's one element that is not the unit."""
    return a.elements == b.elements and is_unit(a) != is_unit(b)


def over_alphabets_of(m1, m2):
    """``m2`` over ``m1``'s alphabets, where the two differ only in that one
    of a pair is the unit and the other a namesake of it; else None."""
    if isinstance(m1, Transducer):
        pairs = ((m1.input, m2.input), (m1.output, m2.output))
        if all(a.elements == b.elements for a, b in pairs) and any(namesakes(*p) for p in pairs):
            return transducer(m1.input, m1.output, m2.states, m2.trans, m2.initial, m2.final)
    elif namesakes(m1.alphabet, m2.alphabet):
        return presentation(m1.alphabet, m2.states, triples(m2))
    return None


def compare(kind, m1, m2, cert):
    """The outcome of checking ``cert`` on machines of ``kind``; both
    checkers must give it.  Where one machine's alphabet is the unit and the
    other's a namesake of it, the checker reads both machines' letters by
    machine 1's alphabets, so the oracle checks ``m2`` over those."""
    if kind in ("presentation", "ztransducer"):
        check, oracle = check_inf, seed.check_inf
    else:
        check, oracle = check_fin, seed.check_fin
        if kind == "nfa":
            m1, m2 = nfa_to_transducer(m1), nfa_to_transducer(m2)
    got = outcome(check, m1, m2, cert)
    assert got == outcome(oracle, m1, over_alphabets_of(m1, m2) or m2, cert)
    return got


def test_a_unit_alphabet_and_its_namesake_are_read_alike():
    """One-state machines with a ``*`` loop, over the unit and over a
    one-element namesake of it, simulate each other by the identity."""
    U = Alphabet("U", ("*",))
    Q = Alphabet("Q", ("p",))
    ident = SimCertificate(Rel(obj(Q), obj(Q), {(("p",), ("p",))}))
    loops = [nfa(a, Q, {("p", "*", "p")}, {"p"}, {"p"}) for a in (UNIT, U)]
    cycles = [presentation(a, Q, {("p", "*", "p")}) for a in (UNIT, U)]
    quads = [transducer(UNIT, b, Q, {("*", "p", "*", "p")}, {"p"}, {"p"}) for b in (UNIT, U)]
    for kind, (m, n) in (("nfa", loops), ("presentation", cycles), ("transducer", quads)):
        for m1, m2 in ((m, n), (n, m)):
            assert compare(kind, m1, m2, ident) == SimReport("pass")


@st.composite
def letters(draw):
    """The elements of a letter alphabet; ("*",) is the unit's."""
    return draw(st.sampled_from([("a",), ("a", "b"), ("*",)]))


@st.composite
def alphabet_over(draw, elements, name):
    """An alphabet over ``elements``: over ("*",) the unit or a namesake of
    it that is not the unit, so each side of a pair is unit or not alone."""
    if elements == ("*",) and draw(st.booleans()):
        return UNIT
    return Alphabet(name, elements)


@st.composite
def state_alphabets(draw):
    """0–3 states, named "Q" or "unit", or the unit alphabet itself."""
    if draw(st.integers(0, 4)) == 0:
        return UNIT
    return Alphabet(draw(st.sampled_from(["Q", "unit"])), ("p", "q", "r")[:draw(st.integers(0, 3))])


def subset(draw, items, max_size=None):
    items = sorted(items)
    if not items:
        return set()
    return set(draw(st.lists(st.sampled_from(items), max_size=max_size)))


@st.composite
def machines(draw, kind, inp, out):
    """A machine of ``kind`` over letters ``inp`` (and ``out`` for quads)."""
    states = draw(state_alphabets())
    q = states.elements
    if kind in ("transducer", "ztransducer"):
        a, b = draw(alphabet_over(inp, "A")), draw(alphabet_over(out, "B"))
        quads = subset(draw, {(x, p, y, p2) for x in a.elements for p in q
                              for y in b.elements for p2 in q}, 12)
        if kind == "ztransducer":
            return presentation_of_ztransducer(ztransducer(a, b, states, quads))
        return transducer(a, b, states, quads, subset(draw, q), subset(draw, q))
    a = draw(alphabet_over(inp, "A"))
    trans = subset(draw, {(p, x, p2) for p in q for x in a.elements for p2 in q}, 12)
    if kind == "nfa":
        return nfa(a, states, trans, subset(draw, q), subset(draw, q))
    return presentation(a, states, trans)


def random_certificate(draw, m1, m2) -> Rel:
    """A relation states2 → states1, at times with a unit wire on the
    domain, or mistyped over the unit state alphabet itself."""
    dom, cod = (obj(material(m.states)) for m in (m2, m1))
    if draw(st.integers(0, 5)) == 0:
        dom = obj(UNIT, material(m2.states))
    if draw(st.integers(0, 9)) == 0:
        dom, cod = obj(m2.states), obj(m1.states)
    return Rel(dom, cod, subset(draw, {(x, y) for x in dom.tuples() for y in cod.tuples()}))


def constructed(kind, m):
    """Machine pairs with certificates that pass: ``m`` with itself and the
    identity, and the pairs of determinize and minimize with theirs."""
    pairs = [(m, m, identity(obj(material(m.states))))]
    if kind == "nfa":
        dfa, contains = determinize(m)
        mdfa, follow = minimize(dfa)
        pairs += [(m, dfa, contains), (mdfa, dfa, follow)]
    if kind == "presentation" and not prune(m).is_empty():
        p = prune(m)
        det, cert = determinize_presentation(p)
        minp, cert2 = minimize_presentation(det)
        pairs += [(p, det, cert.s), (minp, det, cert2.s)]
    return pairs


def mutated(draw, s: Rel) -> Rel:
    """``s``, or ``s`` with one pair removed or one pair added."""
    pairs = set(s.pairs)
    choice = draw(st.sampled_from(["keep", "remove", "add"]))
    if choice == "remove" and pairs:
        pairs.remove(draw(st.sampled_from(sorted(pairs))))
    if choice == "add":
        space = {(x, y) for x in s.dom.tuples() for y in s.cod.tuples()} - pairs
        if space:
            pairs.add(draw(st.sampled_from(sorted(space))))
    return Rel(s.dom, s.cod, pairs)


@settings(max_examples=300)
@given(st.data())
def test_reports_match_the_composed_relation_checker(data):
    draw = data.draw
    kind = draw(st.sampled_from(KINDS))
    inp, out = draw(letters()), draw(letters())
    m1 = draw(machines(kind, inp, out))
    if draw(st.integers(0, 9)) == 0:  # letters that may differ from machine 1's
        inp, out = draw(letters()), draw(letters())
    m2 = draw(machines(kind, inp, out))
    mode = draw(st.sampled_from(MODES))
    compare(kind, m1, m2, SimCertificate(random_certificate(draw, m1, m2), mode))
    for c1, c2, s in constructed(kind, m1):
        assert compare(kind, c1, c2, SimCertificate(s)) == SimReport("pass")
        compare(kind, c1, c2, SimCertificate(mutated(draw, s), mode))


def test_certificates_of_constructions_pass_both_checkers():
    n = nfa(Alphabet("A", ("a", "b")), Alphabet("Q", ("0", "1", "2")),
            {("0", "a", "0"), ("0", "b", "0"), ("0", "a", "1"), ("1", "a", "2"), ("1", "b", "2")},
            {"0"}, {"2"})
    for c1, c2, s in constructed("nfa", n):
        assert compare("nfa", c1, c2, SimCertificate(s)) == SimReport("pass")
    d = dfa(UNIT, Alphabet("Q", ("x", "y")), frozenset({("x", "*", "y"), ("y", "*", "x")}),
            frozenset({"x"}), frozenset({"x", "y"}))
    for c1, c2, s in constructed("nfa", d):
        assert compare("nfa", c1, c2, SimCertificate(s)) == SimReport("pass")


def test_unit_letters_give_no_witness_component():
    """Over the unit alphabet the letter is no component of a witness."""
    p = presentation(UNIT, Alphabet("Q", ("p", "q")), {("p", "*", "q"), ("q", "*", "p")})
    cert = SimCertificate(Rel(obj(p.states), obj(p.states), {(("p",), ("p",))}), TWO_SIDED)
    report = compare("presentation", p, p, cert)
    assert report == SimReport("fail", "transition", (("p",), ("q",)))


# The bitmask transition check against the tuple sets it replaced
# (``seed.check_fin_by_tuples``, ``seed.check_inf_by_tuples``).


def breakers(draw, m1, m2, s: Rel) -> list[Rel]:
    """``s`` with one pair dropped and ``s`` with one pair added, each pair
    relating a state of machine 2 that is not initial to one of machine 1
    that is not final: the initial and final conditions read as for ``s``,
    the transition condition may break."""
    init2, final1 = m2.initial or frozenset(), m1.final or frozenset()
    space = sorted((x, y) for x in s.dom.tuples() for y in s.cod.tuples()
                   if x[0] not in init2 and y[0] not in final1)
    out = []
    for side in (sorted(s.pairs.intersection(space)), sorted(set(space) - s.pairs)):
        if side:
            out.append(Rel(s.dom, s.cod, s.pairs ^ {draw(st.sampled_from(side))}))
    return out


def same_report(m1, m2, s: Rel) -> list:
    """The reports of the bitmask check and the tuple-set check of ``s``
    in every mode, which must be equal."""
    if m1.initial is None:
        check, oracle = check_inf, seed.check_inf_by_tuples
    else:
        check, oracle = check_fin, seed.check_fin_by_tuples
    reports = []
    for mode in MODES:
        cert = SimCertificate(s, mode)
        got = outcome(check, m1, m2, cert)
        assert got == outcome(oracle, m1, m2, cert)
        reports.append(got)
    return reports


@st.composite
def certified_pairs(draw):
    """Machine pairs of every kind with a certificate that passes: ``m``
    with itself, the constructions of ``constructed``, a ztransducer and its
    presentation over the same packed alphabet (both ways), and a machine
    over the unit and its namesake twin over a one-element alphabet."""
    kind = draw(st.sampled_from(("transducer", "nfa", "presentation", "ztransducer")))
    inp, out = draw(letters()), draw(letters())
    if kind == "ztransducer":
        m = draw(machines("transducer", inp, out))
        z = ztransducer(m.input, m.output, material(m.states), m.trans)
        p = presentation_of_ztransducer(z)
        ident = identity(obj(z.states))
        return [(z, z, ident), (z, p, ident), (p, z, ident)]
    m = draw(machines(kind, inp, out))
    pairs = constructed(kind, m)
    if kind == "nfa" and is_unit(m.alphabet):
        twin = nfa(Alphabet("U", ("*",)), m.states, triples(m), m.initial, m.final)
        ident = identity(obj(material(m.states)))
        pairs += [(m, twin, ident), (twin, m, ident)]
    return pairs


@settings(max_examples=300)
@given(st.data())
def test_bitmask_transition_check_matches_the_tuple_sets(data):
    for m1, m2, s in data.draw(certified_pairs()):
        assert same_report(m1, m2, s) == [SimReport("pass")] * len(MODES)
        for broken in breakers(data.draw, m1, m2, s):
            for report in same_report(m1, m2, broken):
                assert report == SimReport("pass") or report.failed_condition in (
                    "transition", "domain-path", "codomain-path")


def test_a_dropped_determinization_pair_breaks_the_transition_alone():
    """Each pair of the determinization certificate of the 3rd-letter-from-
    the-end NFA whose subset is not initial and whose member is not final,
    dropped, breaks the transition condition in every mode, with the same
    witness from both checks; so does a ztransducer against its
    presentation with one identity pair dropped."""
    n = nfa(Alphabet("A", ("a", "b")), Alphabet("Q", ("0", "1", "2", "3")),
            {("0", "a", "0"), ("0", "b", "0"), ("0", "a", "1"), ("1", "a", "2"), ("1", "b", "2"),
             ("2", "a", "3"), ("2", "b", "3")}, {"0"}, {"3"})
    d, contains = determinize(n)
    dropped = [(x, y) for x, y in sorted(contains.pairs) if x[0] not in d.initial and y[0] not in n.final]
    assert len(dropped) > 10
    for pair in dropped:
        reports = same_report(n, d, Rel(contains.dom, contains.cod, contains.pairs - {pair}))
        assert {r.failed_condition for r in reports} == {"transition"}
    z = ztransducer(Alphabet("A", ("a", "b")), Alphabet("B", ("x", "y")), Alphabet("Q", ("p", "q")),
                    {("a", "p", "x", "q"), ("b", "q", "y", "p"), ("a", "q", "y", "q")})
    p = presentation_of_ztransducer(z)
    dropped = Rel(obj(z.states), obj(z.states), {(("p",), ("p",))})
    for m1, m2 in ((z, p), (p, z)):
        reports = same_report(m1, m2, dropped)
        assert reports[0].failed_condition == "transition"
