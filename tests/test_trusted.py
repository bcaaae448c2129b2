"""Values the library builds by construction skip validation
(``relcore.trusted``); each must equal its rebuild through the public,
validating constructor.  The verdict on terms reads its acceptors straight
off the collapse, so a wide bundle's bent tuple space is never built."""

import contextlib
import random

from hypothesis import given, settings, strategies as st

from genrand import random_alphabet, random_diagram, random_nfa, random_presentation, random_transducer
from relmach import automata, diagram, relcore, sofic, transducer
from relmach.automata import determinize, minimize, nfa_equiv, prune_language
from relmach.diagram import Id, Par, acceptors, denotation_upto, interpret_upto, loop_term, normal_form, \
    z_normal_form
from relmach.relcore import UNIT, Alphabet, MachineError, Obj, obj
from relmach.simulation import equiv_chain
from relmach.sofic import canonical_form, determinize_presentation, factor_language, \
    minimize_presentation, prune
from test_constructions import unlabel


@contextlib.contextmanager
def recording():
    """Every value built by ``trusted`` while the block runs."""
    built = []

    def record(cls, *values):
        x = relcore.trusted(cls, *values)
        built.append(x)
        return x

    modules = (automata, diagram, sofic, transducer)
    for m in modules:
        m.trusted = record
    try:
        yield built
    finally:
        for m in modules:
            m.trusted = relcore.trusted


def rebuilt(x):
    """``x`` built again through its validating constructor."""
    return type(x)(*(getattr(x, f) for f in type(x).__match_args__))


def attempt(fn, *args):
    try:
        return fn(*args)
    except MachineError:
        return None


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_trusted_values_equal_their_validated_rebuilds(seed_):
    rng = random.Random(seed_)
    dom, cod = obj(random_alphabet(rng, "I")), obj(random_alphabet(rng, "O"))
    d1 = random_diagram(rng, dom, cod, rng.randint(1, 7), rng.randint(0, 2))
    d2 = random_diagram(rng, dom, cod, rng.randint(1, 7), rng.randint(0, 2))
    z1, z2 = unlabel(d1, lambda i: True), unlabel(d2, lambda i: True)
    n, p = random_nfa(rng), random_presentation(rng)
    # a unit input adds no component to the loop term's tuples
    unit_in = random_transducer(rng, input=UNIT, states=rng.choice([None, UNIT]))
    with recording() as built:
        t = normal_form(d1)
        interpret_upto(d1, 2)
        denotation_upto(loop_term(t), 2)
        denotation_upto(loop_term(unit_in), 2)
        z_normal_form(z1)
        n1, n2 = acceptors(d1, d2)
        acceptors(z1, z2, bi_infinite=True)
        if nfa_equiv(n1, n2):
            equiv_chain(n1, n2)
        equiv_chain(n1, n1)
        minimize(determinize(n)[0])
        prune_language(n)
        factor_language(p)
        canonical_form(p)
        pruned = prune(p)
        det = attempt(lambda: determinize_presentation(pruned)[0])
        if det is not None:
            minimize_presentation(det)
    assert {type(x).__name__ for x in built} >= {
        "Transducer", "ZTransducer", "Nfa", "Dfa", "Rel", "Presentation", "UniformRelationSample"}
    for x in built:
        y = rebuilt(x)
        assert y == x and hash(y) == hash(x)


def test_wide_par_builds_no_bent_tuple_space(monkeypatch):
    a = Alphabet("A", ("a", "b"))
    term = Id(obj(a))
    for _ in range(11):
        term = Par(term, Id(obj(a)))
    enumerated, sizes = [], []
    tuples, post_init = Obj.tuples, Alphabet.__post_init__

    def counted_tuples(self):
        out = list(tuples(self))
        enumerated.append(len(out))
        return iter(out)

    def sized(self):
        post_init(self)
        sizes.append(len(self.elements))

    monkeypatch.setattr(Obj, "tuples", counted_tuples)
    monkeypatch.setattr(Alphabet, "__post_init__", sized)
    n1, n2 = acceptors(term, term)
    assert nfa_equiv(n1, n2)
    # the 4096 letters (t, t) that occur, and one for the 4^12 - 4096 others
    assert len(n1.alphabet) == 2**12 + 1 and len(n1.trans) == 2**12
    assert max(sizes) == 2**12 + 1
    assert sum(enumerated) < 4**6
