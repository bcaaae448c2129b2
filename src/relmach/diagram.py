"""Term language of string diagrams with feedback.

Diagrams are ASTs built from relation boxes, identities, wire swaps,
sequential and parallel composition, and one feedback node that loops the
last wire of a term back to its input (the paper's trace).  In the
finite-word language the fed-back wire carries initial/final label sets;
in the bi-infinite language it carries none (``Feedback.labelled``).

A term is typed when it is built: each node sets its ``dom``, ``cod``,
``feedback`` (the ``Feedback.labelled`` values of its loops) and
``children`` once, from its typed children, so an ill-typed term raises
``TypeMismatch`` when built.  Each entry point checks ``feedback`` once
against its language.  Every walk over a term is one loop, with no
recursion, over its distinct node objects, each after its children.

Every term collapses to a quasi-normal form: a single machine
(one relation box under one feedback), computed node by node on rows over
the flat wire tuples, as the paper reads a word over A×C as a tuple of
words.  A box contributes its relation's pairs with
the unit state, ``Seq`` joins rows on the middle tuple, ``Par``
concatenates tuples, and ``Feedback`` moves the last tuple component into
the state.  Only the term's own boundary is packed into one alphabet each
way, once, to build one machine; a bi-infinite term's machine is the
finite-word one with its initial and final states dropped.  Conversely,
``loop_term`` reads a transducer as such a form, the box of its transition
relation under one loop over its states.

Terms A → B of one type are equal iff their acceptors accept the same
words (``automata.nfa_equiv``).  As the paper reads a uniform relation as
a language over B ++ A, ``acceptors`` reads the collapse's rows as
transitions, over only the letters that occur: no term is bent and no
tuple space is enumerated.  The certificate chain of an "equal" verdict is
built from the acceptors by ``simulation.equiv_chain``.  Machines built
here are valid by construction (``relcore.trusted``).

``denotation_upto`` is the bounded evaluation that ``interpret_upto``
checks a normal form against, and ``relmach behavior`` a transducer's runs,
on its loop term.  As the paper's uniform relations are read letter by
letter, it extends each length's words by one letter, by a step table that
each node builds from its children's.  A key is the flat tuple of the
fed-back letters of a node's loops: a box, identity or swap has the one key
``()``, a ``Seq`` or ``Par`` concatenates its operands' keys, and a loop
appends its fed-back letter to its body's.  It is independent of the
collapse, as it reads words, not packed rows.  Its keys multiply like the normal form's states,
so it is exponential in the number of loops, as the collapse is, and
linear per word in the length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import getitem
from typing import NamedTuple, Union

from .automata import Nfa
from .relcore import (
    UNIT,
    Alphabet,
    MachineError,
    Obj,
    Rel,
    TypeMismatch,
    identity,
    is_unit,
    material,
    obj,
    pack_obj,
    pair_symbol,
    swap as swap_rel,
    trusted,
    tuple_namer,
)
from .sofic import Presentation, ZTransducer, factor_language
from .transducer import STAR, Transducer, UniformRelationSample, behavior_upto


@dataclass(frozen=True)
class _Node:
    """A term node's domain, codomain, ``feedback``, the set of
    ``Feedback.labelled`` values of the loops in the term, and ``children``,
    its operands: each node sets them once, from its already typed children,
    and they take no part in equality, hashing or repr."""

    dom: Obj = field(init=False, repr=False, compare=False)
    cod: Obj = field(init=False, repr=False, compare=False)
    feedback: frozenset[bool] = field(init=False, repr=False, compare=False)
    children: tuple = field(init=False, repr=False, compare=False)

    def _typed(self, dom: Obj, cod: Obj, feedback: frozenset[bool] = frozenset(),
               children: tuple = ()) -> None:
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "feedback", feedback)
        object.__setattr__(self, "children", children)


@dataclass(frozen=True)
class Box(_Node):
    rel: Rel

    def __post_init__(self):
        self._typed(self.rel.dom, self.rel.cod)


@dataclass(frozen=True)
class Id(_Node):
    o: Obj

    def __post_init__(self):
        self._typed(self.o, self.o)


@dataclass(frozen=True)
class Swap(_Node):
    a: Alphabet
    b: Alphabet

    def __post_init__(self):
        self._typed(obj(self.a, self.b), obj(self.b, self.a))


@dataclass(frozen=True)
class Seq(_Node):
    first: "Diagram"
    second: "Diagram"

    def __post_init__(self):
        f, s = self.first, self.second
        if f.cod.signature() != s.dom.signature():
            raise TypeMismatch("sequential composition of incompatible terms")
        self._typed(f.dom, s.cod, f.feedback | s.feedback, (f, s))


@dataclass(frozen=True)
class Par(_Node):
    left: "Diagram"
    right: "Diagram"

    def __post_init__(self):
        l, r = self.left, self.right
        self._typed(l.dom + r.dom, l.cod + r.cod, l.feedback | r.feedback, (l, r))


@dataclass(frozen=True)
class Feedback(_Node):
    """A loop over ``wire``, the last wire of the body on both sides: with
    label sets, a loop of the finite-word language; with ``initial = final
    = None``, the unlabelled loop of the bi-infinite language.  A ``None``
    on one side only is refused."""

    wire: Alphabet
    initial: frozenset[str] | None
    final: frozenset[str] | None
    body: "Diagram"

    def __post_init__(self):
        w, b = self.wire, self.body
        if self.labelled:
            object.__setattr__(self, "initial", w.check_subset(self.initial))
            object.__setattr__(self, "final", w.check_subset(self.final))
        if is_unit(w):
            raise TypeMismatch("feedback over the unit wire is not supported")
        for side, o in (("domain", b.dom), ("codomain", b.cod)):
            if not o.flat or o.flat[-1].elements != w.elements:
                raise TypeMismatch(f"feedback wire {w.name!r} must be the last {side} wire of the body")
        self._typed(Obj(b.dom.flat[:-1]), Obj(b.cod.flat[:-1]), b.feedback | {self.labelled}, (b,))

    @property
    def labelled(self) -> bool:
        return self.initial is not None or self.final is not None


Diagram = Union[Box, Id, Swap, Seq, Par, Feedback]


class _Form(NamedTuple):
    """A term's quasi-normal form over its flat wires: rows (x, q, y, q2)
    relate a tuple x of the term's ``dom`` and a tuple y of its ``cod``,
    read in state q of ``states`` and moving to q2."""

    states: Alphabet
    rows: set
    initial: set
    final: set


def _leaf(d: Diagram) -> Rel:
    """The relation of a box, identity or swap."""
    match d:
        case Box(rel=r):
            return r
        case Id(o=o):
            return identity(o)
        case Swap(a=a, b=b):
            return swap_rel(a, b)


def _pair_states(a: _Form, b: _Form):
    """The product state alphabet of two forms, its pairing function, and
    the paired initial and final states.  The unit state alphabet is
    neutral, so a letterwise operand builds no bundle."""
    sa, sb = a.states, b.states
    pair = pair_symbol(sa, sb)
    return (sb if is_unit(sa) else sa if is_unit(sb) else pack_obj(obj(sa, sb)), pair,
            {pair(q, p) for q in a.initial for p in b.initial},
            {pair(q, p) for q in a.final for p in b.final})


def _post_order(d: Diagram) -> list:
    """The distinct node objects of a term, each after its children."""
    order: dict[int, Diagram] = {}
    stack = [(d, iter(d.children))]
    while stack:
        node, children = stack[-1]
        for c in children:
            if id(c) not in order:
                if not c.children:  # a leaf is done at once
                    order[id(c)] = c
                    continue
                stack.append((c, iter(c.children)))
                break
        else:
            stack.pop()
            order[id(node)] = node
    return list(order.values())


def _collapse(d: Diagram) -> _Form:
    """The quasi-normal form of a term, over its flat wires: each distinct
    node's form from its children's, keyed by ``id``.  In a term with no
    shared subterm, each form has one reader and is dropped once read.  An
    unlabelled loop folds like a labelled one with empty label sets."""
    order = _post_order(d)
    forms: dict[int, _Form] = {}
    take = forms.pop if len(order) == 1 + sum(len(n.children) for n in order) else forms.get
    for node in order:
        match node:
            case Seq(first=f, second=s):
                tf, ts = take(id(f)), take(id(s))
                states, pair, initial, final = _pair_states(tf, ts)
                by_mid: dict[tuple, list] = {}
                for m, p, z, p2 in ts.rows:
                    by_mid.setdefault(m, []).append((p, z, p2))
                rows = {(x, pair(q, p), z, pair(q2, p2))
                        for x, q, m, q2 in tf.rows for p, z, p2 in by_mid.get(m, ())}
                form = _Form(states, rows, initial, final)
            case Par(left=l, right=r):
                tl, tr = take(id(l)), take(id(r))
                states, pair, initial, final = _pair_states(tl, tr)
                rows = {(x1 + x2, pair(q, p), y1 + y2, pair(q2, p2))
                        for x1, q, y1, q2 in tl.rows for x2, p, y2, p2 in tr.rows}
                form = _Form(states, rows, initial, final)
            case Feedback(wire=w, initial=i, final=f, body=b):
                tb = take(id(b))
                states = w if is_unit(tb.states) else pack_obj(obj(tb.states, w))
                spair = pair_symbol(tb.states, w)
                rows = {(x[:-1], spair(p, x[-1]), y[:-1], spair(p2, y[-1])) for x, p, y, p2 in tb.rows}
                form = _Form(states, rows,
                             {spair(p, q) for p in tb.initial for q in i or ()},
                             {spair(p, q) for p in tb.final for q in f or ()})
            case _:  # a box, identity or swap
                form = _Form(UNIT, {(x, STAR, y, STAR) for x, y in _leaf(node).pairs}, {STAR}, {STAR})
        forms[id(node)] = form
    return forms[id(d)]


def _check_loops(d: Diagram, labelled: bool) -> None:
    """Refuse a term with a loop of the other language: a finite-word term
    (``labelled``) has only labelled loops, a bi-infinite one only unlabelled."""
    if (not labelled) in d.feedback:
        raise TypeMismatch("unlabelled feedback belongs to the bi-infinite language" if labelled
                           else "labelled feedback belongs to the finite-word language")


def _packed(d: Diagram, form: _Form) -> tuple[Alphabet, Alphabet, frozenset]:
    """The boundary alphabets of a term, each bundle packed into one wire,
    and the rows of its form over them."""
    dom, cod = d.dom, d.cod
    x, y = tuple_namer(dom), tuple_namer(cod)
    quads = frozenset((x(t), q, y(u), q2) for t, q, u, q2 in form.rows)
    return pack_obj(dom), pack_obj(cod), quads


def normal_form(d: Diagram) -> Transducer:
    """Collapse a finite-word term to its quasi-normal form: a transducer
    over the packed boundary alphabets."""
    _check_loops(d, True)
    form = _collapse(d)
    input, output, quads = _packed(d, form)
    return trusted(Transducer, input, output, form.states, quads,
                   frozenset(form.initial), frozenset(form.final), None)


def z_normal_form(d: Diagram) -> ZTransducer:
    """Collapse a bi-infinite term to its quasi-normal form machine: the
    finite-word collapse with the initial and final states dropped."""
    _check_loops(d, False)
    form = _collapse(d)
    input, output, quads = _packed(d, form)
    return trusted(ZTransducer, input, output, form.states, quads, None, None, None)


# ---------------------------------------------------------------------------
# Bounded evaluation, independent of the normal form.

def _table(node: Diagram, *tables: tuple) -> tuple:
    """How a node extends its words by one letter, from its children's
    tables: per key, the letter pairs (x, y) of flat tuples that it reads,
    by the key they lead to; its initial keys; and its final keys.  A leaf
    has the one key ``()``.  A ``Seq`` or ``Par`` concatenates its operands'
    keys, one to one, since every key of a node is as long as the node has
    loops.  A loop appends a fed-back letter to its body's key: it reads a
    body pair whose input ends in that letter, and moves to the letter its
    output ends in."""
    if not node.children:
        return {(): {(): _leaf(node).pairs}}, {()}, {()}
    steps: dict = {}
    if isinstance(node, Feedback):
        (body, initial, final), = tables
        for q, row in body.items():
            for q2, pairs in row.items():
                for x, y in pairs:
                    steps.setdefault(q + x[-1:], {}).setdefault(q2 + y[-1:], set()).add((x[:-1], y[:-1]))
        return steps, {q + (a,) for q in initial for a in node.initial}, \
            {q + (a,) for q in final for a in node.final}
    (s1, i1, f1), (s2, i2, f2) = tables
    if isinstance(node, Seq):
        after: dict = {}
        for p, row in s2.items():
            for p2, pairs in row.items():
                for m, z in pairs:
                    after.setdefault(p, {}).setdefault(m, []).append((p2, z))
        for q, row in s1.items():
            for p, by_mid in after.items():
                out = steps.setdefault(q + p, {})
                for q2, pairs in row.items():
                    for x, m in pairs:
                        for p2, z in by_mid.get(m, ()):
                            out.setdefault(q2 + p2, set()).add((x, z))
    else:
        steps = {q + p: {q2 + p2: {(x1 + x2, y1 + y2) for x1, y1 in l1 for x2, y2 in l2}
                         for q2, l1 in r1.items() for p2, l2 in r2.items()}
                 for q, r1 in s1.items() for p, r2 in s2.items()}
    return steps, {q + p for q in i1 for p in i2}, {q + p for q in f1 for p in f2}


def _denote(d: Diagram, n: int):
    """Yield the term's relation at each word length 0..n; a word is a tuple
    of flat tuples.  The words of each length are kept by the key they
    reach in the term's step table, from its initial keys with the empty
    word pair, and extended by one letter pair for the next length; those
    at a final key are related.  At a loop this reads the shift condition
    prefix by prefix."""
    tables: dict[int, tuple] = {}
    for node in _post_order(d):
        tables[id(node)] = _table(node, *[tables[id(c)] for c in node.children])
    steps, initial, final = tables[id(d)]
    words = {q: {((), ())} for q in initial}
    for k in range(n + 1):
        if k:
            grown: dict = {}
            for q, ws in words.items():
                for q2, pairs in steps.get(q, {}).items():
                    grown.setdefault(q2, set()).update({(w + (x,), v + (y,)) for w, v in ws for x, y in pairs})
            words = grown
        ends = [words[q] for q in final if q in words]
        yield ends[0] if len(ends) == 1 else set().union(*ends)


def loop_term(t: Transducer) -> Feedback:
    """A transducer as the trace of its transition relation: one box
    relating (input letter, state) to (output letter, state), under one loop
    over the state wire labelled with its initial and final states.  A unit
    input or output adds no tuple component."""
    q, skip_in, skip_out = material(t.states), is_unit(t.input), is_unit(t.output)
    pairs = frozenset(((a, p)[skip_in:], (b, p2)[skip_out:]) for a, p, b, p2 in t.trans)
    return Feedback(q, t.initial, t.final, Box(trusted(Rel, obj(t.input, q), obj(t.output, q), pairs)))


def denotation_upto(d: Diagram, n: int) -> UniformRelationSample:
    """The term's sample at each length ≤ n, independently of its normal
    form: its words extended one letter per length (``_denote``).  The step
    tables hold every key, and keys multiply like the normal form's states,
    so the cost is exponential in the number of loops, as ``normal_form``'s
    is, and linear per word in the length."""
    _check_loops(d, True)
    dom, cod = d.dom, d.cod
    x, y = tuple_namer(dom), tuple_namer(cod)
    pairs = frozenset((tuple(map(x, w)), tuple(map(y, v))) for rel in _denote(d, n) for w, v in rel)
    return trusted(UniformRelationSample, pack_obj(dom), pack_obj(cod), n, pairs)


def interpret_upto(d: Diagram, n: int) -> UniformRelationSample:
    """Behavior sample of a term, cross-checked between the runs of its
    normal form and the bounded evaluator ``denotation_upto``."""
    via_nf = behavior_upto(normal_form(d), n)
    direct = denotation_upto(d, n)
    if via_nf.pairs != direct.pairs:
        raise MachineError("internal error: evaluation routes disagree")
    return via_nf


# ---------------------------------------------------------------------------
# Exact equivalence of terms.

def check_same_type(d1: Diagram, d2: Diagram) -> None:
    """Raise ``TypeMismatch`` unless both terms have one domain and one codomain."""
    if d1.dom.signature() != d2.dom.signature() or d1.cod.signature() != d2.cod.signature():
        raise TypeMismatch("cannot compare terms of different types")


def acceptors(d1: Diagram, d2: Diagram, bi_infinite: bool = False) -> tuple[Nfa, Nfa]:
    """The acceptors of two terms A → B of one type, NFAs over one alphabet
    that accept the same words iff the terms are equal.

    Each row (x, q, y, q2) of a term's collapse is the transition
    (y ++ x, q, "*", q2).  The alphabet is B ++ A packed into one wire over the
    tuples that occur in either term, in tuple order, and one fresh letter
    for all others, if any: as each of them would, it sends every subset to
    the empty one.  With ``bi_infinite`` the terms are read over bi-infinite
    words, and each acceptor is the factor language of its presentation.
    """
    check_same_type(d1, d2)
    for d in (d1, d2):
        _check_loops(d, not bi_infinite)
    forms = [_collapse(d1), _collapse(d2)]
    positions = [w._pos for w in d1.cod.flat + d1.dom.flat]
    letters = sorted({y + x for form in forms for x, _, y, _ in form.rows},
                     key=lambda t: tuple(map(getitem, positions, t)))
    rest = len(letters) < math.prod(map(len, positions))

    def acceptor(d: Diagram, form: _Form) -> Nfa:
        alphabet = pack_obj(Obj(d.cod.flat + d.dom.flat), letters)
        name = dict(zip(letters, alphabet.elements))
        if rest:  # one letter for all others, longer than any letter
            other = "?" * (1 + max(map(len, alphabet.elements), default=0))
            alphabet = Alphabet(alphabet.name, alphabet.elements + (other,))
        states = material(form.states)
        trans = frozenset((name[y + x], q, STAR, q2) for x, q, y, q2 in form.rows)
        if bi_infinite:
            return factor_language(trusted(Presentation, alphabet, UNIT, states, trans,
                                           None, None, None))
        return trusted(Nfa, alphabet, UNIT, states, trans, frozenset(form.initial),
                       frozenset(form.final), None)

    return acceptor(d1, forms[0]), acceptor(d2, forms[1])
