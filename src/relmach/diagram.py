"""Term language of string diagrams with feedback.

Diagrams are ASTs built from relation boxes, identities, wire swaps,
sequential and parallel composition, and one feedback node that loops the
last wire of a term back to its input (the paper's trace).  In the
finite-word language the fed-back wire carries initial/final label sets;
in the bi-infinite language it carries none (``Feedback.labelled``).

Every well-typed term collapses to a quasi-normal form: a single machine
(one relation box under one feedback), computed by one structural
recursion on rows over the flat wire tuples, as the paper reads a word
over A×C as a tuple of words.  A box contributes its relation's pairs with
the unit state, ``Seq`` joins rows on the middle tuple, ``Par``
concatenates tuples, and ``Feedback`` moves the last tuple component into
the state.  Only the term's own boundary is packed into one alphabet each
way, once, to build one validated machine; a bi-infinite term's machine is
the finite-word one with its initial and final states dropped.  The
transducer-level composition, product and lift over packed alphabets are
the tests' reference, in ``tests/helpers.py``.
Terms of one type are equal iff their bent normal forms, NFAs
(``acceptor``), accept the same words (``automata.nfa_equiv``).  Only when
asked, ``equiv_chain`` builds the re-checkable certificate chain of that
verdict: each NFA determinized and minimized, and the isomorphism of the
minimal machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .automata import Dfa, Nfa, iso_check, transducer_to_nfa
from .relcore import (
    UNIT,
    Alphabet,
    MachineError,
    Obj,
    Rel,
    TypeMismatch,
    cap_obj,
    identity,
    is_unit,
    obj,
    pack_obj,
    pack_tuple,
    pair_symbol,
    product_alphabet,
    swap as swap_rel,
)
from .simulation import TWO_SIDED, SimCertificate, certificate_for_determinization, \
    certificate_for_minimization
from .sofic import ZTransducer
from .transducer import Transducer, UniformRelationSample, behavior_upto, finite_shift_at


@dataclass(frozen=True)
class Box:
    rel: Rel


@dataclass(frozen=True)
class Id:
    o: Obj


@dataclass(frozen=True)
class Swap:
    a: Alphabet
    b: Alphabet


@dataclass(frozen=True)
class Seq:
    first: "Diagram"
    second: "Diagram"


@dataclass(frozen=True)
class Par:
    left: "Diagram"
    right: "Diagram"


@dataclass(frozen=True)
class Feedback:
    """A loop over ``wire``: with label sets, a loop of the finite-word
    language; with ``initial = final = None``, the unlabelled loop of the
    bi-infinite language.  A ``None`` on one side only is refused."""

    wire: Alphabet
    initial: frozenset[str] | None
    final: frozenset[str] | None
    body: "Diagram"

    def __post_init__(self):
        if self.labelled:
            object.__setattr__(self, "initial", self.wire.check_subset(self.initial))
            object.__setattr__(self, "final", self.wire.check_subset(self.final))

    @property
    def labelled(self) -> bool:
        return self.initial is not None or self.final is not None


Diagram = Union[Box, Id, Swap, Seq, Par, Feedback]


def _loop_boundary(wire: Alphabet, db: Obj, cb: Obj) -> tuple[Obj, Obj]:
    """The boundary of a feedback over ``wire`` around a body db → cb."""
    if is_unit(wire):
        raise TypeMismatch("feedback over the unit wire is not supported")
    for side, o in (("domain", db), ("codomain", cb)):
        flat = o.flat
        if not flat or flat[-1].elements != wire.elements:
            raise TypeMismatch(
                f"feedback wire {wire.name!r} must be the last {side} wire of the body"
            )
    return Obj(db.flat[:-1]), Obj(cb.flat[:-1])


def type_of(d: Diagram) -> tuple[Obj, Obj]:
    """Domain and codomain of a term, or a :class:`TypeMismatch`."""
    match d:
        case Box(rel=r):
            return r.dom, r.cod
        case Id(o=o):
            return o, o
        case Swap(a=a, b=b):
            return obj(a, b), obj(b, a)
        case Seq(first=f, second=s):
            df, cf = type_of(f)
            ds, cs = type_of(s)
            if cf.signature() != ds.signature():
                raise TypeMismatch("sequential composition of incompatible terms")
            return df, cs
        case Par(left=l, right=r):
            dl, cl = type_of(l)
            dr, cr = type_of(r)
            return dl + dr, cl + cr
        case Feedback(wire=w, body=b):
            return _loop_boundary(w, *type_of(b))
    raise MachineError(f"not a diagram: {d!r}")


def _contains_node(d: Diagram) -> set[bool]:
    """The kinds of feedback node a term contains: ``Feedback.labelled`` of each."""
    match d:
        case Seq(first=x, second=y) | Par(left=x, right=y):
            return _contains_node(x) | _contains_node(y)
        case Feedback(body=b):
            return {d.labelled} | _contains_node(b)
    return set()


class _Form(NamedTuple):
    """A quasi-normal form over the flat wires: rows (x, q, y, q2) relate a
    tuple x of ``dom`` and a tuple y of ``cod``, read in state q of
    ``states`` and moving to q2."""

    states: Alphabet
    rows: set
    initial: set
    final: set
    dom: Obj
    cod: Obj


def _lift(r: Rel) -> _Form:
    star = UNIT.elements[0]
    return _Form(UNIT, {(x, star, y, star) for x, y in r.pairs}, {star}, {star}, r.dom, r.cod)


def _pair_states(a: _Form, b: _Form):
    """The product state alphabet of two forms, its pairing function, and
    the paired initial and final states."""
    pair = pair_symbol(a.states, b.states)
    return (product_alphabet(a.states, b.states), pair,
            {pair(q, p) for q in a.initial for p in b.initial},
            {pair(q, p) for q in a.final for p in b.final})


def _collapse(d: Diagram, labelled: bool) -> _Form:
    """The quasi-normal form of a term whose feedback nodes are all labelled
    or all unlabelled, as ``labelled`` says.  An unlabelled loop folds like
    a labelled one with empty label sets."""
    match d:
        case Box(rel=r):
            return _lift(r)
        case Id(o=o):
            return _lift(identity(o))
        case Swap(a=a, b=b):
            return _lift(swap_rel(a, b))
        case Seq(first=f, second=s):
            tf, ts = _collapse(f, labelled), _collapse(s, labelled)
            if tf.cod.signature() != ts.dom.signature():
                raise TypeMismatch("sequential composition of incompatible terms")
            states, pair, initial, final = _pair_states(tf, ts)
            by_mid: dict[tuple, list] = {}
            for m, p, z, p2 in ts.rows:
                by_mid.setdefault(m, []).append((p, z, p2))
            rows = {(x, pair(q, p), z, pair(q2, p2))
                    for x, q, m, q2 in tf.rows for p, z, p2 in by_mid.get(m, ())}
            return _Form(states, rows, initial, final, tf.dom, ts.cod)
        case Par(left=l, right=r):
            tl, tr = _collapse(l, labelled), _collapse(r, labelled)
            states, pair, initial, final = _pair_states(tl, tr)
            rows = {(x1 + x2, pair(q, p), y1 + y2, pair(q2, p2))
                    for x1, q, y1, q2 in tl.rows for x2, p, y2, p2 in tr.rows}
            return _Form(states, rows, initial, final, tl.dom + tr.dom, tl.cod + tr.cod)
        case Feedback(wire=w, initial=i, final=f, body=b) if d.labelled == labelled:
            tb = _collapse(b, labelled)
            dom, cod = _loop_boundary(w, tb.dom, tb.cod)
            states = product_alphabet(tb.states, w)
            spair = pair_symbol(tb.states, w)
            rows = {(x[:-1], spair(p, x[-1]), y[:-1], spair(p2, y[-1])) for x, p, y, p2 in tb.rows}
            return _Form(states, rows,
                         {spair(p, q) for p in tb.initial for q in i or ()},
                         {spair(p, q) for p in tb.final for q in f or ()}, dom, cod)
        case Feedback():
            raise TypeMismatch("labelled feedback belongs to the finite-word language" if d.labelled
                               else "unlabelled feedback belongs to the bi-infinite language")
    raise MachineError(f"not a diagram: {d!r}")


def _packed(form: _Form) -> tuple[Alphabet, Alphabet, set]:
    """The boundary alphabets of a form, each bundle packed into one wire,
    and its rows over them."""
    dom, cod = form.dom, form.cod
    quads = {(pack_tuple(dom, x), q, pack_tuple(cod, y), q2) for x, q, y, q2 in form.rows}
    return pack_obj(dom), pack_obj(cod), quads


def normal_form(d: Diagram) -> Transducer:
    """Collapse a finite-word term to its quasi-normal form: a transducer
    over the packed boundary alphabets."""
    form = _collapse(d, True)
    input, output, quads = _packed(form)
    return Transducer(input, output, form.states, quads, form.initial, form.final)


def z_normal_form(d: Diagram) -> ZTransducer:
    """Collapse a bi-infinite term to its quasi-normal form machine: the
    finite-word collapse with the initial and final states dropped."""
    form = _collapse(d, False)
    input, output, quads = _packed(form)
    return ZTransducer(input, output, form.states, quads)


# ---------------------------------------------------------------------------
# Direct denotational evaluation, independent of the normal form.

WordRel = set[tuple[tuple, tuple]]


def _denote(d: Diagram, k: int) -> WordRel:
    """The relation at word length k; words are tuples of flat tuples."""
    match d:
        case Box(rel=r):
            pairs = r.pairs
        case Id(o=o):
            pairs = identity(o).pairs
        case Swap(a=a, b=b):
            pairs = swap_rel(a, b).pairs
        case Seq(first=f, second=s):
            left = _denote(f, k)
            right = _denote(s, k)
            by_mid: dict[tuple, set[tuple]] = {}
            for v, u in right:
                by_mid.setdefault(v, set()).add(u)
            return {(w, u) for w, v in left for u in by_mid.get(v, ())}
        case Par(left=l, right=r):
            lrel = _denote(l, k)
            rrel = _denote(r, k)
            return {
                (
                    tuple(x1 + x2 for x1, x2 in zip(w1, w2)),
                    tuple(y1 + y2 for y1, y2 in zip(v1, v2)),
                )
                for w1, v1 in lrel
                for w2, v2 in rrel
            }
        case Feedback(wire=w, initial=i, final=f, body=b) if d.labelled:
            shift = finite_shift_at(w, i, f, k)
            out: WordRel = set()
            for win, wout in _denote(b, k):
                u = tuple(pos[-1] for pos in win)
                t = tuple(pos[-1] for pos in wout)
                # (u, t) must lie in the transpose of the shift
                if (t, u) in shift:
                    out.add((
                        tuple(pos[:-1] for pos in win),
                        tuple(pos[:-1] for pos in wout),
                    ))
            return out
        case Feedback():
            raise TypeMismatch("unlabelled feedback belongs to the bi-infinite language")
        case _:
            raise MachineError(f"not a diagram: {d!r}")
    # base case: letterwise lift of an explicit relation
    level: WordRel = {((), ())}
    for _ in range(k):
        level = {(w + (x,), v + (y,)) for w, v in level for x, y in pairs}
    return level


def denotation_upto(d: Diagram, n: int) -> UniformRelationSample:
    """Evaluate the term constructor by constructor at each length ≤ n."""
    dom, cod = type_of(d)
    pairs = set()
    for k in range(n + 1):
        for w, v in _denote(d, k):
            pairs.add((
                tuple(pack_tuple(dom, pos) for pos in w),
                tuple(pack_tuple(cod, pos) for pos in v),
            ))
    return UniformRelationSample(pack_obj(dom), pack_obj(cod), n, frozenset(pairs))


def interpret_upto(d: Diagram, n: int) -> UniformRelationSample:
    """Behavior sample of a term, cross-checked between the normal-form
    route and the direct denotational route."""
    via_nf = behavior_upto(normal_form(d), n)
    direct = denotation_upto(d, n)
    if via_nf.pairs != direct.pairs:
        raise MachineError("internal error: evaluation routes disagree")
    return via_nf


# ---------------------------------------------------------------------------
# Exact equivalence of terms.

@dataclass(frozen=True)
class PipelineCertificate:
    """Machines and certificates produced while canonicalizing one acceptor."""

    nfa: Nfa
    dfa: Dfa
    minimal: Dfa
    contains: SimCertificate
    follow: SimCertificate


@dataclass(frozen=True)
class EquivCertificate:
    left: PipelineCertificate
    right: PipelineCertificate
    iso: SimCertificate


def bend(d: Diagram) -> Diagram:
    """Turn a term A → B into an acceptor-shaped term B ++ A → 1 by bending
    the output back with a cap."""
    _, cod = type_of(d)
    cod = Obj(cod.flat)
    return Seq(Par(Id(cod), d), Box(cap_obj(cod)))


def check_same_type(d1: Diagram, d2: Diagram) -> None:
    """Raise ``TypeMismatch`` unless both terms have one domain and one codomain."""
    (dom1, cod1), (dom2, cod2) = type_of(d1), type_of(d2)
    if dom1.signature() != dom2.signature() or cod1.signature() != cod2.signature():
        raise TypeMismatch("cannot compare terms of different types")


def acceptor(d: Diagram) -> Nfa:
    """The bent normal form of a term A → B, an NFA over the packed B ++ A:
    two terms of one type are equal iff their acceptors accept the same words."""
    return transducer_to_nfa(normal_form(bend(d)))


def _pipeline(n: Nfa) -> PipelineCertificate:
    dfa, cert_det = certificate_for_determinization(n)
    mdfa, cert_min = certificate_for_minimization(dfa)
    return PipelineCertificate(n, dfa, mdfa, cert_det, cert_min)


def equiv_chain(n1: Nfa, n2: Nfa) -> EquivCertificate:
    """The certificate chain of two NFAs that accept the same words: each
    determinized and minimized with its certificates, and the isomorphism
    of the two minimal machines."""
    left, right = _pipeline(n1), _pipeline(n2)
    mapping = iso_check(left.minimal, right.minimal)
    if mapping is None:
        raise MachineError("no certificate chain: the automata accept different words")
    iso_rel = Rel(
        obj(right.minimal.states), obj(left.minimal.states),
        frozenset(((q2,), (q1,)) for q1, q2 in mapping.items()),
    )
    return EquivCertificate(left, right, SimCertificate(iso_rel, TWO_SIDED))
