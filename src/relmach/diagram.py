"""Term language of string diagrams with feedback.

Diagrams are ASTs built from relation boxes, identities, wire swaps,
sequential and parallel composition, and one feedback node that loops the
last wire of a term back to its input (the paper's trace).  In the
finite-word language the fed-back wire carries initial/final label sets;
in the bi-infinite language it carries none (``Feedback.labelled``).

Every well-typed term collapses to a quasi-normal form: a single machine
(one relation box under one feedback), computed by one structural
recursion over the transducer module's ``compose_transducers`` and
``product_transducers``; a bi-infinite term's machine is the finite-word
one with its initial and final states dropped.
Terms of one type are equal iff their bent normal forms, NFAs
(``acceptor``), accept the same words (``automata.nfa_equiv``).  Only when
asked, ``equiv_chain`` builds the re-checkable certificate chain of that
verdict: each NFA determinized and minimized, and the isomorphism of the
minimal machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .automata import Dfa, Nfa, iso_check, transducer_to_nfa
from .relcore import (
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
from .transducer import (
    Transducer,
    UniformRelationSample,
    behavior_upto,
    compose_transducers,
    finite_shift_at,
    lift_transducer,
    product_transducers,
    transducer,
)


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


def _unpackers(o: Obj):
    """Map a packed symbol of ``o`` to its flat tuple, by index."""
    packed = pack_obj(o)
    if is_unit(packed):
        return lambda s: ()
    table = dict(zip(packed.elements, o.tuples())) if len(o.flat) > 1 else None
    if table is None:
        return lambda s: (s,)
    return lambda s: table[s]


def _fold_quads(t_quads, body_dom: Obj, body_cod: Obj, spair):
    """Rewrite body quads, moving the last wire into the state component."""
    prefix_dom = Obj(body_dom.flat[:-1])
    prefix_cod = Obj(body_cod.flat[:-1])
    unpack_in = _unpackers(body_dom)
    unpack_out = _unpackers(body_cod)
    quads = set()
    for x, p, y, p2 in t_quads:
        xt = unpack_in(x)
        yt = unpack_out(y)
        quads.add((
            pack_tuple(prefix_dom, xt[:-1]),
            spair(p, xt[-1]),
            pack_tuple(prefix_cod, yt[:-1]),
            spair(p2, yt[-1]),
        ))
    return pack_obj(prefix_dom), pack_obj(prefix_cod), quads


def _retype(t: Transducer, input: Alphabet, output: Alphabet) -> Transducer:
    """Rename boundary symbols positionally (same cardinality and order)."""
    imap = dict(zip(t.input.elements, input.elements))
    omap = dict(zip(t.output.elements, output.elements))
    quads = {(imap[a], q, omap[b], q2) for a, q, b, q2 in t.trans}
    return transducer(input, output, t.states, quads, t.initial, t.final)


def _collapse(d: Diagram, labelled: bool) -> tuple[Transducer, Obj, Obj]:
    """The quasi-normal form of a term whose feedback nodes are all labelled
    or all unlabelled, as ``labelled`` says: a transducer over the packed
    boundary alphabets, with the term's domain and codomain.  An unlabelled
    loop folds like a labelled one with empty label sets."""
    match d:
        case Box(rel=r):
            return lift_transducer(r), r.dom, r.cod
        case Id(o=o):
            return lift_transducer(identity(o)), o, o
        case Swap(a=a, b=b):
            return lift_transducer(swap_rel(a, b)), obj(a, b), obj(b, a)
        case Seq(first=f, second=s):
            tf, df, cf = _collapse(f, labelled)
            ts, ds, cs = _collapse(s, labelled)
            if cf.signature() != ds.signature():
                raise TypeMismatch("sequential composition of incompatible terms")
            return compose_transducers(tf, ts), df, cs
        case Par(left=l, right=r):
            tl, dl, cl = _collapse(l, labelled)
            tr, dr, cr = _collapse(r, labelled)
            dom, cod = dl + dr, cl + cr
            return _retype(product_transducers(tl, tr), pack_obj(dom), pack_obj(cod)), dom, cod
        case Feedback(wire=w, initial=i, final=f, body=b) if d.labelled == labelled:
            tb, db, cb = _collapse(b, labelled)
            dom, cod = _loop_boundary(w, db, cb)
            states = product_alphabet(tb.states, w)
            spair = pair_symbol(tb.states, w)
            input, output, quads = _fold_quads(tb.trans, db, cb, spair)
            t = transducer(
                input, output, states, quads,
                {spair(p, q) for p in tb.initial for q in i or ()},
                {spair(p, q) for p in tb.final for q in f or ()},
            )
            return t, dom, cod
        case Feedback():
            raise TypeMismatch("labelled feedback belongs to the finite-word language" if d.labelled
                               else "unlabelled feedback belongs to the bi-infinite language")
    raise MachineError(f"not a diagram: {d!r}")


def normal_form(d: Diagram) -> Transducer:
    """Collapse a finite-word term to its quasi-normal form: a transducer
    over the packed boundary alphabets."""
    return _collapse(d, True)[0]


def z_normal_form(d: Diagram) -> ZTransducer:
    """Collapse a bi-infinite term to its quasi-normal form machine: the
    finite-word collapse with the initial and final states dropped."""
    t = _collapse(d, False)[0]
    return ZTransducer(t.input, t.output, t.states, t.trans)


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
        case _:
            raise MachineError(f"cannot evaluate {d!r} over finite words")
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
