"""Functions that only the tests call.

The relation algebra of the paper's uniform relations (composition,
product, cups and caps, the function and subset predicates, and the
transition relation A×Q → B×Q of a machine, ``trans_rel``) is the tests'
reference semantics, computed on the library's :class:`Rel` values.  So
are the sequential composition, parallel product and letterwise lift of
transducers over packed alphabets (``compose_transducers``,
``product_transducers``, ``lift_transducer``): the diagram collapse
composes rows over flat wire tuples and packs once.  The rest are machine
constructions and verdicts, and the sliding equation of
a feedback loop, that the command line does not reach: its verdicts
decide on bitmask subsets by one union-find walk and name nothing,
and the simulation checker enumerates its conditions from the quadruples.
"""

from __future__ import annotations

from typing import Iterable

from relmach import io
from relmach.automata import Dfa, Nfa, bits, determinize, iso_check, mask_of, minimize, nfa, nfa_equiv, \
    prune_language, subset_namer
from relmach.diagram import Box, Diagram, Feedback, Id, Par, Seq, acceptors
from relmach.relcore import UNIT, UNIT_OBJ, Alphabet, MachineError, Obj, Pair, Rel, TypeMismatch, \
    is_unit, obj, pack_obj, pair_symbol, tuple_namer
from relmach.simulation import Chain, check_fin, equiv_chain
from relmach.sofic import Presentation, factor_language
from relmach.transducer import Machine, Transducer, transducer, unit_rows


def type_of(d: Diagram) -> tuple[Obj, Obj]:
    """Domain and codomain of a term, set when it was built."""
    return d.dom, d.cod


# ---------------------------------------------------------------------------
# The relation algebra.

def rel(dom: Obj, cod: Obj, pairs: Iterable[Pair]) -> Rel:
    return Rel(dom, cod, pairs)


def image(r: Rel, x: tuple[str, ...]) -> set[tuple[str, ...]]:
    return {b for a, b in r.pairs if a == x}


def _require_same_type(a: Obj, b: Obj, what: str) -> None:
    if a.signature() != b.signature():
        raise TypeMismatch(f"{what}: {_describe(a)} vs {_describe(b)}")


def _describe(o: Obj) -> str:
    return "[" + ", ".join(w.name for w in o.wires) + "]"


def compose(r: Rel, s: Rel) -> Rel:
    """Relational composition, diagrammatic order: first ``r`` then ``s``."""
    _require_same_type(r.cod, s.dom, "cannot compose: codomain/domain mismatch")
    by_mid: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
    for y, z in s.pairs:
        by_mid.setdefault(y, set()).add(z)
    return Rel(r.dom, s.cod, frozenset((x, z) for x, y in r.pairs for z in by_mid.get(y, ())))


def product(r: Rel, s: Rel) -> Rel:
    """Parallel product: wires concatenate and pairs combine componentwise."""
    out = frozenset((x1 + x2, y1 + y2) for x1, y1 in r.pairs for x2, y2 in s.pairs)
    return Rel(r.dom + s.dom, r.cod + s.cod, out)


def transpose(r: Rel) -> Rel:
    return Rel(r.cod, r.dom, frozenset((y, x) for x, y in r.pairs))


def cup(a: Alphabet) -> Rel:
    """The relation 1 → A×A pairing the empty tuple with every diagonal."""
    return Rel(UNIT_OBJ, obj(a, a), frozenset(((), (x, x)) for x in a.elements))


def cap(a: Alphabet) -> Rel:
    return transpose(cup(a))


def full_to_unit(o: Obj) -> Rel:
    """The maximal relation o → 1, written as a filled dot in diagrams."""
    return Rel(o, UNIT_OBJ, frozenset((t, ()) for t in o.tuples()))


def is_partial_function(r: Rel) -> bool:
    return len({x for x, _ in r.pairs}) == len(r.pairs)


def is_total(r: Rel) -> bool:
    return {x for x, _ in r.pairs} == set(r.dom.tuples())


def is_function(r: Rel) -> bool:
    return is_partial_function(r) and is_total(r)


def is_surjective(r: Rel) -> bool:
    return {y for _, y in r.pairs} == set(r.cod.tuples())


def subset_of(r: Rel, s: Rel) -> bool:
    _require_same_type(r.dom, s.dom, "subset_of: domain mismatch")
    _require_same_type(r.cod, s.cod, "subset_of: codomain mismatch")
    return r.pairs <= s.pairs


def rel_equals(r: Rel, s: Rel) -> bool:
    _require_same_type(r.dom, s.dom, "rel_equals: domain mismatch")
    _require_same_type(r.cod, s.cod, "rel_equals: codomain mismatch")
    return r.pairs == s.pairs


def subset_as_point(a: Alphabet, symbols) -> Rel:
    """Encode a subset of ``a`` as a relation 1 → a."""
    target = obj(a)
    return Rel(UNIT_OBJ, target,
               frozenset(((), (x,) if target.flat else ()) for x in a.check_subset(symbols)))


def subset_as_copoint(a: Alphabet, symbols) -> Rel:
    """Encode a subset of ``a`` as a relation a → 1."""
    return transpose(subset_as_point(a, symbols))


def pack_tuple(o: Obj, t: tuple[str, ...]) -> str:
    """The packed symbol of a tuple of ``o`` (unit wires already dropped)."""
    return tuple_namer(o)(t)


def product_alphabet(a: Alphabet, b: Alphabet) -> Alphabet:
    """The packed product of two alphabets; the unit is a strict neutral element."""
    return pack_obj(obj(a, b))


def pack_rel(r: Rel) -> Rel:
    """View a relation between bundles as one between single packed wires."""
    def side(o: Obj):
        a = pack_obj(o)
        name = tuple_namer(o)
        return (UNIT_OBJ, lambda t: ()) if is_unit(a) else (obj(a), lambda t: (name(t),))

    (dom, x), (cod, y) = side(r.dom), side(r.cod)
    return Rel(dom, cod, frozenset((x(s), y(t)) for s, t in r.pairs))


def trans_rel(input: Alphabet, output: Alphabet, states: Alphabet, quads) -> Rel:
    """The transition relation A×Q → B×Q as a view of validated quadruples:
    (a, q, b, q2) relates (a, q) to (b, q2), and a unit alphabet gives no
    tuple component, so a caller that needs the states passes
    ``material(states)``."""

    def view(*columns):
        kept = [i for i, a in columns if not is_unit(a)]
        return lambda t: tuple(t[i] for i in kept)

    x, y = view((0, input), (1, states)), view((2, output), (3, states))
    return Rel(obj(input, states), obj(output, states), ((x(t), y(t)) for t in quads))


# ---------------------------------------------------------------------------
# Automata as transitions (state, letter, next state).

def triples(m: Machine) -> set[tuple[str, str, str]]:
    """The transitions (q, a, q2) of an automaton, whose rows are (a, q, "*", q2)."""
    return {(q, a, q2) for a, q, _, q2 in m.trans}


def dfa(alphabet, states, trans, initial, final) -> Dfa:
    """The DFA with transitions (state, letter, next state)."""
    return Dfa(alphabet, UNIT, states, unit_rows(trans), initial, final)


def from_automaton(t: Transducer, input: Alphabet, output: Alphabet) -> Transducer:
    """Inverse of ``seed_algorithms.to_automaton``, splitting product letters."""
    if not is_unit(t.output):
        raise TypeMismatch("from_automaton expects a unit-output acceptor")
    if t.input.elements != product_alphabet(input, output).elements:
        raise TypeMismatch("acceptor alphabet is not the product of the given alphabets")
    pair = pair_symbol(input, output)
    split = {pair(a, b): (a, b) for a in input.elements for b in output.elements}
    quads = {(split[ab][0], q, split[ab][1], q2) for ab, q, _, q2 in t.trans}
    return transducer(input, output, t.states, quads, t.initial, t.final)


# ---------------------------------------------------------------------------
# Machine constructions on packed alphabets.  ``diagram._collapse`` composes
# rows over flat wire tuples instead; these are its reference.

def compose_transducers(t1: Transducer, t2: Transducer) -> Transducer:
    """Sequential composition; states multiply and behaviors compose."""
    if t1.output.elements != t2.input.elements:
        raise TypeMismatch(
            f"cannot compose transducers: output {t1.output.name!r} vs input {t2.input.name!r}"
        )
    states = product_alphabet(t1.states, t2.states)
    pair = pair_symbol(t1.states, t2.states)
    by_mid: dict[str, list[tuple[str, str, str]]] = {}
    for b, p, d, p2 in t2.trans:
        by_mid.setdefault(b, []).append((p, d, p2))
    quads = set()
    for a, q, b, q2 in t1.trans:
        for p, d, p2 in by_mid.get(b, ()):
            quads.add((a, pair(q, p), d, pair(q2, p2)))
    return transducer(
        t1.input, t2.output, states, quads,
        {pair(q, p) for q in t1.initial for p in t2.initial},
        {pair(q, p) for q in t1.final for p in t2.final},
    )


def product_transducers(t1: Transducer, t2: Transducer) -> Transducer:
    """Parallel product over the product alphabets, positionwise."""
    states = product_alphabet(t1.states, t2.states)
    spair = pair_symbol(t1.states, t2.states)
    ipair = pair_symbol(t1.input, t2.input)
    opair = pair_symbol(t1.output, t2.output)
    quads = set()
    for a, q, b, q2 in t1.trans:
        for c, p, d, p2 in t2.trans:
            quads.add((ipair(a, c), spair(q, p), opair(b, d), spair(q2, p2)))
    return transducer(
        product_alphabet(t1.input, t2.input),
        product_alphabet(t1.output, t2.output),
        states, quads,
        {spair(q, p) for q in t1.initial for p in t2.initial},
        {spair(q, p) for q in t1.final for p in t2.final},
    )


def lift_transducer(r: Rel) -> Transducer:
    """One-state transducer whose behavior is the letterwise lift of ``r``,
    over its domain and codomain bundles each packed into one alphabet."""
    star = UNIT.elements[0]
    quads = {(pack_tuple(r.dom, x), star, pack_tuple(r.cod, y), star) for x, y in r.pairs}
    return transducer(pack_obj(r.dom), pack_obj(r.cod), UNIT, quads, {star}, {star})


# ---------------------------------------------------------------------------
# Reachability on state names: the walk the library ran before it walked
# positions and masks, which the name-based oracles still use.

def reachable(states, edges: dict[str, set[str]], seeds) -> set[str]:
    seen = set(seeds)
    todo = list(seeds) if len(seen) < len(states) else []
    while todo:
        q = todo.pop()
        for q2 in edges.get(q, ()):
            if q2 not in seen:
                seen.add(q2)
                todo.append(q2)
    return seen


def forward_edges(m: Machine) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for _, q, _, q2 in m.trans:
        out.setdefault(q, set()).add(q2)
    return out


def backward_edges(m: Machine) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for _, q, _, q2 in m.trans:
        out.setdefault(q2, set()).add(q)
    return out


# ---------------------------------------------------------------------------
# Whole machines.

def minimal_dfa(n: Nfa) -> Dfa:
    return minimize(determinize(n)[0])[0]


def subset_name(members, order: Alphabet) -> str:
    mask = mask_of(order, members)
    return subset_namer(order)(mask, bits(mask) if mask & (mask - 1) else None)


def rooted_iso(p1: Presentation, p2: Presentation) -> dict[str, str] | None:
    """Bijection between rooted right-resolving presentations: ``iso_check``
    on each read as a DFA rooted at its root (if any), every state final."""
    d1, d2 = (dfa(p.alphabet, p.states, triples(p), frozenset({p.root} - {None}),
                  frozenset(p.states.elements)) for p in (p1, p2))
    return iso_check(d1, d2)


def trim(n: Nfa) -> Nfa:
    """Keep only states lying on some path from an initial to a final state."""
    live = reachable(n.states, forward_edges(n), n.initial) & \
        reachable(n.states, backward_edges(n), n.final)
    return nfa(
        n.alphabet, Alphabet(n.states.name, tuple(q for q in n.states.elements if q in live)),
        {(q, a, q2) for q, a, q2 in triples(n) if q in live and q2 in live},
        n.initial & live, n.final & live,
    )


def factor_closure(n: Nfa) -> Nfa:
    """Automaton for all factors of accepted words: trim, then make every
    remaining state both initial and final."""
    t = trim(n)
    return nfa(t.alphabet, t.states, triples(t), t.states.elements, t.states.elements)


def is_factor_closed(n: Nfa) -> bool:
    return nfa_equiv(n, factor_closure(n))


def is_pruned_lang(n: Nfa) -> bool:
    return nfa_equiv(n, prune_language(n))


def presentations_equiv(p1: Presentation, p2: Presentation) -> bool:
    """Whether two presentations present the same sofic subshift: whether
    their factor languages are equal."""
    return nfa_equiv(factor_language(p1), factor_language(p2))


def load_file(path):
    return io.load_tagged(path)[1]


# ---------------------------------------------------------------------------
# Terms.

def diagrams_equiv(d1: Diagram, d2: Diagram) -> tuple[bool, Chain | None]:
    """Whether two terms denote the same uniform relation, with the
    certificate chain of an "equal" verdict."""
    n1, n2 = acceptors(d1, d2)
    if not nfa_equiv(n1, n2):
        return False, None
    return True, equiv_chain(n1, n2)


def verify_equiv_certificate(c: Chain) -> bool:
    """Re-check every link of a certificate chain."""
    return all(check_fin(*link).ok for link in (*c.left, *c.right, c.iso))


def slide(s: Rel, body: Diagram, initial, final, side: str = "left") -> tuple[Diagram, Diagram]:
    """Both sides of the sliding equation for ``s`` and an open loop body.

    ``body`` must have the sliding wire last on both boundaries: its domain
    ends in the codomain wire of ``s`` and its codomain in the domain wire.
    ``initial`` labels the domain-side wire of ``s`` and ``final`` the
    codomain-side wire; the other two label sets are forced (image and
    preimage under ``s``).  ``side`` selects which diagram comes first:
    "left" starts with the loop where ``s`` precedes the body.
    """
    if side not in ("left", "right"):
        raise MachineError(f"unknown side {side!r}")
    if len(s.dom.flat) != 1 or len(s.cod.flat) != 1:
        raise TypeMismatch("sliding expects a single-wire relation")
    wire_d = s.dom.flat[0]
    wire_c = s.cod.flat[0]
    db, cb = type_of(body)
    if not db.flat or db.flat[-1].elements != wire_c.elements:
        raise TypeMismatch("body domain must end in the codomain wire of the relation")
    if not cb.flat or cb.flat[-1].elements != wire_d.elements:
        raise TypeMismatch("body codomain must end in the domain wire of the relation")
    initial = wire_d.check_subset(initial)
    final = wire_c.check_subset(final)
    a_obj = Obj(db.flat[:-1])
    b_obj = Obj(cb.flat[:-1])

    image = frozenset(y[0] for x, y in s.pairs if x[0] in initial)
    preimage = frozenset(x[0] for x, y in s.pairs if y[0] in final)

    after = Feedback(wire_c, image, final, Seq(body, Par(Id(b_obj), Box(s))))
    before = Feedback(wire_d, initial, preimage, Seq(Par(Id(a_obj), Box(s)), body))
    return (before, after) if side == "left" else (after, before)
