"""Seeded random generators for machines and diagram terms."""

from __future__ import annotations

import random
import string

from helpers import dfa, image, product_alphabet, rel, triples, type_of
from relmach.automata import Dfa, Nfa, nfa
from relmach.diagram import Box, Diagram, Feedback, Id, Par, Seq, Swap
from relmach.relcore import UNIT, Alphabet, Obj, Rel, UNIT_OBJ, obj, pack_obj
from relmach.sofic import Presentation, presentation
from relmach.transducer import Transducer, transducer


def random_alphabet(rng: random.Random, name: str, max_size: int = 2, min_size: int = 1) -> Alphabet:
    size = rng.randint(min_size, max_size)
    return Alphabet(name, tuple(string.ascii_lowercase[i] for i in range(size)))


def random_rel(rng: random.Random, dom: Obj, cod: Obj, density: float = 0.4,
               max_pairs: int | None = None) -> Rel:
    pairs = [
        (x, y)
        for x in dom.tuples()
        for y in cod.tuples()
        if rng.random() < density
    ]
    if max_pairs is not None and len(pairs) > max_pairs:
        pairs = rng.sample(pairs, max_pairs)
    return rel(dom, cod, pairs)


def random_subset(rng: random.Random, a: Alphabet, p: float = 0.5) -> frozenset[str]:
    return frozenset(x for x in a.elements if rng.random() < p)


def random_transducer(rng: random.Random, max_states: int = 3, max_alpha: int = 2,
                      input: Alphabet | None = None, output: Alphabet | None = None,
                      density: float = 0.3, states: Alphabet | None = None) -> Transducer:
    if input is None:
        input = random_alphabet(rng, "A", max_alpha)
    if output is None:
        output = random_alphabet(rng, "B", max_alpha)
    if states is None:
        states = Alphabet("Q", tuple(f"q{i}" for i in range(rng.randint(1, max_states))))
    quads = {
        (a, q, b, q2)
        for a in input.elements
        for q in states.elements
        for b in output.elements
        for q2 in states.elements
        if rng.random() < density
    }
    return transducer(input, output, states, quads,
                      random_subset(rng, states), random_subset(rng, states))


def random_nfa(rng: random.Random, max_states: int = 4, max_alpha: int = 2,
               density: float = 0.3, alphabet: Alphabet | None = None) -> Nfa:
    if alphabet is None:
        alphabet = random_alphabet(rng, "A", max_alpha)
    nstates = rng.randint(1, max_states)
    states = Alphabet("Q", tuple(f"q{i}" for i in range(nstates)))
    trans = {
        (q, a, q2)
        for q in states.elements
        for a in alphabet.elements
        for q2 in states.elements
        if rng.random() < density
    }
    return nfa(alphabet, states, trans,
               random_subset(rng, states), random_subset(rng, states))


def random_dfa(rng: random.Random, max_states: int = 5, alphabet: Alphabet | None = None,
               density: float = 0.7) -> Dfa:
    """A partial DFA with 0 to ``max_states`` states, each state and letter
    given a successor with probability ``density``; usually not trim."""
    if alphabet is None:
        alphabet = random_alphabet(rng, "A", 2)
    states = Alphabet("Q", tuple(f"q{i}" for i in range(rng.randint(0, max_states))))
    trans = {(q, a, rng.choice(states.elements)) for q in states.elements for a in alphabet.elements
             if rng.random() < density}
    initial = {rng.choice(states.elements)} if states.elements and rng.random() < 0.9 else set()
    return dfa(alphabet, states, trans, initial, random_subset(rng, states))


def renamed_copy(rng: random.Random, d: Dfa) -> Dfa:
    """``d`` with fresh state names, listed in a shuffled order."""
    fresh = [f"r{i}" for i in range(len(d.states))]
    rng.shuffle(fresh)
    name = dict(zip(d.states.elements, fresh))
    return dfa(d.alphabet, Alphabet("R", tuple(sorted(fresh))),
               {(name[q], a, name[q2]) for q, a, q2 in triples(d)},
               {name[q] for q in d.initial}, {name[q] for q in d.final})


def one_transition_mutant(rng: random.Random, d: Dfa) -> Dfa:
    """``d`` with the transition of one state and letter added, dropped or
    retargeted (possibly onto the same state)."""
    if not d.states.elements:
        return d
    q, a = rng.choice(d.states.elements), rng.choice(d.alphabet.elements)
    kept = {t for t in triples(d) if t[:2] != (q, a)}
    if rng.random() < 0.7:
        kept.add((q, a, rng.choice(d.states.elements)))
    return dfa(d.alphabet, d.states, kept, d.initial, d.final)


def random_presentation(rng: random.Random, max_states: int = 5, max_alpha: int = 2,
                        density: float = 0.3, alphabet: Alphabet | None = None) -> Presentation:
    if alphabet is None:
        alphabet = random_alphabet(rng, "A", max_alpha)
    nstates = rng.randint(1, max_states)
    states = Alphabet("Q", tuple(f"q{i}" for i in range(nstates)))
    trans = {
        (q, a, q2)
        for q in states.elements
        for a in alphabet.elements
        for q2 in states.elements
        if rng.random() < density
    }
    return presentation(alphabet, states, trans)


# ---------------------------------------------------------------------------
# Random well-typed diagram terms.

def _leaf(rng: random.Random, dom: Obj, cod: Obj) -> Diagram:
    if dom.signature() == cod.signature() and rng.random() < 0.2:
        return Id(dom)
    return Box(random_rel(rng, dom, cod, density=0.45, max_pairs=4))


def _mid_obj(rng: random.Random, dom: Obj, cod: Obj) -> Obj:
    pool = list(dom.flat) + list(cod.flat)
    if not pool or rng.random() < 0.2:
        return UNIT_OBJ
    return obj(rng.choice(pool))


def random_diagram(rng: random.Random, dom: Obj, cod: Obj, nodes: int = 6,
                   feedbacks: int = 2) -> Diagram:
    """A well-typed term with at most ``nodes`` constructors."""
    if nodes <= 1:
        return _leaf(rng, dom, cod)
    options = ["seq", "seq", "leaf"]
    if feedbacks > 0:
        options += ["feedback", "feedback"]
    if len(dom.flat) <= 1 and len(cod.flat) <= 1:
        options.append("par")
    choice = rng.choice(options)
    if choice == "seq":
        mid = _mid_obj(rng, dom, cod)
        split = rng.randint(1, nodes - 2) if nodes > 2 else 1
        return Seq(
            random_diagram(rng, dom, mid, split, feedbacks),
            random_diagram(rng, mid, cod, nodes - 1 - split, 0),
        )
    if choice == "feedback":
        wire = Alphabet("W", tuple(f"s{i}" for i in range(rng.randint(1, 2))))
        body = random_diagram(rng, dom + obj(wire), cod + obj(wire), nodes - 1, feedbacks - 1)
        return Feedback(wire, random_subset(rng, wire, 0.7), random_subset(rng, wire, 0.7), body)
    if choice == "par":
        # pad with a closed (unit-boundary) component so the type is unchanged
        half = (nodes - 1) // 2
        main = random_diagram(rng, dom, cod, max(1, half), 0)
        pad = random_diagram(rng, UNIT_OBJ, UNIT_OBJ, max(1, nodes - 1 - half), feedbacks)
        return Par(main, pad) if rng.random() < 0.5 else Par(pad, main)
    return _leaf(rng, dom, cod)


def random_bundle(rng: random.Random, pool: list[Alphabet]) -> Obj:
    """One or two wires drawn from ``pool``, sometimes with a unit wire among them."""
    wires = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        wires.insert(rng.randint(0, len(wires)), UNIT)
    return Obj(tuple(wires))


def random_wired_diagram(rng: random.Random, dom: Obj, cod: Obj, nodes: int = 6,
                         feedbacks: int = 2) -> Diagram:
    """A well-typed term with at most ``nodes`` constructors, drawn the ways
    ``random_diagram`` never draws one: ``Swap`` leaves, ``Par`` of two open
    halves, bundles with unit wires inside them, and loops around these."""
    if nodes <= 1:
        if len(dom.wires) == 2 and cod.wires == dom.wires[::-1]:
            return Swap(*dom.wires)
        return _leaf(rng, dom, cod)
    choice = rng.choice(["seq", "swap", "par", "par"] + ["feedback"] * (feedbacks > 0))
    if choice == "swap" and len(dom.wires) >= 2:
        a, b, *rest = dom.wires
        rest = Obj(tuple(rest))
        return Seq(Par(Swap(a, b), Id(rest)),
                   random_wired_diagram(rng, obj(b, a) + rest, cod, nodes - 2, feedbacks))
    if choice == "par" and len(dom.wires) >= 2 and len(cod.wires) >= 2:
        i = rng.randint(1, len(dom.wires) - 1)
        j = rng.randint(1, len(cod.wires) - 1)
        half = max(1, (nodes - 1) // 2)
        return Par(
            random_wired_diagram(rng, Obj(dom.wires[:i]), Obj(cod.wires[:j]), half, feedbacks),
            random_wired_diagram(rng, Obj(dom.wires[i:]), Obj(cod.wires[j:]),
                                 max(1, nodes - 1 - half), 0),
        )
    if choice == "feedback":
        wire = Alphabet("W", tuple(f"s{i}" for i in range(rng.randint(1, 2))))
        body = random_wired_diagram(rng, dom + obj(wire), cod + obj(wire), nodes - 1, feedbacks - 1)
        return Feedback(wire, random_subset(rng, wire, 0.7), random_subset(rng, wire, 0.7), body)
    pool = list(dom.flat) + list(cod.flat)
    mid = random_bundle(rng, pool) if pool else UNIT_OBJ
    split = rng.randint(1, nodes - 2) if nodes > 2 else 1
    return Seq(
        random_wired_diagram(rng, dom, mid, split, feedbacks),
        random_wired_diagram(rng, mid, cod, nodes - 1 - split, 0),
    )


def boxes_of(d: Diagram) -> list[Box]:
    match d:
        case Box():
            return [d]
        case Seq(first=f, second=s) | Par(left=f, right=s):
            return boxes_of(f) + boxes_of(s)
        case Feedback(body=b):
            return boxes_of(b)
        case _:
            return []


def replace_box(d: Diagram, target: Box, new: Box) -> Diagram:
    match d:
        case Box():
            return new if d is target else d
        case Seq(first=f, second=s):
            return Seq(replace_box(f, target, new), replace_box(s, target, new))
        case Par(left=l, right=r):
            return Par(replace_box(l, target, new), replace_box(r, target, new))
        case Feedback(wire=w, initial=i, final=fl, body=b):
            return Feedback(w, i, fl, replace_box(b, target, new))
        case _:
            return d


def alter_one_box(rng: random.Random, d: Diagram) -> Diagram | None:
    """Flip one pair in one box relation; None when the term has no boxes."""
    boxes = boxes_of(d)
    if not boxes:
        return None
    target = rng.choice(boxes)
    r = target.rel
    space = [(x, y) for x in r.dom.tuples() for y in r.cod.tuples()]
    if not space:
        return None
    flip = rng.choice(space)
    pairs = set(r.pairs)
    if flip in pairs:
        pairs.discard(flip)
    else:
        pairs.add(flip)
    return replace_box(d, target, Box(rel(r.dom, r.cod, pairs)))


# ---------------------------------------------------------------------------
# Language-preserving mutations.

def merge_boxes(d: Diagram) -> Diagram | None:
    """Rewrite the first Seq-of-boxes into a single composed box."""
    from helpers import compose

    match d:
        case Seq(first=Box(rel=r1), second=Box(rel=r2)):
            return Box(compose(r1, r2))
        case Seq(first=f, second=s):
            inner = merge_boxes(f)
            if inner is not None:
                return Seq(inner, s)
            inner = merge_boxes(s)
            return None if inner is None else Seq(f, inner)
        case Par(left=l, right=r):
            inner = merge_boxes(l)
            if inner is not None:
                return Par(inner, r)
            inner = merge_boxes(r)
            return None if inner is None else Par(l, inner)
        case Feedback(wire=w, initial=i, final=fl, body=b):
            inner = merge_boxes(b)
            return None if inner is None else Feedback(w, i, fl, inner)
        case _:
            return None


def merge_feedbacks(d: Diagram) -> Diagram | None:
    """Fuse the first nested pair of feedbacks into one over the packed wire."""
    match d:
        case Feedback(wire=w1, initial=i1, final=f1,
                      body=Feedback(wire=w2, initial=i2, final=f2, body=inner)):
            db, cb = type_of(inner)
            prefix_dom = Obj(db.flat[:-2])
            prefix_cod = Obj(cb.flat[:-2])
            packed = Alphabet(f"{w1.name}+{w2.name}", product_alphabet(w1, w2).elements)
            two = obj(w1, w2)
            unpack = rel(obj(packed), two,
                         {((pack_obj(two).elements[k],), t)
                          for k, t in enumerate(two.tuples())})
            pack = rel(two, obj(packed),
                       {(t, (pack_obj(two).elements[k],))
                        for k, t in enumerate(two.tuples())})
            packed_i = frozenset(image(pack, (a, b)).pop()[0] for a in i1 for b in i2)
            packed_f = frozenset(image(pack, (a, b)).pop()[0] for a in f1 for b in f2)
            body2 = Seq(Seq(Par(Id(prefix_dom), Box(unpack)), inner),
                        Par(Id(prefix_cod), Box(pack)))
            return Feedback(packed, packed_i, packed_f, body2)
        case Seq(first=f, second=s):
            inner = merge_feedbacks(f)
            if inner is not None:
                return Seq(inner, s)
            inner = merge_feedbacks(s)
            return None if inner is None else Seq(f, inner)
        case Par(left=l, right=r):
            inner = merge_feedbacks(l)
            if inner is not None:
                return Par(inner, r)
            inner = merge_feedbacks(r)
            return None if inner is None else Par(l, inner)
        case Feedback(wire=w, initial=i, final=fl, body=b):
            inner = merge_feedbacks(b)
            return None if inner is None else Feedback(w, i, fl, inner)
        case _:
            return None


def rename_feedback(rng: random.Random, d: Diagram) -> Diagram | None:
    """Slide a bijection around the first feedback loop, renaming its wire."""
    match d:
        case Feedback(wire=w, initial=i, final=fl, body=b):
            perm = list(w.elements)
            rng.shuffle(perm)
            fresh = Alphabet(w.name + "'", tuple(f"{x}_r" for x in w.elements))
            sigma = {old: fresh.elements[perm.index(old)] for old in w.elements}
            fwd = rel(obj(w), obj(fresh), {((x,), (sigma[x],)) for x in w.elements})
            bwd = rel(obj(fresh), obj(w), {((sigma[x],), (x,)) for x in w.elements})
            db, cb = type_of(b)
            prefix_dom = Obj(db.flat[:-1])
            prefix_cod = Obj(cb.flat[:-1])
            body2 = Seq(Seq(Par(Id(prefix_dom), Box(bwd)), b), Par(Id(prefix_cod), Box(fwd)))
            return Feedback(fresh, frozenset(sigma[x] for x in i),
                            frozenset(sigma[x] for x in fl), body2)
        case Seq(first=f, second=s):
            inner = rename_feedback(rng, f)
            if inner is not None:
                return Seq(inner, s)
            inner = rename_feedback(rng, s)
            return None if inner is None else Seq(f, inner)
        case Par(left=l, right=r):
            inner = rename_feedback(rng, l)
            if inner is not None:
                return Par(inner, r)
            inner = rename_feedback(rng, r)
            return None if inner is None else Par(l, inner)
        case _:
            return None


def preserving_mutation(rng: random.Random, d: Diagram) -> Diagram:
    """Apply one applicable language-preserving rewrite (identity fallback)."""
    mutators = [merge_feedbacks, lambda t: rename_feedback(rng, t), merge_boxes]
    rng.shuffle(mutators)
    for m in mutators:
        out = m(d)
        if out is not None:
            return out
    dom, _ = type_of(d)
    return Seq(Id(dom), d)
