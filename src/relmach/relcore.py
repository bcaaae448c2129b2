"""Finite named alphabets, wire bundles, and extensional typed relations.

Everything in this module is an immutable value: alphabets are ordered
finite sets of symbol names, objects are lists of alphabets (wire
bundles), and relations are explicit sets of (domain tuple, codomain
tuple) pairs.  All operations are pure, and equality of relations is
exact set equality, so the algebraic laws (associativity, bifunctoriality,
snake equations, ...) can be checked by enumeration.

Bracketing of bundles is always flat, and wires carrying the unit
alphabet are dropped when computing tuple spaces, so the empty bundle and
a unit wire are interchangeable.

Validation contract: every constructor validates all of its input, each
pair of a relation included, and the constructors of the layers above do
the same for transitions, roots and label sets.  A symbol lookup costs
O(1) through the symbol→position dict each alphabet keeps.  A relation
checks its distinct domain and codomain tuples column by column, and so
does :func:`check_rows` for the transitions every machine stores: triples
(state, letter, next state) or quadruples (input letter, state, output
letter, next state).  A machine's transition relation is not stored; the
simulation checker enumerates its conditions from the rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import getitem
from typing import Collection, Iterable, Iterator


class MachineError(Exception):
    """Base class for all structured errors raised by this package."""


class TypeMismatch(MachineError):
    """Raised when two values cannot be combined because their types differ."""


class ShapeError(MachineError):
    """Raised when a transition is not a tuple of as many symbols as its
    machine's transitions have."""


@dataclass(frozen=True)
class Alphabet:
    """A named finite set of symbols with a fixed, canonical order."""

    name: str
    elements: tuple[str, ...]
    _pos: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        if not all(isinstance(s, str) for s in elements):
            raise MachineError(f"alphabet {self.name!r} has a non-string element")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_pos", dict(zip(elements, range(len(elements)))))
        if len(self._pos) != len(elements):
            raise MachineError(f"alphabet {self.name!r} has duplicate elements")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, symbol: str) -> bool:
        try:
            return symbol in self._pos
        except TypeError:  # unhashable, so not a symbol
            return False

    def index(self, symbol: str) -> int:
        try:
            return self._pos[symbol]
        except (KeyError, TypeError):
            raise MachineError(f"symbol {symbol!r} not in alphabet {self.name!r}") from None

    def check_subset(self, symbols: Iterable[str]) -> frozenset[str]:
        """Validate ``symbols ⊆ elements`` and return them as a frozenset."""
        out = frozen(symbols, "symbol set")
        if not self._pos.keys() >= out:
            bad = next(s for s in out if s not in self)
            raise MachineError(f"symbol {bad!r} not in alphabet {self.name!r}")
        return out

    def sort(self, symbols: Iterable[str]) -> list[str]:
        """Sort symbols in canonical (alphabet) order."""
        return sorted(symbols, key=self.index)


def frozen(items, what: str) -> frozenset:
    """``frozenset(items)``, raising :class:`MachineError` on unhashable items."""
    try:
        return frozenset(items)
    except TypeError as e:
        raise MachineError(f"{what} is not a set of hashable values ({e})") from None


def check_rows(rows, columns: dict[int, Alphabet]) -> frozenset:
    """Validate ``rows`` as a set of transitions, tuples with one symbol of
    ``columns[i]`` at each position ``i``, and return it as a frozenset.

    The rows are checked column by column, like the pairs of a :class:`Rel`.
    Only when that fails are they scanned one by one, each checked at the
    positions in the order of ``columns``, to name the first offender.
    """
    out = frozen(rows, "transitions")
    arity = len(columns)
    try:
        if set(map(len, out)) <= {arity} and all(
                columns[i]._pos.keys() >= set(col) for i, col in enumerate(zip(*out))):
            return out
    except TypeError:  # a row without a length; the scan below reports it
        pass
    for row in out:
        if not isinstance(row, tuple) or len(row) != arity:
            raise ShapeError(f"transition {row!r} is not a tuple of {arity} symbols")
        for i, a in columns.items():
            a.index(row[i])
    return out


#: The monoidal unit: a one-element alphabet.  A wire labeled by it is
#: interchangeable with no wire at all.
UNIT = Alphabet("unit", ("*",))


def is_unit(a: Alphabet) -> bool:
    return a == UNIT


@dataclass(frozen=True)
class Obj:
    """An ordered bundle of wires.  The empty bundle is the monoidal unit."""

    wires: tuple[Alphabet, ...]
    # Wires with unit wires dropped; this is what tuples range over.
    flat: tuple[Alphabet, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(self.wires))
        object.__setattr__(self, "flat", tuple(w for w in self.wires if not is_unit(w)))

    def tuples(self) -> Iterator[tuple[str, ...]]:
        """Enumerate the tuple space in row-major canonical order."""
        return itertools.product(*[w.elements for w in self.flat])

    def size(self) -> int:
        n = 1
        for w in self.flat:
            n *= len(w)
        return n

    def contains_tuples(self, ts: Collection[tuple[str, ...]]) -> bool:
        """Whether every tuple of ``ts`` is in the tuple space, checked per column."""
        if set(map(len, ts)) - {len(self.flat)}:
            return False
        return all(w._pos.keys() >= set(col) for w, col in zip(self.flat, zip(*ts)))

    def signature(self) -> tuple[tuple[str, ...], ...]:
        """Per-wire element lists; two objects are composable iff equal."""
        return tuple(w.elements for w in self.flat)

    def __add__(self, other: "Obj") -> "Obj":
        return Obj(self.wires + other.wires)


def obj(*wires: Alphabet) -> Obj:
    return Obj(tuple(wires))


UNIT_OBJ = Obj(())

Pair = tuple[tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True)
class Rel:
    """A typed relation between the tuple spaces of two objects."""

    dom: Obj
    cod: Obj
    pairs: frozenset[Pair] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozen(self.pairs, "relation"))
        try:
            if self.dom.contains_tuples({x for x, _ in self.pairs}) \
                    and self.cod.contains_tuples({y for _, y in self.pairs}):
                return
        except (TypeError, ValueError):  # a malformed pair; the scan below reports it
            pass
        for x, y in self.pairs:  # locate the first offending pair
            if not self.dom.contains_tuples((x,)):
                raise MachineError(f"pair component {x!r} is not a valid domain tuple")
            if not self.cod.contains_tuples((y,)):
                raise MachineError(f"pair component {y!r} is not a valid codomain tuple")

    def sorted_pairs(self) -> list[Pair]:
        """Pairs in canonical order (by per-wire symbol indices).  Every
        domain tuple has one symbol per domain wire, so ordering by the
        indices of x + y orders by those of x, then by those of y."""
        positions = [w._pos for w in self.dom.flat + self.cod.flat]
        return sorted(self.pairs, key=lambda p: tuple(map(getitem, positions, p[0] + p[1])))

    def image(self, x: tuple[str, ...]) -> set[tuple[str, ...]]:
        return {b for a, b in self.pairs if a == x}


def rel(dom: Obj, cod: Obj, pairs: Iterable[Pair]) -> Rel:
    return Rel(dom, cod, pairs)


def _require_same_type(a: Obj, b: Obj, what: str) -> None:
    if a.signature() != b.signature():
        raise TypeMismatch(f"{what}: {_describe(a)} vs {_describe(b)}")


def _describe(o: Obj) -> str:
    return "[" + ", ".join(w.name for w in o.wires) + "]" if o.wires else "[]"


def compose(r: Rel, s: Rel) -> Rel:
    """Relational composition, diagrammatic order: first ``r`` then ``s``."""
    _require_same_type(r.cod, s.dom, "cannot compose: codomain/domain mismatch")
    by_mid: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
    for y, z in s.pairs:
        by_mid.setdefault(y, set()).add(z)
    out = set()
    for x, y in r.pairs:
        for z in by_mid.get(y, ()):
            out.add((x, z))
    return Rel(r.dom, s.cod, frozenset(out))


def product(r: Rel, s: Rel) -> Rel:
    """Parallel product: wires concatenate and pairs combine componentwise."""
    out = frozenset(
        ((x1 + x2), (y1 + y2)) for x1, y1 in r.pairs for x2, y2 in s.pairs
    )
    return Rel(r.dom + s.dom, r.cod + s.cod, out)


def transpose(r: Rel) -> Rel:
    return Rel(r.cod, r.dom, frozenset((y, x) for x, y in r.pairs))


def identity(o: Obj) -> Rel:
    return Rel(o, o, frozenset((t, t) for t in o.tuples()))


def swap(a: Alphabet, b: Alphabet) -> Rel:
    d = obj(a, b)
    return Rel(d, obj(b, a), frozenset((t, t[::-1]) for t in d.tuples()))


def cup(a: Alphabet) -> Rel:
    """The relation 1 → A×A pairing the empty tuple with every diagonal."""
    return Rel(UNIT_OBJ, obj(a, a), frozenset(((), (x, x)) for x in a.elements))


def cap(a: Alphabet) -> Rel:
    return transpose(cup(a))


def cup_obj(o: Obj) -> Rel:
    """Cup over a whole bundle: 1 → o ++ o."""
    return Rel(UNIT_OBJ, o + o, frozenset(((), t + t) for t in o.tuples()))


def cap_obj(o: Obj) -> Rel:
    return transpose(cup_obj(o))


def full_to_unit(o: Obj) -> Rel:
    """The maximal relation o → 1, written as a filled dot in diagrams."""
    return Rel(o, UNIT_OBJ, frozenset((t, ()) for t in o.tuples()))


def is_partial_function(r: Rel) -> bool:
    seen: set[tuple[str, ...]] = set()
    for x, _ in r.pairs:
        if x in seen:
            return False
        seen.add(x)
    return True


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


def subset_as_point(a: Alphabet, symbols: Iterable[str]) -> Rel:
    """Encode a subset of ``a`` as a relation 1 → a."""
    chosen = a.check_subset(symbols)
    target = obj(a)
    return Rel(UNIT_OBJ, target,
               frozenset(((), (x,) if target.flat else ()) for x in chosen))


def subset_as_copoint(a: Alphabet, symbols: Iterable[str]) -> Rel:
    """Encode a subset of ``a`` as a relation a → 1."""
    chosen = a.check_subset(symbols)
    source = obj(a)
    return Rel(source, UNIT_OBJ,
               frozenset((((x,) if source.flat else ()), ()) for x in chosen))


def material(a: Alphabet) -> Alphabet:
    """A copy of ``a`` that is never the unit, for use as a state space."""
    return Alphabet("Q", a.elements) if is_unit(a) else a


def tuple_symbol(t: tuple[str, ...]) -> str:
    """Canonical name of a tuple when a bundle is packed into one wire."""
    if len(t) == 1:
        return t[0]
    return "(" + ",".join(t) + ")"


def pack_obj(o: Obj, name: str | None = None) -> Alphabet:
    """Collapse a bundle into a single alphabet over its tuple space.

    The empty bundle packs to the unit alphabet and a single wire packs to
    itself, so packing is idempotent; elements are in row-major order.
    """
    flat = o.flat
    if not flat:
        return UNIT
    if len(flat) == 1:
        return flat[0]
    if name is None:
        name = "x".join(w.name for w in flat)
    return Alphabet(name, tuple(tuple_symbol(t) for t in o.tuples()))


def pack_tuple(o: Obj, t: tuple[str, ...]) -> str:
    """The packed symbol of a tuple of ``o`` (unit wires already dropped)."""
    flat = o.flat
    if not flat:
        return UNIT.elements[0]
    if len(flat) == 1:
        return t[0]
    return tuple_symbol(t)


def pack_rel(r: Rel) -> Rel:
    """View a relation between bundles as one between single packed wires."""
    d, c = pack_obj(r.dom), pack_obj(r.cod)
    dd = UNIT_OBJ if is_unit(d) else obj(d)
    cc = UNIT_OBJ if is_unit(c) else obj(c)
    pairs = frozenset(
        (
            () if is_unit(d) else (pack_tuple(r.dom, x),),
            () if is_unit(c) else (pack_tuple(r.cod, y),),
        )
        for x, y in r.pairs
    )
    return Rel(dd, cc, pairs)


def product_alphabet(a: Alphabet, b: Alphabet, name: str | None = None) -> Alphabet:
    """Product of two alphabets; the unit is a strict neutral element."""
    if is_unit(a):
        return b
    if is_unit(b):
        return a
    return pack_obj(obj(a, b), name)


def pair_symbol(a: Alphabet, b: Alphabet):
    """Pairing function matching :func:`product_alphabet`'s element names."""
    if is_unit(a):
        return lambda x, y: y
    if is_unit(b):
        return lambda x, y: x
    return lambda x, y: tuple_symbol((x, y))


def unpair_symbol(a: Alphabet, b: Alphabet):
    """Index-based inverse of :func:`pair_symbol`."""
    if is_unit(a):
        return lambda s: (UNIT.elements[0], s)
    if is_unit(b):
        return lambda s: (s, UNIT.elements[0])
    prod = product_alphabet(a, b)

    def split(s: str) -> tuple[str, str]:
        i = prod.index(s)
        return a.elements[i // len(b)], b.elements[i % len(b)]

    return split
