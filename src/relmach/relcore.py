"""Finite named alphabets, wire bundles, and extensional typed relations.

Everything in this module is an immutable value: alphabets are ordered
finite sets of symbol names, objects are lists of alphabets (wire
bundles), and relations are explicit sets of (domain tuple, codomain
tuple) pairs.  The library builds only the relations its machines are
made of: identities, swaps and the cap that bends a term (``cap_obj``).
The algebra of the paper's uniform relations (composition, product, cups
and caps, and the function and subset predicates) is the tests' reference
semantics and lives in ``tests/helpers.py``; equality of relations is
exact set equality, so its laws (associativity, bifunctoriality, snake
equations, ...) are checked there by enumeration.

Bracketing of bundles is always flat, and wires carrying the unit
alphabet are dropped when computing tuple spaces, so the empty bundle and
a unit wire are interchangeable.

Validation contract: every constructor validates all of its input, each
pair of a relation included, and the constructors of the layers above do
the same for transitions, roots, label sets and the type of a diagram
node, which it sets once, from its children's, when it is built.  A
symbol lookup costs O(1) through the symbol→position dict each alphabet
keeps.  A relation checks its distinct domain and codomain tuples column
by column, and so does :func:`check_rows` for the transitions every
machine stores: triples (state, letter, next state) or quadruples (input
letter, state, output letter, next state).  A machine's transition
relation is not stored; the simulation checker enumerates its conditions
from the rows.
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
        if not isinstance(self.name, str):
            raise MachineError(f"alphabet name {self.name!r} is not a string")
        elements = tuple(self.elements)
        if not set(map(type, elements)) <= {str}:
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


def identity(o: Obj) -> Rel:
    return Rel(o, o, frozenset((t, t) for t in o.tuples()))


def swap(a: Alphabet, b: Alphabet) -> Rel:
    d = obj(a, b)
    return Rel(d, obj(b, a), frozenset((t, t[::-1]) for t in d.tuples()))


def cap_obj(o: Obj) -> Rel:
    """Cap over a whole bundle: o ++ o → 1, relating each doubled tuple to ()."""
    return Rel(o + o, UNIT_OBJ, frozenset((t + t, ()) for t in o.tuples()))


def material(a: Alphabet) -> Alphabet:
    """A copy of ``a`` that is never the unit, for use as a state space."""
    return Alphabet("Q", a.elements) if is_unit(a) else a


def tuple_symbol(t: tuple[str, ...]) -> str:
    """Canonical name of a tuple when a bundle is packed into one wire."""
    if len(t) == 1:
        return t[0]
    return "(" + ",".join(t) + ")"


def pack_obj(o: Obj) -> Alphabet:
    """Collapse a bundle into a single alphabet over its tuple space.

    The empty bundle packs to the unit alphabet and a single wire packs to
    itself, so packing is idempotent; elements are in row-major order.
    """
    flat = o.flat
    if not flat:
        return UNIT
    if len(flat) == 1:
        return flat[0]
    return Alphabet("x".join(w.name for w in flat), tuple(tuple_symbol(t) for t in o.tuples()))


def pack_tuple(o: Obj, t: tuple[str, ...]) -> str:
    """The packed symbol of a tuple of ``o`` (unit wires already dropped)."""
    flat = o.flat
    if not flat:
        return UNIT.elements[0]
    if len(flat) == 1:
        return t[0]
    return tuple_symbol(t)


def product_alphabet(a: Alphabet, b: Alphabet) -> Alphabet:
    """Product of two alphabets; the unit is a strict neutral element."""
    if is_unit(a):
        return b
    if is_unit(b):
        return a
    return pack_obj(obj(a, b))


def pair_symbol(a: Alphabet, b: Alphabet):
    """Pairing function matching :func:`product_alphabet`'s element names."""
    if is_unit(a):
        return lambda x, y: y
    if is_unit(b):
        return lambda x, y: x
    return lambda x, y: tuple_symbol((x, y))

