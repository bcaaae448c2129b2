"""Finite named alphabets, wire bundles, and extensional typed relations.

Everything in this module is an immutable value: alphabets are ordered
finite sets of symbol names, objects are lists of alphabets (wire
bundles), and relations are explicit sets of (domain tuple, codomain
tuple) pairs.  The library builds only the relations its machines are
made of: identities and swaps.  The algebra of the paper's uniform
relations (composition, product, cups and caps, and the function and
subset predicates) is the tests' reference semantics and lives in
``tests/helpers.py``; equality of relations is exact set equality, so its
laws (associativity, bifunctoriality, snake equations, ...) are checked
there by enumeration.

Bracketing of bundles is always flat, and wires carrying the unit
alphabet are dropped when computing tuple spaces, so the empty bundle and
a unit wire are interchangeable.

Validation contract: input is validated at the boundary.  The parser
and every public constructor validate all of their input, each pair of a
relation included, and so do the constructors of the layers above: the
one machine constructor (``transducer.Machine``) checks its label sets,
its rows and its root, and a diagram node sets its type once, from its
children's, when it is built.  A symbol lookup costs O(1) through each
alphabet's symbol→position dict.  A relation checks its distinct domain
and codomain tuples column by column, and so does :func:`check_rows` for
the rows every machine stores: quadruples (input letter, state, output
letter, next state), checked state columns first.  A value built from
validated ones and valid by construction (a normal form, an acceptor, a
determinized, minimized or pruned machine, a sample, a certificate
relation) is built by :func:`trusted`, which checks nothing again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import getitem, itemgetter
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


def trusted(cls, *values):
    """The dataclass ``cls``'s value with the given fields, in order, set
    without ``__post_init__``: only for values valid by construction, with
    their collections already frozensets."""
    x = object.__new__(cls)
    x.__dict__.update(zip(cls.__match_args__, values, strict=True))
    return x


def check_rows(rows, columns: dict[int, Alphabet]) -> frozenset:
    """Validate ``rows`` as a set of transitions, tuples with one symbol of
    ``columns[i]`` at each position ``i``, and return it as a frozenset.

    The rows are checked column by column, like the pairs of a :class:`Rel`.
    Only when that fails are they scanned one by one, in the order of
    ``rows`` if it is a list and else of the set, each checked at the
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
    for row in rows if isinstance(rows, list) else out:
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
        """Pairs in canonical order: by the per-wire symbol indices of x,
        then by those of y."""
        dom, cod = [w._pos for w in self.dom.flat], [w._pos for w in self.cod.flat]
        return grouped_pairs(self.pairs, lambda x: tuple(map(getitem, dom, x)),
                             lambda y: tuple(map(getitem, cod, y)))


def grouped_pairs(pairs: Collection[Pair], first_key, second_key) -> list[Pair]:
    """``pairs`` by ``first_key`` of the first word, then by ``second_key`` of
    the second, each key computed once per distinct word; the second words of
    one first word must share a length, as they are ordered by their key alone."""
    by_second: dict = {}
    for p in pairs:
        by_second.setdefault(p[1], []).append(p)
    by_first: dict = {}  # each bucket in second-word order
    for p in itertools.chain.from_iterable(map(by_second.__getitem__, sorted(by_second, key=second_key))):
        by_first.setdefault(p[0], []).append(p)
    return list(itertools.chain.from_iterable(map(by_first.__getitem__, sorted(by_first, key=first_key))))


def identity(o: Obj) -> Rel:
    return Rel(o, o, frozenset((t, t) for t in o.tuples()))


def swap(a: Alphabet, b: Alphabet) -> Rel:
    d = obj(a, b)
    return Rel(d, obj(b, a), frozenset((t, t[::-1]) for t in d.tuples()))


def material(a: Alphabet) -> Alphabet:
    """A copy of ``a`` that is never the unit, for use as a state space."""
    return Alphabet("Q", a.elements) if is_unit(a) else a


def comma_prefixed(a: Alphabet) -> bool:
    """Whether an element of ``a`` begins with another one and a comma, as
    "a,b" begins with "a", so that names joining elements by commas escape."""
    names = a.elements
    return "," in "".join(names) and any(
        q[:i] in a for q in names for i, c in enumerate(q) if c == ",")


def escape(symbol: str) -> str:
    """``symbol`` with its backslashes and commas escaped by a backslash."""
    return symbol.replace("\\", "\\\\").replace(",", "\\,")


def tuple_namer(o: Obj):
    """The function naming each tuple of ``o`` (unit wires dropped) in its
    packed wire: the unit's symbol, the one symbol, or the symbols in
    parentheses, comma-separated and, when a wire is :func:`comma_prefixed`,
    escaped, so distinct tuples get distinct names.  Decided once per bundle."""
    flat = o.flat
    if not flat:
        return lambda t: UNIT.elements[0]
    if len(flat) == 1:
        return itemgetter(0)
    if any(map(comma_prefixed, flat)):
        return lambda t: "(" + ",".join(map(escape, t)) + ")"
    return lambda t: "(" + ",".join(t) + ")"


def pack_obj(o: Obj, tuples=None) -> Alphabet:
    """Collapse a bundle into a single alphabet over its tuple space, in
    row-major order, or over ``tuples`` of it in the order given.

    The empty bundle packs to the unit alphabet and a single wire packs to
    itself, so packing is idempotent.
    """
    flat = o.flat
    if tuples is None:
        if len(flat) < 2:
            return flat[0] if flat else UNIT
        tuples = o.tuples()
    return Alphabet("x".join(w.name for w in flat) or UNIT.name, tuple(map(tuple_namer(o), tuples)))


def pair_symbol(a: Alphabet, b: Alphabet):
    """Pairing function matching the element names of ``pack_obj(obj(a, b))``."""
    if is_unit(a):
        return lambda x, y: y
    if is_unit(b):
        return lambda x, y: x
    if comma_prefixed(a) or comma_prefixed(b):
        return lambda x, y: "(" + escape(x) + "," + escape(y) + ")"
    return lambda x, y: "(" + x + "," + y + ")"
