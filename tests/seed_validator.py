"""The original linear validator of relcore, kept as a differential oracle.

Every membership test here scans an alphabet's element tuple, and a bundle's
flat wire list is rebuilt for every tuple, exactly as the first version of
the constructors did.  Each ``check_*`` function raises what that version
raised for the same arguments (``MachineError`` with the same message, or
the same Python exception), and returns ``None`` when it accepted them.

Transducers stored their transitions as a ``Rel``; ``trans_rel`` is the
encoding that validated them, copied unchanged.
"""

from __future__ import annotations

from relmach.relcore import UNIT, Alphabet, MachineError, Rel, is_unit, obj

Quad = tuple[str, str, str, str]  # (input letter, state, output letter, next state)
Word = tuple[str, ...]


def index(a, symbol):
    try:
        return a.elements.index(symbol)
    except ValueError:
        raise MachineError(f"symbol {symbol!r} not in alphabet {a.name!r}") from None


def check_subset(a, symbols):
    out = frozenset(symbols)
    for s in out:
        if s not in a.elements:
            raise MachineError(f"symbol {s!r} not in alphabet {a.name!r}")
    return out


def contains_tuple(o, t):
    flat = tuple(w for w in o.wires if w != UNIT)
    return len(t) == len(flat) and all(s in w.elements for s, w in zip(t, flat))


def check_rel(dom, cod, pairs):
    for x, y in frozenset(pairs):
        if not contains_tuple(dom, x):
            raise MachineError(f"pair component {x!r} is not a valid domain tuple")
        if not contains_tuple(cod, y):
            raise MachineError(f"pair component {y!r} is not a valid codomain tuple")


def check_nfa(alphabet, states, trans, initial, final):
    check_subset(states, initial)
    check_subset(states, final)
    for q, a, q2 in frozenset(trans):
        index(states, q)
        index(states, q2)
        index(alphabet, a)


def check_presentation(alphabet, states, trans, root):
    for q, a, q2 in frozenset(trans):
        index(states, q)
        index(states, q2)
        index(alphabet, a)
    if root is not None:
        index(states, root)


def check_label_sets(a, initial, final):
    """Transducer initial/final states and feedback label sets."""
    check_subset(a, initial)
    check_subset(a, final)


def trans_rel(input: Alphabet, output: Alphabet, states: Alphabet,
              quads: tuple[Quad, ...] | set[Quad] | frozenset[Quad]) -> Rel:
    """Build the transition relation A×Q → B×Q from explicit quadruples."""
    dom = obj(input, states)
    cod = obj(output, states)
    star = UNIT.elements[0]

    def dtup(a: str, q: str) -> Word:
        t = ()
        if not is_unit(input):
            t += (a,)
        if not is_unit(states):
            t += (q,)
        return t

    def ctup(b: str, q: str) -> Word:
        t = ()
        if not is_unit(output):
            t += (b,)
        if not is_unit(states):
            t += (q,)
        return t

    for a, q, b, q2 in quads:
        if is_unit(input) and a != star:
            raise MachineError(f"letter {a!r} not in unit input alphabet")
        if is_unit(output) and b != star:
            raise MachineError(f"letter {b!r} not in unit output alphabet")
    return Rel(dom, cod, ((dtup(a, q), ctup(b, q2)) for a, q, b, q2 in quads))


def check_ztransducer(input, output, states, quads):
    """``ztransducer``: the transition relation was the whole check."""
    trans_rel(input, output, states, tuple(quads))


def check_transducer(input, output, states, quads, initial, final):
    """``transducer``: the transition relation, then the label sets."""
    check_ztransducer(input, output, states, quads)
    check_label_sets(states, initial, final)
