"""The original linear validator of relcore, kept as a differential oracle.

Every membership test here scans an alphabet's element tuple, and a bundle's
flat wire list is rebuilt for every tuple, exactly as the first version of
the constructors did.  Each ``check_*`` function raises what that version
raised for the same arguments (``MachineError`` with the same message, or
the same Python exception), and returns ``None`` when it accepted them.
"""

from relmach.relcore import UNIT, MachineError


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
