"""Bounded-sample operators used as test oracles.

Composition and parallel product of :class:`UniformRelationSample` values,
and the letterwise lift of a relation to a sample, computed directly on
word pairs.  The tests compare them with the transducer constructions.
"""

from helpers import product_alphabet
from relmach.relcore import UNIT, Rel, TypeMismatch, pair_symbol
from relmach.transducer import UniformRelationSample, Word


def lift_sample(r: Rel, n: int) -> UniformRelationSample:
    dflat = r.dom.flat
    cflat = r.cod.flat
    input = dflat[0] if dflat else UNIT
    output = cflat[0] if cflat else UNIT
    star = UNIT.elements[0]
    letters = [(x[0] if x else star, y[0] if y else star) for x, y in r.pairs]
    pairs: set[tuple[Word, Word]] = {((), ())}
    level = [((), ())]
    for _ in range(n):
        level = [(w + (a,), v + (b,)) for w, v in level for a, b in letters]
        pairs.update(level)
    return UniformRelationSample(input, output, n, frozenset(pairs))


def sample_compose(s1: UniformRelationSample, s2: UniformRelationSample) -> UniformRelationSample:
    if s1.output.elements != s2.input.elements:
        raise TypeMismatch("cannot compose samples over different middle alphabets")
    n = min(s1.max_len, s2.max_len)
    by_mid: dict[Word, set[Word]] = {}
    for v, u in s2.pairs:
        by_mid.setdefault(v, set()).add(u)
    pairs = {
        (w, u)
        for w, v in s1.pairs
        if len(w) <= n
        for u in by_mid.get(v, ())
    }
    return UniformRelationSample(s1.input, s2.output, n, frozenset(pairs))


def sample_product(s1: UniformRelationSample, s2: UniformRelationSample) -> UniformRelationSample:
    """Positionwise zip of equal-length pairs, over the product alphabets."""
    ipair = pair_symbol(s1.input, s2.input)
    opair = pair_symbol(s1.output, s2.output)
    n = min(s1.max_len, s2.max_len)
    by_len: dict[int, list[tuple[Word, Word]]] = {}
    for w, v in s2.pairs:
        by_len.setdefault(len(w), []).append((w, v))
    pairs = set()
    for w1, v1 in s1.pairs:
        k = len(w1)
        if k > n:
            continue
        for w2, v2 in by_len.get(k, ()):
            pairs.add((
                tuple(ipair(a, c) for a, c in zip(w1, w2)),
                tuple(opair(b, d) for b, d in zip(v1, v2)),
            ))
    return UniformRelationSample(
        product_alphabet(s1.input, s2.input),
        product_alphabet(s1.output, s2.output),
        n, frozenset(pairs),
    )
