"""Functions on whole machines that only the tests call.

``minimal_dfa`` is the minimal DFA of an NFA's language, ``subset_name``
the name the subset construction gives a set of states, ``rooted_iso``
the isomorphism of two rooted right-resolving presentations through
``iso_check``, and ``is_factor_closed`` and ``is_pruned_lang`` whether a
language is its own factor closure or pruning.  The library's verdicts need none of them: they decide on
bitmask subsets and one partition refinement, and name nothing.
"""

from __future__ import annotations

from relmach.automata import Dfa, Nfa, determinize, factor_closure, iso_check, mask_of, minimize, \
    nfa_equiv, prune_language, subset_namer
from relmach.relcore import Alphabet
from relmach.sofic import Presentation


def minimal_dfa(n: Nfa) -> Dfa:
    return minimize(determinize(n)[0])[0]


def subset_name(members, order: Alphabet) -> str:
    return subset_namer(order)(mask_of(order, members))


def rooted_iso(p1: Presentation, p2: Presentation) -> dict[str, str] | None:
    """Bijection between rooted right-resolving presentations: ``iso_check``
    on each read as a DFA rooted at its root (if any), every state final."""
    d1, d2 = (Dfa(p.alphabet, p.states, p.trans, frozenset({p.root} - {None}),
                  frozenset(p.states.elements)) for p in (p1, p2))
    return iso_check(d1, d2)


def is_factor_closed(n: Nfa) -> bool:
    return nfa_equiv(n, factor_closure(n))


def is_pruned_lang(n: Nfa) -> bool:
    return nfa_equiv(n, prune_language(n))
