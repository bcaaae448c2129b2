"""Functions on whole machines that only the tests call.

``minimal_dfa`` is the minimal DFA of an NFA's language, ``subset_name``
the name the subset construction gives a set of states, ``rooted_iso``
the isomorphism of two rooted right-resolving presentations through
``iso_check``, ``is_factor_closed`` and ``is_pruned_lang`` whether a
language is its own factor closure or pruning, and
``verify_equiv_certificate`` whether every simulation relation of a
certificate chain checks, and ``trans_rel`` the paper's transition
relation A×Q → B×Q of a machine's quadruples as a :class:`Rel`.  The
library needs none of them: its verdicts decide on bitmask subsets and one
partition refinement and name nothing, and the simulation checker
enumerates its conditions from the quadruples.
"""

from __future__ import annotations

from relmach.automata import Dfa, Nfa, determinize, factor_closure, iso_check, mask_of, minimize, \
    nfa_equiv, nfa_to_transducer, prune_language, subset_namer
from relmach.diagram import EquivCertificate
from relmach.relcore import Alphabet, Rel, is_unit, obj
from relmach.simulation import check_fin
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


def verify_equiv_certificate(cert: EquivCertificate) -> bool:
    """Re-check every simulation relation in a certificate chain."""
    for side in (cert.left, cert.right):
        ok_det = check_fin(
            nfa_to_transducer(side.nfa), nfa_to_transducer(side.dfa), side.contains
        ).ok
        ok_min = check_fin(
            nfa_to_transducer(side.minimal), nfa_to_transducer(side.dfa), side.follow
        ).ok
        if not (ok_det and ok_min):
            return False
    return check_fin(
        nfa_to_transducer(cert.left.minimal),
        nfa_to_transducer(cert.right.minimal),
        cert.iso,
    ).ok


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
