"""The original algorithms of the automata, sofic, simulation and diagram
modules, kept as differential oracles.

Moore's round-by-round partition refinement (``minimize``,
``minimize_presentation``), the k-round long-path fixpoints
(``forward_prune``, ``backward_prune``, ``_long_path_starters``,
``_long_path_enders``) and the per-state cycle search behind
``prune_language`` are copied unchanged from the first version of the
library; only their imports are new, and they read an automaton's
transitions (q, a, q2) through ``helpers.triples`` and build automata
through the public constructors.  ``is_language_pruned`` uses this
module's ``prune_language``, so the validation in ``minimize_presentation``
and ``determinize_presentation`` is the original one too.

So are the algorithms of which the finite-word and the bi-infinite side
each had a copy: both subset constructions (``determinize``,
``determinize_presentation``), the synchronized walk of ``rooted_iso``,
``compose_z``, ``product_z``, and both structural collapses
(``normal_form``, ``z_normal_form``), which built a validated machine over
packed alphabets at every node and unpacked, re-packed and renamed its
letters at every ``Par`` and ``Feedback`` (``_unpackers``, ``_fold_quads``,
``_retype``).

So are the verdicts that decided equality one kind at a time, before every
kind became a finite-word acceptor for ``nfa_equiv``: ``diagrams_equiv``,
which canonicalized both bent terms through the determinize/minimize
pipeline (``_pipeline``) and built the certificate chain on every call,
``z_diagrams_equiv``, ``ztransducers_equiv``, and the refinement on the
factor languages of two presentations, kept here as
``presentations_equiv_by_refinement``; ``chain_payload`` is the chain
document the command line wrote.  Their bodies are unchanged, so names they
share with the oracles above (``normal_form``, ``z_normal_form``,
``prune``, ``presentations_equiv``) resolve to those oracles.

So is the chain of two acceptors in the two types (``PipelineCertificate``,
``EquivCertificate``) that the links of ``simulation.Chain`` replaced
(``nfa_pipeline``, ``equiv_chain``); it also walked each subset DFA for
accessibility before it minimized.

So is the verdict on bitmask subsets that the union-find walk of
``automata.same_words`` replaced: both subset graphs built in full, then
one Hopcroft refinement of their disjoint union
(``same_words_by_refinement``), through which
``presentations_equiv_by_refinement`` decides.  It calls the library's
``subsets`` and ``refine`` through the module, since the names alone
resolve to the name-based oracles below.

So is the shared core that ran on state names before it ran on positions:
the subset construction over frozensets of names (``subsets``), Hopcroft's
refinement keyed by names (``refine``), and the verdicts that minimized
renumbered copies and compared the results (``renumbered``,
``nfa_equiv``; ``_renumbered``, ``presentations_equiv``).  In this module
those verdicts run on the oracles above: ``minimal_dfa`` and
``canonical_form`` are composed of them, and ``presentations_equiv``
compares canonical forms by the walk of ``rooted_iso``.

So is the simulation checker that composed validated relations: ``check_fin``
and ``check_inf`` built each condition's two sides from ``trans_rel``,
``identity``, ``product``, ``compose`` and the point and copoint of a
subset (``_letter_rel`` for a presentation's letters), and ``_holds``
compared the pairs of the two relations.

So is the check of the transition condition on sets of flat tuples that
the bitmask one replaced: each side the set of tuples a + (p,) + b + (q1,)
from each machine's rows and the image and preimage lists of ``s``
(``_flat_rows``, ``_intertwining``, ``_parts``), compared whole by
``_flat_holds`` in ``check_fin_by_tuples`` and ``check_inf_by_tuples``.

So is the canonical pair order that called ``Alphabet.index`` per symbol
through a generator (``sorted_pairs``, ``_tuple_key``), and the per-pair key
sorts that grouping by first word replaced (``rel_sorted_pairs``,
``sample_sorted_pairs``).

So is the walk of ``iso_check`` over dicts keyed by state names, which
the walk of two ``automata.next_table``s by position replaced; the
oracles above that compare minimal DFAs call it.

So are the name-based long-path peel that the mask peel
``automata.long_path_mask`` replaced (``long_path_states``, over the
dict-of-set edges of ``helpers.forward_edges`` and
``helpers.backward_edges``), the restriction of a machine to a set of
state names (``_restrict``), and the per-letter successor sets that
``accepts`` and ``periodic_membership`` read before they folded successor
masks (``successor_map``).

So is the periodic-point test that composed the "read the word once"
relation with itself up to card(states) times (``periodic_membership``);
its ``prune`` resolves to the oracle above.

So is the canonical text that ``io.dumps`` wrote by handing the whole
payload to the stdlib encoder (``canonical_dumps``), and the writer that
replaced it before relation and sample pairs were written a run of first
words at a time: a payload held one list per distinct word of its pairs
(``_pair_lists``), and ``_write`` tried each array as rows of symbols and
then as pairs of words, whose word texts ``_word_pairs`` kept by ``id``
(``pair_list_dumps``).

So is the subset namer that decoded every subset's member flags, one
member or several (``subset_namer``).

So are the conversions between the kinds, from before every machine was
one value with quadruple rows: an automaton read as a unit-output
transducer (``nfa_to_transducer``) and back (``transducer_to_nfa``), a
transducer read as an acceptor over its packed letter pairs
(``to_automaton``), a ztransducer read as the presentation over them
(``presentation_of_ztransducer``), and a presentation read as an NFA with
every state initial and final (``as_nfa``).  Each builds its result through
the public constructors, from the transitions (q, a, q2) of ``triples``.

So is the acceptor that the verdict on terms read before
``diagram.acceptors``: the term bent into B ++ A → 1 by a cap
(``bend``, ``cap_obj``) and collapsed by the library, an NFA over the
whole packed tuple space (``acceptor``).  So is the evaluator that joined
and split each position in a Python loop and packed each tuple by itself
(``denote``, ``denotation_upto``).  So is the second route to a
transducer's bounded behavior that ``diagram.loop_term`` replaced: every
word of the shift over the states (``finite_shift_at``), |Q|^(k−1)·|I|·|F|
of them at length k, joined with the products of the letter sections of
the transition relation (``behavior_via_shift_upto``).

So is the command line's argument parser, made by one ``add_parser`` and
``add_argument`` call per subcommand and argument before the command table
``cli.COMMANDS`` declared the grammar (``build_parser``).
"""

from __future__ import annotations

import argparse
import itertools
import json
from dataclasses import dataclass
from itertools import chain, compress
from operator import getitem

from helpers import backward_edges, compose, compose_transducers, dfa, forward_edges, is_root, \
    lift_transducer, pack_rel, pack_tuple, product, product_alphabet, product_transducers, reachable, \
    subset_as_copoint, subset_as_point, subset_name, trans_rel, triples, type_of
from relmach import automata, diagram, io
from relmach.automata import EMPTY_DFA_STATES, Dfa, Nfa, empty_dfa, nfa
from relmach.cli import length
from relmach.diagram import Box, Diagram, Feedback, Id, Par, Seq, Swap
from relmach.relcore import UNIT, UNIT_OBJ, Alphabet, MachineError, Obj, Rel, TypeMismatch, \
    comma_prefixed, escape, identity, is_unit, material, obj, pack_obj, pair_symbol, swap as swap_rel, \
    trusted
from relmach.simulation import BACKWARD, FORWARD, TWO_SIDED, SimCertificate, SimReport, \
    certificate_for_determinization, certificate_for_minimization
from relmach.sofic import Presentation, ZTransducer, find_root, is_right_resolving, presentation, \
    ztransducer
from relmach.transducer import Transducer, UniformRelationSample, Word, transducer

Triple = tuple[str, str, str]  # (state, letter, next state)


def successor_map(m) -> dict[str, dict[str, set[str]]]:
    """Each state's successors under each input letter."""
    step: dict[str, dict[str, set[str]]] = {q: {} for q in m.states.elements}
    for a, q, _, q2 in m.trans:
        step[q].setdefault(a, set()).add(q2)
    return step


def long_path_states(states, edges: dict[str, set[str]]) -> set[str]:
    """The states that start a path of length at least card(states) inside
    ``states``, i.e. an infinite path, following ``edges``.

    Linear time: states none of whose successors are kept are peeled off
    one by one, with a counter of kept successors per state.
    """
    kept = set(states)
    preds: dict[str, list[str]] = {q: [] for q in kept}
    out_degree = dict.fromkeys(kept, 0)
    for q in kept:
        for q2 in edges.get(q, ()):
            if q2 in kept:
                preds[q2].append(q)
                out_degree[q] += 1
    todo = [q for q, n in out_degree.items() if not n]
    while todo:
        q = todo.pop()
        kept.discard(q)
        for p in preds[q]:
            out_degree[p] -= 1
            if not out_degree[p]:
                todo.append(p)
    return kept


def _restrict(p, kept: set[str]):
    states = Alphabet(p.states.name, tuple(q for q in p.states.elements if q in kept))
    root = p.root if p.root in kept else None
    return type(p)(p.input, p.output, states,
                   frozenset(t for t in p.trans if t[1] in kept and t[3] in kept), None, None, root)


def nfa_to_transducer(n: Nfa) -> Transducer:
    star = UNIT.elements[0]
    return transducer(
        n.alphabet, UNIT, n.states,
        {(a, q, star, q2) for q, a, q2 in triples(n)},
        n.initial, n.final,
    )


def transducer_to_nfa(t: Transducer) -> Nfa:
    if len(t.output) != 1:
        raise TypeMismatch("only unit-output transducers can be read as automata")
    return nfa(t.input, material(t.states),
               {(q, a, q2) for a, q, _, q2 in t.trans}, t.initial, t.final)


def to_automaton(t: Transducer) -> Transducer:
    """View a transducer over A, B as an acceptor over the product A×B."""
    ipair = pair_symbol(t.input, t.output)
    star = UNIT.elements[0]
    quads = {(ipair(a, b), q, star, q2) for a, q, b, q2 in t.trans}
    return transducer(
        product_alphabet(t.input, t.output), UNIT, t.states, quads, t.initial, t.final
    )


def presentation_of_ztransducer(z: ZTransducer) -> Presentation:
    """The presentation over the product alphabet that carries z's behavior."""
    pair = pair_symbol(z.input, z.output)
    return presentation(
        product_alphabet(z.input, z.output), material(z.states),
        {(q, pair(a, b), q2) for a, q, b, q2 in z.trans},
    )


def as_nfa(p: Presentation) -> Nfa:
    everything = frozenset(p.states.elements)
    return nfa(p.alphabet, p.states, triples(p), everything, everything)


def minimize(d: Dfa) -> tuple[Dfa, Rel]:
    """Merge states with equal follow languages.

    The input is first restricted to states accessible from the initial
    state, then refined against a completion with an explicit sink; the
    sink's class (states with empty follow language) is dropped from the
    result, so the minimal machine of the empty language has no states.
    The returned relation maps each live accessible input state to its
    class in the minimal machine.
    """
    reach = reachable(d.states, forward_edges(d), d.initial)
    live = [q for q in d.states.elements if q in reach]
    lmap_empty = Rel(obj(d.states), obj(EMPTY_DFA_STATES), frozenset())
    if not live or not (set(live) & d.final):
        return empty_dfa(d.alphabet), lmap_empty

    delta = {(q, a): q2 for q, a, q2 in triples(d) if q in reach and q2 in reach}
    sink = None  # completion target, never a real state

    def dstep(q, a):
        return delta.get((q, a), sink)

    # Moore refinement over live states plus the sink.
    universe = live + [sink]
    block: dict[object, int] = {q: (0 if q in d.final else 1) for q in universe}
    while True:
        sig = {
            q: (block[q],) + tuple(block[dstep(q, a)] for a in d.alphabet.elements)
            for q in universe
        }
        renumber: dict[tuple, int] = {}
        new_block = {}
        for q in universe:
            new_block[q] = renumber.setdefault(sig[q], len(renumber))
        if new_block == block:
            break
        block = new_block

    sink_block = block[sink]
    classes: dict[int, list[str]] = {}
    for q in live:
        if block[q] != sink_block:
            classes.setdefault(block[q], []).append(q)
    if not classes:
        return empty_dfa(d.alphabet), lmap_empty

    # Each class is named by its smallest member in the original order.
    name_of = {b: min(members, key=d.states.index) for b, members in classes.items()}
    ordered = sorted(name_of.values(), key=d.states.index)
    min_states = Alphabet(d.states.name, tuple(ordered))

    trans: set[Triple] = set()
    for b, members in classes.items():
        rep = members[0]
        for a in d.alphabet.elements:
            q2 = dstep(rep, a)
            if q2 is not sink and block[q2] != sink_block:
                trans.add((name_of[b], a, name_of[block[q2]]))
    init = next(iter(d.initial))
    final = frozenset(name_of[b] for b, members in classes.items() if members[0] in d.final)
    mdfa = dfa(d.alphabet, min_states, frozenset(trans), frozenset({name_of[block[init]]}), final)
    lmap = Rel(
        obj(d.states), obj(min_states),
        frozenset(((q,), (name_of[block[q]],)) for q in live if block[q] != sink_block),
    )
    return mdfa, lmap


def _cycle_states(n: Nfa) -> set[str]:
    fwd = forward_edges(n)
    out = set()
    for q in n.states.elements:
        if q in reachable(n.states, fwd, fwd.get(q, set())):
            out.add(q)
    return out


def prune_language(n: Nfa) -> Nfa:
    """Automaton for the words with arbitrarily long two-sided extensions.

    A state may start (resp. end) a run iff it is reachable from an initial
    state (resp. co-reachable from a final state) through a cycle, which is
    the finite stand-in for "by arbitrarily long paths".
    """
    fwd = forward_edges(n)
    bwd = backward_edges(n)
    cyc = _cycle_states(n)
    pumped_in = reachable(n.states, fwd, cyc & reachable(n.states, fwd, n.initial))
    pumped_out = reachable(n.states, bwd, cyc & reachable(n.states, bwd, n.final))
    return nfa(n.alphabet, n.states, triples(n), frozenset(pumped_in), frozenset(pumped_out))


def forward_prune(p: Presentation) -> Presentation:
    """Keep states that start a path of length at least card(states)."""
    k = len(p.states)
    step: dict[str, set[str]] = {}
    for q, _, q2 in triples(p):
        step.setdefault(q, set()).add(q2)
    can = set(p.states.elements)
    for _ in range(k):
        can = {q for q in p.states.elements if step.get(q, set()) & can}
    return _restrict(p, can)


def backward_prune(p: Presentation) -> Presentation:
    """Keep states that end a path of length at least card(states)."""
    k = len(p.states)
    back: dict[str, set[str]] = {}
    for q, _, q2 in triples(p):
        back.setdefault(q2, set()).add(q)
    can = set(p.states.elements)
    for _ in range(k):
        can = {q for q in p.states.elements if back.get(q, set()) & can}
    return _restrict(p, can)


def prune(p: Presentation) -> Presentation:
    """Keep states lying on a bi-infinite path."""
    return forward_prune(backward_prune(p))


def is_language_pruned(p: Presentation) -> bool:
    """Whether every accepted word extends on both sides within the language."""
    n = as_nfa(p)
    return nfa_equiv(n, prune_language(n))


def minimize_presentation(p: Presentation, root: str | None = None,
                          validate: bool = True) -> tuple[Presentation, SimCertificate]:
    """Merge states with equal follow languages; keep the root's class.

    The input must be pruned, right-resolving, and rooted.  The result is
    the canonical presentation of the subshift; the certificate is the
    follow-language relation, two-sided for the pair (minimized, input).
    """
    if validate:
        if not is_right_resolving(p):
            raise MachineError("minimization requires a right-resolving presentation")
        if not is_language_pruned(p):
            raise MachineError("minimization requires a pruned presentation")
    if root is None:
        root = find_root(p)
        if root is None:
            raise MachineError("minimization requires a rooted presentation")
    elif validate and not is_root(p, root):
        raise MachineError(f"state {root!r} is not a root")

    delta = {(q, a): q2 for q, a, q2 in triples(p)}
    sink = None
    universe = list(p.states.elements) + [sink]

    def dstep(q, a):
        return delta.get((q, a), sink)

    # All real states accept; refinement only separates by definedness.
    block: dict[object, int] = {q: (1 if q is sink else 0) for q in universe}
    while True:
        sig = {
            q: (block[q],) + tuple(block[dstep(q, a)] for a in p.alphabet.elements)
            for q in universe
        }
        renumber: dict[tuple, int] = {}
        new_block = {q: renumber.setdefault(sig[q], len(renumber)) for q in universe}
        if new_block == block:
            break
        block = new_block

    sink_block = block[sink]
    classes: dict[int, list[str]] = {}
    for q in p.states.elements:
        if block[q] != sink_block:  # real states always differ from the sink
            classes.setdefault(block[q], []).append(q)

    name_of = {b: min(members, key=p.states.index) for b, members in classes.items()}
    ordered = sorted(name_of.values(), key=p.states.index)
    min_states = Alphabet(p.states.name, tuple(ordered))
    trans: set[Triple] = set()
    for b, members in classes.items():
        rep = members[0]
        for a in p.alphabet.elements:
            q2 = dstep(rep, a)
            if q2 is not sink:
                trans.add((name_of[b], a, name_of[block[q2]]))
    minp = presentation(p.alphabet, min_states, frozenset(trans), name_of[block[root]])
    lmap = Rel(
        obj(p.states), obj(min_states),
        frozenset(((q,), (name_of[block[q]],)) for q in p.states.elements
                  if block[q] != sink_block),
    )
    return minp, SimCertificate(lmap, TWO_SIDED)


def _long_path_starters(p: "Presentation") -> set[str]:
    """States starting a path with at least card(states) transitions."""
    k = len(p.states)
    can = set(p.states.elements)
    step: dict[str, set[str]] = {}
    for q, _, q2 in triples(p):
        step.setdefault(q, set()).add(q2)
    for _ in range(k):
        can = {q for q in p.states.elements if step.get(q, set()) & can}
    return can


def _long_path_enders(p: "Presentation") -> set[str]:
    k = len(p.states)
    can = set(p.states.elements)
    back: dict[str, set[str]] = {}
    for q, _, q2 in triples(p):
        back.setdefault(q2, set()).add(q)
    for _ in range(k):
        can = {q for q in p.states.elements if back.get(q, set()) & can}
    return can


def determinize(n: Nfa) -> tuple[Dfa, Rel]:
    """Subset construction from the set of initial states.

    Returns the accessible-subsets DFA (which is complete: the empty subset
    is an ordinary sink state when reachable) together with the membership
    relation from subset states back to original states.
    """
    start = frozenset(n.initial)
    step: dict[str, dict[str, set[str]]] = {q: {} for q in n.states.elements}
    for q, a, q2 in triples(n):
        step[q].setdefault(a, set()).add(q2)

    seen: dict[frozenset[str], str] = {start: subset_name(start, n.states)}
    todo = [start]
    trans: set[Triple] = set()
    while todo:
        cur = todo.pop()
        for a in n.alphabet.elements:
            image = frozenset(q2 for q in cur for q2 in step[q].get(a, ()))
            if image not in seen:
                seen[image] = subset_name(image, n.states)
                todo.append(image)
            trans.add((seen[cur], a, seen[image]))

    names = sorted(seen.values())
    subset_states = Alphabet(f"P({n.states.name})", tuple(names))
    final = frozenset(name for sub, name in seen.items() if sub & n.final)
    dfa_ = dfa(n.alphabet, subset_states, frozenset(trans), frozenset({seen[start]}), final)
    contains = Rel(
        obj(subset_states), obj(n.states),
        frozenset(((name,), (q,)) for sub, name in seen.items() for q in sub),
    )
    return dfa_, contains


def determinize_presentation(p: Presentation, validate: bool = True) -> tuple[Presentation, SimCertificate]:
    """Subset construction rooted at the full state set.

    Requires a pruned presentation of a non-empty subshift; transitions to
    the empty subset are left undefined, so the result is right-resolving.
    The certificate is the membership relation, two-sided for the pair
    (input, determinized).
    """
    if p.is_empty():
        raise MachineError("cannot determinize the empty presentation")
    if validate and not is_language_pruned(p):
        raise MachineError("determinization requires a pruned presentation")

    step: dict[str, dict[str, set[str]]] = {q: {} for q in p.states.elements}
    for q, a, q2 in triples(p):
        step[q].setdefault(a, set()).add(q2)
    start = frozenset(p.states.elements)
    seen: dict[frozenset[str], str] = {start: subset_name(start, p.states)}
    todo = [start]
    trans: set[Triple] = set()
    while todo:
        cur = todo.pop()
        for a in p.alphabet.elements:
            image = frozenset(q2 for q in cur for q2 in step[q].get(a, ()))
            if not image:
                continue
            if image not in seen:
                seen[image] = subset_name(image, p.states)
                todo.append(image)
            trans.add((seen[cur], a, seen[image]))

    names = sorted(seen.values())
    subset_states = Alphabet(f"P({p.states.name})", tuple(names))
    det = presentation(p.alphabet, subset_states, frozenset(trans), seen[start])
    contains = Rel(
        obj(subset_states), obj(p.states),
        frozenset(((name,), (q,)) for sub, name in seen.items() for q in sub),
    )
    return det, SimCertificate(contains, TWO_SIDED)


def rooted_iso(p1: Presentation, p2: Presentation) -> dict[str, str] | None:
    """Bijection between rooted right-resolving presentations, forced by a
    synchronized walk from the roots."""
    if len(p1.states) != len(p2.states):
        return None
    if p1.is_empty():
        return {}
    if p1.root is None or p2.root is None:
        return None
    d1 = {(q, a): q2 for q, a, q2 in triples(p1)}
    d2 = {(q, a): q2 for q, a, q2 in triples(p2)}
    mapping = {p1.root: p2.root}
    inverse = {p2.root: p1.root}
    todo = [p1.root]
    while todo:
        q = todo.pop()
        r = mapping[q]
        for a in p1.alphabet.elements:
            q2 = d1.get((q, a))
            r2 = d2.get((r, a))
            if (q2 is None) != (r2 is None):
                return None
            if q2 is None:
                continue
            if q2 in mapping:
                if mapping[q2] != r2:
                    return None
            elif r2 in inverse:
                return None
            else:
                mapping[q2] = r2
                inverse[r2] = q2
                todo.append(q2)
    if len(mapping) != len(p1.states):
        return None
    return mapping


def iso_check(d1: Dfa, d2: Dfa) -> dict[str, str] | None:
    """The unique structure-preserving state bijection, if one exists.

    Both machines should be trim; the candidate map is forced by a
    synchronized walk from the initial states.
    """
    if len(d1.states) != len(d2.states):
        return None
    if not d1.states.elements:
        return {}
    if len(d1.initial) != 1 or len(d2.initial) != 1:
        return None
    delta1, delta2 = ({(q, a): q2 for a, q, _, q2 in d.trans} for d in (d1, d2))
    i1, i2 = next(iter(d1.initial)), next(iter(d2.initial))
    mapping: dict[str, str] = {i1: i2}
    inverse: dict[str, str] = {i2: i1}
    todo = [i1]
    while todo:
        p = todo.pop()
        q = mapping[p]
        if (p in d1.final) != (q in d2.final):
            return None
        for a in d1.alphabet.elements:
            p2 = delta1.get((p, a))
            q2 = delta2.get((q, a))
            if (p2 is None) != (q2 is None):
                return None
            if p2 is None:
                continue
            if p2 in mapping:
                if mapping[p2] != q2:
                    return None
            elif q2 in inverse:
                return None
            else:
                mapping[p2] = q2
                inverse[q2] = p2
                todo.append(p2)
    if len(mapping) != len(d1.states):
        return None  # not trim: some state never reached
    return mapping


def subsets(n: Nfa, start: frozenset[str]) -> dict[frozenset[str], dict[str, frozenset[str]]]:
    """Subset construction: every subset of states accessible from ``start``
    in ``n`` (an ``Nfa`` or a presentation), the empty subset included when
    reached, with its image under each letter."""
    step = successor_map(n)
    graph: dict[frozenset[str], dict[str, frozenset[str]]] = {start: {}}
    todo = [start]
    while todo:
        cur = todo.pop()
        row = graph[cur]
        for a in n.alphabet.elements:
            image = row[a] = frozenset(q2 for q in cur for q2 in step[q].get(a, ()))
            if image not in graph:
                graph[image] = {}
                todo.append(image)
    return graph


def refine(universe, letters, step, key) -> dict:
    """The coarsest partition of ``universe`` that refines ``key`` and is
    stable under the complete transition function ``step``, as a map from
    each state to its block number.

    Hopcroft's algorithm (1971), O(n·|letters|·log n): each queued block
    splits every block by its predecessors under all letters; a block that
    splits while queued has both halves queued, otherwise only the smaller.
    """
    pre: dict = {a: {} for a in letters}
    for q in universe:
        for a in letters:
            pre[a].setdefault(step(q, a), []).append(q)
    block: dict = {}
    members: list[set] = []
    number: dict = {}
    for q in universe:
        b = block[q] = number.setdefault(key(q), len(members))
        if b == len(members):
            members.append(set())
        members[b].add(q)
    largest = max(range(len(members)), key=lambda b: len(members[b]), default=0)
    queue = [b for b in range(len(members)) if b != largest]
    queued = set(queue)
    while queue:
        splitter = queue.pop()
        queued.discard(splitter)
        targets = list(members[splitter])
        for a in letters:
            hit: dict[int, list] = {}
            for q2 in targets:
                for q in pre[a].get(q2, ()):
                    hit.setdefault(block[q], []).append(q)
            for b, inside in hit.items():
                rest = members[b]
                if len(inside) == len(rest):
                    continue
                rest.difference_update(inside)
                new = len(members)
                members.append(set(inside))
                for q in inside:
                    block[q] = new
                if b not in queued and len(rest) < len(inside):
                    new = b
                queue.append(new)
                queued.add(new)
    return block


def minimal_dfa(n: Nfa) -> Dfa:
    return minimize(determinize(n)[0])[0]


def renumbered(n: Nfa) -> Nfa:
    """A copy of ``n`` with its states named "0", "1", … in order, so that
    no subset of states is named like another."""
    num = {q: str(i) for i, q in enumerate(n.states.elements)}
    return nfa(n.alphabet, Alphabet(n.states.name, tuple(num.values())),
               {(num[q], a, num[q2]) for q, a, q2 in triples(n)},
               {num[q] for q in n.initial}, {num[q] for q in n.final})


def nfa_equiv(n1: Nfa, n2: Nfa) -> bool:
    """Exact language equality via uniqueness of the minimal machine; the
    verdict needs no state names, so it is reached on renumbered copies."""
    if n1.alphabet.elements != n2.alphabet.elements:
        raise TypeMismatch("cannot compare automata over different alphabets")
    return iso_check(minimal_dfa(renumbered(n1)), minimal_dfa(renumbered(n2))) is not None


def canonical_form(p: Presentation) -> Presentation:
    pruned = prune(p)
    if pruned.is_empty():
        return presentation(p.alphabet, Alphabet(p.states.name, ()), frozenset(), None)
    det, _ = determinize_presentation(pruned, False)
    return minimize_presentation(det, det.root, False)[0]


def _renumbered(p: Presentation) -> Presentation:
    """A rootless copy with the states named by position (see ``renumbered``)."""
    n = renumbered(as_nfa(p))
    return presentation(p.alphabet, n.states, triples(n))


def presentations_equiv(p1: Presentation, p2: Presentation) -> bool:
    """Whether two presentations present the same sofic subshift; the
    verdict needs no state names, so it is reached on renumbered copies."""
    if p1.alphabet.elements != p2.alphabet.elements:
        raise TypeMismatch("presentations over different alphabets")
    c1 = canonical_form(_renumbered(p1))
    c2 = canonical_form(_renumbered(p2))
    if c1.is_empty() or c2.is_empty():
        return c1.is_empty() and c2.is_empty()
    return rooted_iso(c1, c2) is not None


def compose_z(z1: ZTransducer, z2: ZTransducer) -> ZTransducer:
    if z1.output.elements != z2.input.elements:
        raise TypeMismatch(
            f"cannot compose: output {z1.output.name!r} vs input {z2.input.name!r}"
        )
    states = product_alphabet(z1.states, z2.states)
    pair = pair_symbol(z1.states, z2.states)
    by_mid: dict[str, list[tuple[str, str, str]]] = {}
    for b, p, d, p2 in z2.trans:
        by_mid.setdefault(b, []).append((p, d, p2))
    quads = set()
    for a, q, b, q2 in z1.trans:
        for p, d, p2 in by_mid.get(b, ()):
            quads.add((a, pair(q, p), d, pair(q2, p2)))
    return ztransducer(z1.input, z2.output, states, quads)


def product_z(z1: ZTransducer, z2: ZTransducer) -> ZTransducer:
    states = product_alphabet(z1.states, z2.states)
    spair = pair_symbol(z1.states, z2.states)
    ipair = pair_symbol(z1.input, z2.input)
    opair = pair_symbol(z1.output, z2.output)
    quads = set()
    for a, q, b, q2 in z1.trans:
        for c, p, d, p2 in z2.trans:
            quads.add((ipair(a, c), spair(q, p), opair(b, d), spair(q2, p2)))
    return ztransducer(
        product_alphabet(z1.input, z2.input),
        product_alphabet(z1.output, z2.output),
        states, quads,
    )


def _unpackers(o: Obj):
    """Map a packed symbol of ``o`` to its flat tuple, by index."""
    packed = pack_obj(o)
    if is_unit(packed):
        return lambda s: ()
    table = dict(zip(packed.elements, o.tuples())) if len(o.flat) > 1 else None
    if table is None:
        return lambda s: (s,)
    return lambda s: table[s]


def _fold_quads(t_quads, body_dom: Obj, body_cod: Obj, spair):
    """Rewrite body quads, moving the last wire into the state component."""
    prefix_dom = Obj(body_dom.flat[:-1])
    prefix_cod = Obj(body_cod.flat[:-1])
    unpack_in = _unpackers(body_dom)
    unpack_out = _unpackers(body_cod)
    quads = set()
    for x, p, y, p2 in t_quads:
        xt = unpack_in(x)
        yt = unpack_out(y)
        quads.add((
            pack_tuple(prefix_dom, xt[:-1]),
            spair(p, xt[-1]),
            pack_tuple(prefix_cod, yt[:-1]),
            spair(p2, yt[-1]),
        ))
    return pack_obj(prefix_dom), pack_obj(prefix_cod), quads


def _retype(t: Transducer, input: Alphabet, output: Alphabet) -> Transducer:
    """Rename boundary symbols positionally (same cardinality and order)."""
    imap = dict(zip(t.input.elements, input.elements))
    omap = dict(zip(t.output.elements, output.elements))
    quads = {(imap[a], q, omap[b], q2) for a, q, b, q2 in t.trans}
    return transducer(input, output, t.states, quads, t.initial, t.final)


def normal_form(d: Diagram) -> Transducer:
    """Collapse a finite-word term to its quasi-normal form: a transducer
    over the packed boundary alphabets."""
    match d:
        case Box(rel=r):
            return lift_transducer(pack_rel(r))
        case Id(o=o):
            return lift_transducer(pack_rel(identity(o)))
        case Swap(a=a, b=b):
            return lift_transducer(pack_rel(swap_rel(a, b)))
        case Seq(first=f, second=s):
            return compose_transducers(normal_form(f), normal_form(s))
        case Par(left=l, right=r):
            dom, cod = type_of(d)
            t = product_transducers(normal_form(l), normal_form(r))
            return _retype(t, pack_obj(dom), pack_obj(cod))
        case Feedback(wire=w, initial=i, final=f, body=b) if d.labelled:
            tb = normal_form(b)
            db, cb = type_of(b)
            states = product_alphabet(tb.states, w)
            spair = pair_symbol(tb.states, w)
            input, output, quads = _fold_quads(tb.trans, db, cb, spair)
            return transducer(
                input, output, states, quads,
                {spair(p, q) for p in tb.initial for q in i},
                {spair(p, q) for p in tb.final for q in f},
            )
        case Feedback():
            raise TypeMismatch("unlabelled feedback belongs to the bi-infinite language")
    raise MachineError(f"not a diagram: {d!r}")


def z_normal_form(d: Diagram) -> ZTransducer:
    """Collapse a bi-infinite term to its quasi-normal form machine."""
    match d:
        case Box(rel=r):
            t = lift_transducer(pack_rel(r))
            return ztransducer(t.input, t.output, t.states, t.trans)
        case Id(o=o):
            return z_normal_form(Box(identity(o)))
        case Swap(a=a, b=b):
            return z_normal_form(Box(swap_rel(a, b)))
        case Seq(first=f, second=s):
            return compose_z(z_normal_form(f), z_normal_form(s))
        case Par(left=l, right=r):
            dom, cod = type_of(d)
            z = product_z(z_normal_form(l), z_normal_form(r))
            imap = dict(zip(z.input.elements, pack_obj(dom).elements))
            omap = dict(zip(z.output.elements, pack_obj(cod).elements))
            quads = {(imap[a], q, omap[b], q2) for a, q, b, q2 in z.trans}
            return ztransducer(pack_obj(dom), pack_obj(cod), z.states, quads)
        case Feedback(wire=w, body=b) if not d.labelled:
            zb = z_normal_form(b)
            db, cb = type_of(b)
            states = product_alphabet(zb.states, w)
            spair = pair_symbol(zb.states, w)
            input, output, quads = _fold_quads(zb.trans, db, cb, spair)
            return ztransducer(input, output, states, quads)
        case Feedback():
            raise TypeMismatch("labelled feedback belongs to the finite-word language")
    raise MachineError(f"not a diagram: {d!r}")


# ---------------------------------------------------------------------------
# The bent acceptor, the evaluator of terms and the shift route.

def cap_obj(o: Obj) -> Rel:
    """Cap over a whole bundle: o ++ o → 1, relating each doubled tuple to ()."""
    return Rel(o + o, UNIT_OBJ, frozenset((t + t, ()) for t in o.tuples()))


def bend(d: Diagram) -> Diagram:
    """Turn a term A → B into an acceptor-shaped term B ++ A → 1 by bending
    the output back with a cap."""
    cod = Obj(d.cod.flat)
    return Seq(Par(Id(cod), d), Box(cap_obj(cod)))


def acceptor(d: Diagram) -> Nfa:
    """The bent normal form of a term A → B, an NFA over the packed B ++ A:
    two terms of one type are equal iff their acceptors accept the same words."""
    return transducer_to_nfa(diagram.normal_form(bend(d)))


def finite_shift_at(a: Alphabet, i, f, k: int) -> frozenset[tuple[Word, Word]]:
    """Length-k slice of the shift relation over ``a`` with end labels.

    Relates (w, v) of length k whenever i0·w = v·f0 for some i0 in ``i``
    and f0 in ``f``; at k = 0 the empty pair appears iff the label sets
    intersect.
    """
    i = a.check_subset(i)
    f = a.check_subset(f)
    if k == 0:
        return frozenset({((), ())}) if i & f else frozenset()
    out = set()
    for mid in itertools.product(a.elements, repeat=k - 1):
        for f0 in f:
            for i0 in i:
                out.add((mid + (f0,), (i0,) + mid))
    return frozenset(out)


def behavior_via_shift_upto(t: Transducer, n: int) -> UniformRelationSample:
    """Behavior sample computed by composing the letterwise lift of the
    transition relation with the transposed shift over the state alphabet.

    This is an independent evaluation route from :func:`behavior_upto`: the
    state-word pairs come from :func:`finite_shift_at`, and the letter pairs
    from the per-position lift sections.
    """
    letter_pairs: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for a, q, b, q2 in t.trans:
        letter_pairs.setdefault((q, q2), []).append((a, b))
    pairs: set[tuple[Word, Word]] = set()
    for k in range(n + 1):
        for shift_w, shift_v in finite_shift_at(t.states, t.initial, t.final, k):
            # (u, _t) is in the transpose of the shift iff (_t, u) is in it.
            u, _t = shift_v, shift_w
            if k == 0:
                pairs.add(((), ()))
                continue
            sections = [letter_pairs.get((u[j], _t[j]), []) for j in range(k)]
            if any(not s for s in sections):
                continue
            for combo in itertools.product(*sections):
                pairs.add((tuple(a for a, _ in combo), tuple(b for _, b in combo)))
    return trusted(UniformRelationSample, t.input, t.output, n, frozenset(pairs))


def denote(d: Diagram, k: int) -> set:
    """The relation at word length k; words are tuples of flat tuples."""
    match d:
        case Box(rel=r):
            pairs = r.pairs
        case Id(o=o):
            pairs = identity(o).pairs
        case Swap(a=a, b=b):
            pairs = swap_rel(a, b).pairs
        case Seq(first=f, second=s):
            left = denote(f, k)
            right = denote(s, k)
            by_mid: dict[tuple, set[tuple]] = {}
            for v, u in right:
                by_mid.setdefault(v, set()).add(u)
            return {(w, u) for w, v in left for u in by_mid.get(v, ())}
        case Par(left=l, right=r):
            lrel = denote(l, k)
            rrel = denote(r, k)
            return {
                (
                    tuple(x1 + x2 for x1, x2 in zip(w1, w2)),
                    tuple(y1 + y2 for y1, y2 in zip(v1, v2)),
                )
                for w1, v1 in lrel
                for w2, v2 in rrel
            }
        case Feedback(wire=w, initial=i, final=f, body=b):
            shift = finite_shift_at(w, i, f, k)
            out = set()
            for win, wout in denote(b, k):
                u = tuple(pos[-1] for pos in win)
                t = tuple(pos[-1] for pos in wout)
                # (u, t) must lie in the transpose of the shift
                if (t, u) in shift:
                    out.add((
                        tuple(pos[:-1] for pos in win),
                        tuple(pos[:-1] for pos in wout),
                    ))
            return out
        case _:
            raise MachineError(f"not a diagram: {d!r}")
    # base case: letterwise lift of an explicit relation
    level = {((), ())}
    for _ in range(k):
        level = {(w + (x,), v + (y,)) for w, v in level for x, y in pairs}
    return level


def denotation_upto(d: Diagram, n: int) -> UniformRelationSample:
    """Evaluate the term constructor by constructor at each length ≤ n."""
    if False in d.feedback:
        raise TypeMismatch("unlabelled feedback belongs to the bi-infinite language")
    dom, cod = d.dom, d.cod
    pairs = set()
    for k in range(n + 1):
        for w, v in denote(d, k):
            pairs.add((
                tuple(pack_tuple(dom, pos) for pos in w),
                tuple(pack_tuple(cod, pos) for pos in v),
            ))
    return UniformRelationSample(pack_obj(dom), pack_obj(cod), n, frozenset(pairs))


# ---------------------------------------------------------------------------
# The per-kind verdicts and the diagram pipeline.

@dataclass(frozen=True)
class PipelineCertificate:
    """Machines and certificates produced while canonicalizing one term."""

    nfa: Nfa
    dfa: Dfa
    minimal: Dfa
    contains: SimCertificate
    follow: SimCertificate


@dataclass(frozen=True)
class EquivCertificate:
    left: PipelineCertificate
    right: PipelineCertificate
    iso: SimCertificate


def _pipeline(d: Diagram) -> PipelineCertificate:
    nf = normal_form(bend(d))
    acceptor = transducer_to_nfa(nf)
    dfa, cert_det = certificate_for_determinization(acceptor)
    mdfa, cert_min = certificate_for_minimization(dfa)
    return PipelineCertificate(acceptor, dfa, mdfa, cert_det, cert_min)


def nfa_pipeline(n: Nfa) -> PipelineCertificate:
    dfa, cert_det = certificate_for_determinization(n)
    mdfa, cert_min = certificate_for_minimization(dfa)
    return PipelineCertificate(n, dfa, mdfa, cert_det, cert_min)


def equiv_chain(n1: Nfa, n2: Nfa) -> EquivCertificate:
    """The certificate chain of two NFAs that accept the same words: each
    determinized and minimized with its certificates, and the isomorphism
    of the two minimal machines."""
    left, right = nfa_pipeline(n1), nfa_pipeline(n2)
    mapping = iso_check(left.minimal, right.minimal)
    if mapping is None:
        raise MachineError("no certificate chain: the automata accept different words")
    iso_rel = Rel(
        obj(right.minimal.states), obj(left.minimal.states),
        frozenset(((q2,), (q1,)) for q1, q2 in mapping.items()),
    )
    return EquivCertificate(left, right, SimCertificate(iso_rel, TWO_SIDED))


def diagrams_equiv(d1: Diagram, d2: Diagram) -> tuple[bool, EquivCertificate | None]:
    """Decide whether two terms denote the same uniform relation.

    Both terms are bent into acceptors, normalized, determinized, and
    minimized; they are equivalent exactly when the minimal machines are
    isomorphic.  On success the full certificate chain is returned.
    """
    t1 = type_of(d1)
    t2 = type_of(d2)
    if t1[0].signature() != t2[0].signature() or t1[1].signature() != t2[1].signature():
        raise TypeMismatch("cannot compare terms of different types")
    left = _pipeline(d1)
    right = _pipeline(d2)
    mapping = iso_check(left.minimal, right.minimal)
    if mapping is None:
        return False, None
    iso_rel = Rel(
        obj(right.minimal.states), obj(left.minimal.states),
        frozenset(((q2,), (q1,)) for q1, q2 in mapping.items()),
    )
    return True, EquivCertificate(left, right, SimCertificate(iso_rel, TWO_SIDED))


def chain_payload(cert: EquivCertificate) -> dict:
    return {
        "kind": "certificate-chain",
        "left": {
            "contains": io.to_payload(cert.left.contains),
            "follow": io.to_payload(cert.left.follow),
        },
        "right": {
            "contains": io.to_payload(cert.right.contains),
            "follow": io.to_payload(cert.right.follow),
        },
        "iso": io.to_payload(cert.iso),
    }


def z_diagrams_equiv(d1: Diagram, d2: Diagram) -> bool:
    """Decide equality of bi-infinite terms: equality of the subshifts
    their bent normal forms present."""
    t1 = type_of(d1)
    t2 = type_of(d2)
    if t1[0].signature() != t2[0].signature() or t1[1].signature() != t2[1].signature():
        raise TypeMismatch("cannot compare terms of different types")
    p1 = presentation_of_ztransducer(z_normal_form(bend(d1)))
    p2 = presentation_of_ztransducer(z_normal_form(bend(d2)))
    return presentations_equiv(p1, p2)


def presentations_equiv_by_refinement(p1: Presentation, p2: Presentation) -> bool:
    """Whether two presentations present the same sofic subshift, decided
    on their factor languages (see the module docstring)."""
    if p1.alphabet.elements != p2.alphabet.elements:
        raise TypeMismatch("presentations over different alphabets")
    q1, q2 = prune(p1), prune(p2)
    full1, full2 = (1 << len(q1.states)) - 1, (1 << len(q2.states)) - 1
    return same_words_by_refinement(q1, full1, full1, q2, full2, full2)


def same_words_by_refinement(m1, start1: int, final1: int, m2, start2: int, final2: int) -> bool:
    """Whether the subset DFA of ``m1`` from ``start1`` accepts the same
    words as that of ``m2`` (same alphabet) from ``start2``, a subset being
    final when it meets ``final1`` (``final2``).  Both DFAs are complete,
    so this holds iff one refinement of their disjoint union, keyed by
    finality, puts both starts in one block."""
    rows: list[list[int]] = []
    key: list[bool] = []
    starts = []
    for m, start, final in ((m1, start1, final1), (m2, start2, final2)):
        graph = automata.subsets(m, start)
        number = dict(zip(graph, range(len(key), len(key) + len(graph))))
        rows += [[number[image] for image in row] for _, row in graph.values()]
        key += [not mask & final for mask in graph]
        starts.append(number[start])
    block = automata.refine([list(col) for col in zip(*rows)], key)
    return block[starts[0]] == block[starts[1]]


def ztransducers_equiv(z1: ZTransducer, z2: ZTransducer) -> bool:
    if z1.input.elements != z2.input.elements or z1.output.elements != z2.output.elements:
        raise TypeMismatch("machines do not share input/output alphabets")
    return presentations_equiv(presentation_of_ztransducer(z1),
                               presentation_of_ztransducer(z2))


def _holds(lhs: Rel, rhs: Rel, mode: str) -> tuple[bool, tuple | None]:
    """Evaluate lhs ⊲ rhs; on failure return a pair witnessing the violation."""
    if mode in (TWO_SIDED, BACKWARD):
        extra = lhs.pairs - rhs.pairs
        if extra:
            return False, min(extra)
    if mode in (TWO_SIDED, FORWARD):
        missing = rhs.pairs - lhs.pairs
        if missing:
            return False, min(missing)
    return True, None


def check_fin(m1: Transducer, m2: Transducer, cert: SimCertificate) -> SimReport:
    """Check the three finite-word conditions for ``cert.s : states2 → states1``."""
    if m1.input.elements != m2.input.elements or m1.output.elements != m2.output.elements:
        raise TypeMismatch("machines do not share input/output alphabets")
    q1, q2 = material(m1.states), material(m2.states)
    s = cert.s
    if s.dom.signature() != obj(q2).signature() or s.cod.signature() != obj(q1).signature():
        raise TypeMismatch("certificate relation is not typed states2 → states1")

    r1 = trans_rel(m1.input, m1.output, q1, m1.trans)
    r2 = trans_rel(m2.input, m2.output, q2, m2.trans)
    conditions = [
        (
            "initial",
            subset_as_point(q1, m1.initial),
            compose(subset_as_point(q2, m2.initial), s),
        ),
        (
            "transition",
            compose(product(identity(obj(m1.input)), s), r1),
            compose(r2, product(identity(obj(m1.output)), s)),
        ),
        (
            "final",
            compose(s, subset_as_copoint(q1, m1.final)),
            subset_as_copoint(q2, m2.final),
        ),
    ]
    for name, lhs, rhs in conditions:
        ok, witness = _holds(lhs, rhs, cert.mode)
        if not ok:
            return SimReport("fail", name, witness)
    return SimReport("pass")


def _letter_rel(p: "Presentation", states) -> Rel:
    """The transition relation A×Q → Q of a presentation over ``states``."""
    star = UNIT.elements[0]
    return trans_rel(p.alphabet, UNIT, states, {(a, q, star, q2) for q, a, q2 in triples(p)})


def check_inf(p1: "Presentation", p2: "Presentation", cert: SimCertificate) -> SimReport:
    """Check the bi-infinite conditions for ``cert.s : states2 → states1``.

    The intertwining condition is the same as the finite one; the side
    conditions ask the long-path states of each machine to be covered by
    the domain (machine 2) and codomain (machine 1) of the relation.
    """
    if p1.alphabet.elements != p2.alphabet.elements:
        raise TypeMismatch("presentations do not share an alphabet")
    q1, q2 = material(p1.states), material(p2.states)
    s = cert.s
    if s.dom.signature() != obj(q2).signature() or s.cod.signature() != obj(q1).signature():
        raise TypeMismatch("certificate relation is not typed states2 → states1")

    lhs = compose(product(identity(obj(p1.alphabet)), s), _letter_rel(p1, q1))
    rhs = compose(_letter_rel(p2, q2), s)
    ok, witness = _holds(lhs, rhs, cert.mode)
    if not ok:
        return SimReport("fail", "transition", witness)

    if cert.mode in (TWO_SIDED, FORWARD):
        domain = {x[0] for x, _ in s.pairs}
        for q in p2.states.sort(long_path_states(p2.states.elements, forward_edges(p2)) - domain):
            return SimReport("fail", "domain-path", ((q,), ()))
    if cert.mode in (TWO_SIDED, BACKWARD):
        codomain = {y[0] for _, y in s.pairs}
        for q in p1.states.sort(long_path_states(p1.states.elements, backward_edges(p1)) - codomain):
            return SimReport("fail", "codomain-path", ((q,), ()))
    return SimReport("pass")


def _flat_holds(lhs: set, rhs: set, mode: str, tail: int) -> tuple[bool, tuple | None]:
    """Evaluate lhs ⊲ rhs on pairs (x, y) stored as flat tuples x + y, ``tail``
    being len(y); on failure return the least pair witnessing the violation."""
    if lhs == rhs:
        return True, None
    extra = lhs - rhs if mode in (TWO_SIDED, BACKWARD) else set()
    if not extra and mode in (TWO_SIDED, FORWARD):
        extra = rhs - lhs
    if not extra:
        return True, None
    w = min(extra)
    return False, (w[:len(w) - tail], w[len(w) - tail:])


def _parts(alphabet: Alphabet) -> dict[str, tuple]:
    """The tuple component each letter gives: ``(a,)``, or ``()`` for the
    letter of the unit alphabet."""
    return {a: () if is_unit(alphabet) else (a,) for a in alphabet.elements}


def _flat_rows(m, parts: dict, out_parts: dict | None = None) -> list:
    """``m``'s rows (a, q, b, q') as ((x, y), q, q'): x and y the tuple
    components ``parts`` and ``out_parts`` give a and b, or without
    ``out_parts``, the one ``parts`` gives (a, b) packed, and ()."""
    if out_parts is None:
        pair = pair_symbol(m.input, m.output)
        letter = {(a, b): (parts[pair(a, b)], ()) for a in m.input.elements for b in m.output.elements}
    else:
        letter = {(a, b): (parts[a], out_parts[b]) for a in parts for b in out_parts}
    return [(letter[a, b], q, q2) for a, q, b, q2 in m.trans]


def _intertwining(s: Rel, rows1: list, rows2: list) -> tuple[set, set]:
    """Both sides of R1 ∘ (id × s) ⊲ (id × s) ∘ R2: the pairs
    ((x, state of machine 2), (y, state of machine 1)), stored flat, from
    each machine's ``_flat_rows``."""
    image, preimage = {}, {}
    for (x,), (y,) in s.pairs:
        image.setdefault(x, []).append(y)
        preimage.setdefault(y, []).append(x)
    lhs = {a + (p,) + b + (q1,) for (a, b), q, q1 in rows1 for p in preimage.get(q, ())}
    rhs = {a + (q2,) + b + (p,) for (a, b), q2, q in rows2 for p in image.get(q, ())}
    return lhs, rhs


def _typed_states(s: Rel, m1, m2) -> None:
    if s.dom.signature() != (m2.states.elements,) or s.cod.signature() != (m1.states.elements,):
        raise TypeMismatch("certificate relation is not typed states2 → states1")


def check_fin_by_tuples(m1, m2, cert: SimCertificate) -> SimReport:
    """Check the three finite-word conditions for ``cert.s : states2 → states1``."""
    if m1.input.elements != m2.input.elements or m1.output.elements != m2.output.elements:
        raise TypeMismatch("machines do not share input/output alphabets")
    s = cert.s
    _typed_states(s, m1, m2)
    a, b = _parts(m1.input), _parts(m1.output)

    def conditions():
        yield "initial", {(q,) for q in m1.initial}, {y for (x,), y in s.pairs if x in m2.initial}, 1
        yield "transition", *_intertwining(s, _flat_rows(m1, a, b), _flat_rows(m2, a, b)), \
            1 if is_unit(m1.output) else 2
        yield "final", {x for x, (y,) in s.pairs if y in m1.final}, {(q,) for q in m2.final}, 0

    for name, lhs, rhs, tail in conditions():
        ok, witness = _flat_holds(lhs, rhs, cert.mode, tail)
        if not ok:
            return SimReport("fail", name, witness)
    return SimReport("pass")


def check_inf_by_tuples(p1, p2, cert: SimCertificate) -> SimReport:
    """Check the bi-infinite conditions for ``cert.s : states2 → states1``."""
    alphabet = pack_obj(obj(p1.input, p1.output))
    if alphabet.elements != pack_obj(obj(p2.input, p2.output)).elements:
        raise TypeMismatch("presentations do not share an alphabet")
    s = cert.s
    _typed_states(s, p1, p2)
    packed = _parts(alphabet)
    ok, witness = _flat_holds(*_intertwining(s, _flat_rows(p1, packed), _flat_rows(p2, packed)),
                              cert.mode, 1)
    if not ok:
        return SimReport("fail", "transition", witness)
    if cert.mode in (TWO_SIDED, FORWARD):
        domain = {x[0] for x, _ in s.pairs}
        for q in p2.states.sort(long_path_states(p2.states.elements, forward_edges(p2)) - domain):
            return SimReport("fail", "domain-path", ((q,), ()))
    if cert.mode in (TWO_SIDED, BACKWARD):
        codomain = {y[0] for _, y in s.pairs}
        for q in p1.states.sort(long_path_states(p1.states.elements, backward_edges(p1)) - codomain):
            return SimReport("fail", "codomain-path", ((q,), ()))
    return SimReport("pass")


def rel_sorted_pairs(r: Rel) -> list:
    """Pairs in canonical order, by one key per pair: the symbol positions of x + y."""
    positions = [w._pos for w in r.dom.flat + r.cod.flat]
    return sorted(r.pairs, key=lambda p: tuple(map(getitem, positions, p[0] + p[1])))


def sample_sorted_pairs(s: UniformRelationSample) -> list:
    """Pairs by length, then by the input word's and the output word's symbol indices."""
    ik = s.input.index
    ok = s.output.index
    return sorted(s.pairs, key=lambda p: (len(p[0]), tuple(map(ik, p[0])), tuple(map(ok, p[1]))))


def sorted_pairs(r: Rel) -> list:
    """Pairs in canonical order (by per-wire symbol indices)."""
    dkey = _tuple_key(r.dom)
    ckey = _tuple_key(r.cod)
    return sorted(r.pairs, key=lambda p: (dkey(p[0]), ckey(p[1])))


def _tuple_key(o):
    flat = o.flat
    return lambda t: tuple(w.index(s) for s, w in zip(t, flat))


def periodic_membership(p: Presentation, word) -> bool:
    """Whether the periodic bi-infinite repetition of ``word`` is in the
    subshift: some power of the word labels a cycle of the pruned graph."""
    word = tuple(word)
    if not word:
        raise MachineError("periodic membership needs a non-empty word")
    pruned = prune(p)
    for a in word:
        pruned.alphabet.index(a)
    states = pruned.states.elements
    step = successor_map(pruned)

    def word_image(srcs: set[str]) -> set[str]:
        cur = srcs
        for a in word:
            cur = {q2 for q in cur for q2 in step[q].get(a, ())}
            if not cur:
                return set()
        return cur

    # relation "reachable by reading word once", iterated up to card(states)
    reach_one = {q: word_image({q}) for q in states}
    current = {q: {q} for q in states}
    for _ in range(max(1, len(states))):
        current = {q: {r2 for r in current[q] for r2 in reach_one[r]} for q in states}
        if any(q in current[q] for q in states):
            return True
    return False


def canonical_dumps(payload: dict) -> str:
    """Sorted keys, two spaces of indent per level, and a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def subset_namer(order: Alphabet):
    """The function that names each subset of ``order``, given its member
    flags, by its members in state order, comma-separated in braces.
    Distinct sets get distinct names.  When a state name begins with
    another one and a comma, as "a,b" begins with "a", each member's
    backslashes and commas are escaped with a backslash.  When a state is
    named "", the empty set is named "∅", apart from "{}", the set of that
    state."""
    names = tuple(map(escape, order.elements)) if comma_prefixed(order) else order.elements
    empty = "∅" if "" in order else "{}"

    def name(flags: bytes) -> str:
        return "{" + ",".join(compress(names, flags)) + "}" if 1 in flags else empty

    return name


def _pair_lists(pairs: list) -> list:
    """``[list(x), list(y)]`` for each pair (x, y), one list for each distinct word."""
    lists = {w: list(w) for w in set(chain.from_iterable(pairs))}
    return [[lists[x], lists[y]] for x, y in pairs]


_string = json.encoder.encode_basestring_ascii  # json.dumps's C escaper
_STR, _SEQ = {str}, {list, tuple}


def _word_pairs(v, indent: str) -> list[str]:
    """The texts at ``indent`` of the rows of ``v``, each a pair of words
    (arrays of symbols); ``TypeError`` or ``ValueError`` if a row is
    anything else.  Each word object's text is made once, kept by ``id``."""
    inner = indent + "  "
    sym = inner + "  "
    sep = "," + sym
    texts: dict[int, str] = {}

    def word(w) -> str:
        text = texts.get(id(w))
        if text is None:
            if type(w) not in _SEQ:  # a string is no word
                raise TypeError("not a word")
            text = texts[id(w)] = "[" + sym + sep.join(map(_string, w)) + inner + "]" if w else "[]"
        return text

    return ["[" + inner + word(w) + "," + inner + word(u) + indent + "]" for w, u in v]


def _write(v, out: list, indent: str) -> None:
    """Append the text of ``v`` to ``out`` at ``indent``, a newline and spaces;
    one call per level of nesting, so it fails near the stdlib encoder's depth."""
    if isinstance(v, str):
        out.append(_string(v))
    elif not isinstance(v, (dict, list, tuple)):  # json.dumps refuses all but numbers, bools, None
        out.append(json.dumps(v))
    elif not v:
        out.append("{}" if isinstance(v, dict) else "[]")
    elif isinstance(v, dict):
        inner = indent + "  "
        out.append("{")
        for i, (k, x) in enumerate(sorted(v.items())):
            out += ("," + inner if i else inner, _string(k), ": ")
            _write(x, out, inner)
        out += (indent, "}")
    else:
        inner = indent + "  "
        sep = "," + inner
        types = set(map(type, v))
        if types <= _STR:  # a row of symbols: one join
            out += ("[", inner, sep.join(map(_string, v)), indent, "]")
            return
        if types <= _SEQ and all(v):  # rows of symbols: one join per row
            row = inner + "  "
            try:
                rows = (inner + "]" + sep + "[" + row).join([("," + row).join(map(_string, x)) for x in v])
                out += ("[", inner, "[", row, rows, inner, "]", indent, "]")
                return
            except TypeError:  # a row holds something else
                pass
            try:  # pairs of words (relation and sample pairs): one join per pair
                out += ("[", inner, sep.join(_word_pairs(v, inner)), indent, "]")
                return
            except (TypeError, ValueError):  # a row is no pair of words
                pass
        out.append("[")
        for i, x in enumerate(v):
            out.append(sep if i else inner)
            _write(x, out, inner)
        out += (indent, "]")


def _with_pair_lists(p):
    """The payload ``p`` with the pairs of each relation and sample in it
    as ``_pair_lists``, as payloads held them."""
    if not isinstance(p, dict):
        return p
    return {k: _pair_lists(x) if k == "pairs" else _with_pair_lists(x) for k, x in p.items()}


def pair_list_dumps(x) -> str:
    """The document of a value, or of a payload, as ``_write`` wrote it
    from a payload that held one list per distinct word of its pairs."""
    out: list = []
    _write(_with_pair_lists(x if isinstance(x, dict) else io.to_payload(x)), out, "\n")
    out.append("\n")
    return "".join(out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relmach",
        description="decision procedures for transducers, diagrams, and subshift presentations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("behavior", help="bounded-length behavior of a transducer or diagram")
    p.add_argument("file")
    p.add_argument("--max-len", type=length, required=True)
    p.add_argument("--via", choices=["shift", "runs"])

    p = sub.add_parser("equiv", help="decide equivalence of two machine files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--certify", metavar="PATH",
                   help="when two diagrams are equal, write their certificate chain")

    p = sub.add_parser("determinize", help="subset construction with certificate")
    p.add_argument("file")
    p.add_argument("--certify", metavar="PATH")

    p = sub.add_parser("minimize", help="merge states with equal follow languages")
    p.add_argument("file")
    p.add_argument("--certify", metavar="PATH")

    p = sub.add_parser("prune", help="restrict to states on unbounded paths")
    p.add_argument("file")
    p.add_argument("--mode", choices=["fwd", "bwd", "full"], default="full")

    p = sub.add_parser("canonical", help="canonical presentation of a subshift")
    p.add_argument("file")

    p = sub.add_parser("check-sim", help="check a simulation certificate")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("cert")
    p.add_argument("--mode", choices=["two-sided", "backward", "forward"])
    p.add_argument("--infinite", action="store_true")

    p = sub.add_parser("normalize", help="quasi-normal form of a diagram term")
    p.add_argument("file")

    p = sub.add_parser("factors", help="bounded factor language of a presentation")
    p.add_argument("file")
    p.add_argument("--max-len", type=length, required=True)

    p = sub.add_parser("periodic", help="periodic-point membership in a subshift")
    p.add_argument("file")
    p.add_argument("word", help="symbols, concatenated or comma-separated")

    p = sub.add_parser("export-dot", help="render a machine file as Graphviz DOT")
    p.add_argument("file")

    return ap
