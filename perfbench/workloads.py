"""Seeded corpora of CLI sessions, one generator per workload.

A workload is a list of sessions; a session is a list of steps run in
order, because later steps read files that earlier steps wrote (the
determinized machine, its certificate, a tampered copy).  Every step
knows its expected exit code and checks its stdout against an answer
known by construction or computed by :mod:`machines`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import machines as m

WHY = {
    "nfa-certify": "subset construction and certificate checks on k-th-from-end and random NFAs;"
                   " relcore, automata, simulation.check_fin and io do the work",
    "diagram-equiv": "random feedback terms, delay lines and deep Seq chains;"
                     " diagram normal forms, transducer composition and per-command CLI overhead",
    "sofic-canonical": "canonical forms, pruning and check-sim --infinite on random and cycle presentations"
                       " plus bi-infinite delay lines; the sofic side and simulation.check_inf",
}

# Corpus sizes.  The heaviest single command stays well below a second so
# that each run completes many whole passes.
#
# The seed picks the random inputs but not their size profile: each random
# input is drawn until it falls into a band of a fixed ladder of sizes, and
# the fixed families (k-th from end, delay lines, deep chains, cycles) take
# their mutants and copies from generators seeded by their own size.  So
# every seed gives a corpus of the same cost profile, and a run's figures
# move with the code, not with which seed was drawn.
KTH_RANGE = range(3, 10)
RANDOM_NFAS = 32
RANDOM_NFA_STATES = (4, 9)
RANDOM_NFA_PAIRS = (16, 160)  # determinization certificate pairs, one ladder band per NFA
MUTANT_TRIES = 24
MUTANT_LEN = 12  # longest distinguishing word a mutant may need
CHECK_LEN = 40  # words compared between a machine and its reference, for automata and factors

RANDOM_TERM_PAIRS = 48  # of each verdict
# Terms by the number of word pairs in their bounded denotation, which sets
# the cost of ``behavior``: (fewest, most, terms) per class, scaled to
# RANDOM_TERM_PAIRS and in the shares that random terms fall into them.
TERM_CLASSES = ((0, 1, 12), (2, 9, 6), (10, 40, 8), (41, 130, 4), (131, 400, 2))
# Terms whose reference evaluation up to BEHAVIOR_LEN produces more output
# words than this are drawn again.  About one random term in a hundred
# branches so much that its ``behavior`` alone takes longer than a whole
# pass of the other terms, and one such draw would set a seed's figures.
TERM_WORK_CAP = 1500
BEHAVIOR_LEN = 4
DELAY_STAGES = (2, 3, 4, 5)
DEEP_DEPTHS = (25, 50, 100)
# Past the recursion limit of the term code at the time of writing.  Only the
# self-test runs it: the timed workloads must be free of failing commands.
OVER_DEEP = 1500

RANDOM_PRESENTATIONS = 20
RANDOM_PRESENTATION_STATES = (25, 60)
RANDOM_PRESENTATION_PAIRS = (40, 400)  # determinization certificate pairs, one ladder band per presentation
SUCCESSORS = (0, 0, 1, 1, 2)  # drawn per state and letter
CYCLE_SIZES = (120, 250)
Z_DELAY_STAGES = (2, 3, 4)


Check = Callable[[str], "str | None"]


@dataclass
class Step:
    argv: list[str]
    want: int  # expected exit code
    check: Check | None = None  # stdout -> error message or None
    after: Callable[[str], None] | None = None  # derive files from stdout
    writes: str | None = None  # file the command writes (removed before, digested after)


@dataclass
class Corpus:
    sessions: list[list[Step]] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # name -> text

    def write(self, workdir: str) -> str:
        """Write every input file; return the digest of the generated inputs."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            text = self.files[name]
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
        return h.hexdigest()

    def commands(self) -> int:
        return sum(len(s) for s in self.sessions)


def ladder(low: int, high: int, n: int) -> list[tuple[int, int]]:
    """``n`` contiguous bands of sizes on a geometric ladder from low to high."""
    edges = [round(low * (high / low) ** (i / n)) for i in range(n)] + [high + 1]
    return [(edges[i], max(edges[i], edges[i + 1] - 1)) for i in range(n)]


def classes(spec, n: int) -> list[tuple[int, int]]:
    """Bands from ``(low, high, share)`` classes, ``n`` bands in all."""
    total = sum(share for _, _, share in spec)
    bands = [(low, high) for low, high, share in spec for _ in range(share * n // total)]
    return bands + [spec[0][:2]] * (n - len(bands))


def fill(bands, draw, size, finish=lambda x: x) -> list:
    """Draw candidates until one lies in each band.  ``finish`` turns a
    placed candidate into the input kept, or raises LookupError to drop it."""
    slots: list = [None] * len(bands)
    while None in slots:
        x = draw()
        s = size(x)
        free = [i for i, (low, high) in enumerate(bands) if slots[i] is None and low <= s <= high]
        if free:
            try:
                slots[free[0]] = finish(x)
            except LookupError:
                continue
    return slots


def _verdict(status: str) -> Check:
    def check(out: str):
        got = json.loads(out)
        if got.get("kind") != "verdict" or got.get("status") != status:
            return f"expected verdict {status}, got {got}"
        return None
    return check


def _sim(verdict: str) -> Check:
    def check(out: str):
        got = json.loads(out)
        if got.get("kind") != "sim-report" or got.get("verdict") != verdict:
            return f"expected sim-report {verdict}, got {got.get('verdict')}"
        return None
    return check


def _save(path: str) -> Callable[[str], None]:
    def after(out: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)
    return after


def _drop_first_initial_pair(cert_path: str, det_path: str, bad_path: str) -> None:
    """Remove one pair of the initial subset state: the initial condition of a
    two-sided certificate then fails by construction."""
    with open(det_path, encoding="utf-8") as fh:
        init = json.load(fh)["initial"][0]
    with open(cert_path, encoding="utf-8") as fh:
        cert = json.load(fh)
    pairs = cert["s"]["pairs"]
    drop = next(i for i, (x, _) in enumerate(pairs) if x == [init])
    del pairs[drop]
    with open(bad_path, "w", encoding="utf-8") as fh:
        fh.write(m.dump_json(cert))


def _drop_row(cert_path: str, state: str, bad_path: str) -> None:
    """Remove every pair of one subset state.  Every state of a determinized
    pruned presentation starts an infinite path, so the domain-path
    condition then fails by construction."""
    with open(cert_path, encoding="utf-8") as fh:
        cert = json.load(fh)
    cert["s"]["pairs"] = [p for p in cert["s"]["pairs"] if p[0] != [state]]
    with open(bad_path, "w", encoding="utf-8") as fh:
        fh.write(m.dump_json(cert))


# ---------------------------------------------------------------------------
# nfa-certify

def kth_from_end(k: int) -> dict:
    states = ("Q", tuple(f"q{i}" for i in range(k + 1)))
    trans = [("q0", "a", "q0"), ("q0", "b", "q0"), ("q0", "a", "q1")]
    trans += [(f"q{i}", x, f"q{i + 1}") for i in range(1, k) for x in "ab"]
    return m.automaton_payload("nfa", m.AB, states, trans, ["q0"], [f"q{k}"])


def random_nfa(rng: random.Random) -> dict:
    n = rng.randint(*RANDOM_NFA_STATES)
    names = tuple(f"q{i}" for i in range(n))
    density = rng.uniform(0.15, 0.35)
    trans = [(q, a, q2) for q in names for a in "ab" for q2 in names if rng.random() < density]
    initial = [q for q in names if rng.random() < 0.3] or [rng.choice(names)]
    final = [q for q in names if rng.random() < 0.4] or [rng.choice(names)]
    return m.automaton_payload("nfa", m.AB, ("Q", names), trans, initial, final)


def random_nfas(rng: random.Random) -> list[tuple[dict, dict]]:
    """Random NFAs, one per band of certificate sizes, each with a
    one-transition mutant that has a distinguishing word.  A draw that no
    single toggle changes (a universal language, say) is dropped."""
    high = RANDOM_NFA_PAIRS[1]
    return fill(ladder(*RANDOM_NFA_PAIRS, RANDOM_NFAS), lambda: random_nfa(rng),
                lambda p: m.subset_pairs(p, high), lambda p: (p, one_transition_mutant(rng, p)))


def one_transition_mutant(rng: random.Random, p: dict) -> dict:
    """Toggle one transition so that some word up to CHECK_LEN changes."""
    names = p["states"]["elements"]
    trans = {tuple(t) for t in p["trans"]}
    candidates = [(q, a, q2) for q in names for a in "ab" for q2 in names]
    rng.shuffle(candidates)
    for t in candidates[:MUTANT_TRIES]:
        mutated = trans ^ {t}
        mp = m.automaton_payload("nfa", m.AB, ("Q", tuple(names)), mutated, p["initial"], p["final"])
        if m.first_difference(m.nfa_view(p), m.nfa_view(mp), "ab", MUTANT_LEN) is not None:
            return mp
    raise LookupError("no distinguishing one-transition mutant")


def _language_check(source: dict, states: int | None) -> Check:
    def check(out: str):
        got = json.loads(out)
        if got.get("kind") != "dfa":
            return f"expected a dfa, got {got.get('kind')}"
        if states is not None and len(got["states"]["elements"]) != states:
            return f"expected {states} states, got {len(got['states']['elements'])}"
        word = m.first_difference(m.nfa_view(source), m.nfa_view(got), "ab", CHECK_LEN)
        if word is not None:
            return f"language differs from the input on {''.join(word)!r}"
        return None
    return check


def _nfa_det_after(det: str, cert: str, bad: str):
    def after(out: str) -> None:
        _save(det)(out)
        _drop_first_initial_pair(cert, det, bad)
    return after


def nfa_certify(seed: int) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()
    machines = []
    for k in KTH_RANGE:
        p = kth_from_end(k)
        machines.append((f"kth{k}", p, one_transition_mutant(random.Random(k), p), 2 ** k))
    machines += [(f"rnd{i}", p, mutant, None) for i, (p, mutant) in enumerate(random_nfas(rng))]
    for name, p, mutant, known in machines:
        src, mut = f"{name}.json", f"{name}.mut.json"
        det, cert, bad = f"{name}.det.json", f"{name}.cert.json", f"{name}.bad.json"
        corpus.files[src] = m.dump_json(p)
        corpus.files[mut] = m.dump_json(mutant)
        corpus.sessions.append([
            Step(["determinize", src, "--certify", cert], 0, _language_check(p, known),
                 after=_nfa_det_after(det, cert, bad), writes=cert),
            Step(["minimize", det], 0, _language_check(p, known)),
            Step(["check-sim", src, det, cert], 0, _sim("pass")),
            Step(["check-sim", src, det, bad], 1, _sim("fail")),
            Step(["equiv", src, det], 0, _verdict("equal")),
            Step(["equiv", src, mut], 1, _verdict("not-equal")),
        ])
    return corpus


# ---------------------------------------------------------------------------
# diagram-equiv

W_NAMES = ("s0", "s1")


def _random_rel(rng, dom, cod, density=0.45, max_pairs=4):
    pairs = [(x, y) for x in m.tuples(dom) for y in m.tuples(cod) if rng.random() < density]
    if len(pairs) > max_pairs:
        pairs = rng.sample(pairs, max_pairs)
    return ("box", dom, cod, frozenset(pairs))


def _leaf(rng, dom, cod):
    if m.sig(dom) == m.sig(cod) and rng.random() < 0.2:
        return ("id", dom)
    return _random_rel(rng, dom, cod)


def random_term(rng, dom, cod, nodes: int, feedbacks: int):
    """A well-typed term with at most ``nodes`` constructors."""
    if nodes <= 1:
        return _leaf(rng, dom, cod)
    options = ["seq", "seq", "leaf"]
    if feedbacks > 0:
        options += ["fb", "fb"]
    if len(dom) <= 1 and len(cod) <= 1:
        options.append("par")
    choice = rng.choice(options)
    if choice == "seq":
        pool = list(dom) + list(cod)
        mid = () if not pool or rng.random() < 0.2 else (rng.choice(pool),)
        split = rng.randint(1, nodes - 2) if nodes > 2 else 1
        return ("seq", random_term(rng, dom, mid, split, feedbacks),
                random_term(rng, mid, cod, nodes - 1 - split, 0))
    if choice == "fb":
        wire = ("W", W_NAMES[:rng.randint(1, 2)])
        body = random_term(rng, dom + (wire,), cod + (wire,), nodes - 1, feedbacks - 1)
        pick = [s for s in wire[1] if rng.random() < 0.7]
        pick2 = [s for s in wire[1] if rng.random() < 0.7]
        return ("fb", wire, frozenset(pick), frozenset(pick2), body)
    if choice == "par":
        half = (nodes - 1) // 2
        main = random_term(rng, dom, cod, max(1, half), 0)
        pad = random_term(rng, (), (), max(1, nodes - 1 - half), feedbacks)
        return ("par", main, pad) if rng.random() < 0.5 else ("par", pad, main)
    return _leaf(rng, dom, cod)


def _reassociate(t):
    if t[0] == "seq" and t[1][0] == "seq":
        return ("seq", t[1][1], ("seq", t[1][2], t[2]))
    if t[0] in ("seq", "par"):
        for i in (1, 2):
            inner = _reassociate(t[i])
            if inner is not None:
                return t[:i] + (inner,) + t[i + 1:]
    if t[0] == "fb":
        inner = _reassociate(t[4])
        return None if inner is None else t[:4] + (inner,)
    return None


def _merge_boxes(t):
    if t[0] == "seq" and t[1][0] == "box" and t[2][0] == "box":
        return ("box", t[1][1], t[2][2], m.compose_pairs(t[1][3], t[2][3]))
    if t[0] in ("seq", "par"):
        for i in (1, 2):
            inner = _merge_boxes(t[i])
            if inner is not None:
                return t[:i] + (inner,) + t[i + 1:]
    if t[0] == "fb":
        inner = _merge_boxes(t[4])
        return None if inner is None else t[:4] + (inner,)
    return None


def _rename_feedback(rng, t):
    """Slide a bijection around the first feedback loop, renaming its wire."""
    if t[0] == "fb":
        wire, initial, final, body = t[1:]
        perm = list(wire[1])
        rng.shuffle(perm)
        fresh = (wire[0] + "'", tuple(f"{x}_r" for x in wire[1]))
        sigma = {old: fresh[1][perm.index(old)] for old in wire[1]}
        fwd = ("box", (wire,), (fresh,), frozenset(((x,), (sigma[x],)) for x in wire[1]))
        bwd = ("box", (fresh,), (wire,), frozenset(((sigma[x],), (x,)) for x in wire[1]))
        db, cb = m.type_of(body)
        body2 = ("seq", ("seq", ("par", ("id", db[:-1]), bwd), body), ("par", ("id", cb[:-1]), fwd))
        return ("fb", fresh, frozenset(sigma[x] for x in initial),
                frozenset(sigma[x] for x in final), body2)
    if t[0] in ("seq", "par"):
        for i in (1, 2):
            inner = _rename_feedback(rng, t[i])
            if inner is not None:
                return t[:i] + (inner,) + t[i + 1:]
    return None


def preserving_rewrite(rng, t):
    """One language-preserving rewrite (identity prefix as the fallback)."""
    rewrites = [_reassociate, _merge_boxes, lambda x: _rename_feedback(rng, x)]
    rng.shuffle(rewrites)
    for rewrite in rewrites:
        out = rewrite(t)
        if out is not None:
            return out
    return ("seq", ("id", m.type_of(t)[0]), t)


def box_flip(rng, t, pairs: set):
    """Flip one pair in one box so that the bounded denotation changes, in a
    term that stays within TERM_WORK_CAP; return the altered term and its
    bounded denotation."""
    for _ in range(MUTANT_TRIES // 4):
        candidates = [b for b in m.boxes(t) if b[1] or b[2]]
        if not candidates:
            return None
        target = rng.choice(candidates)
        space = [(x, y) for x in m.tuples(target[1]) for y in m.tuples(target[2])]
        flip = rng.choice(space)
        new = ("box", target[1], target[2], target[3] ^ {flip})
        altered = m.replace(t, target, new)
        altered_pairs, work = m.denote_with_work(altered, BEHAVIOR_LEN, TERM_WORK_CAP)
        if work <= TERM_WORK_CAP and altered_pairs != pairs:
            return altered, altered_pairs
    return None


def _term_check(kind: str, pairs: set, max_len: int) -> Check:
    """The printed machine must have the expected bounded behavior."""
    def check(out: str):
        got = json.loads(out)
        if got.get("kind") != kind:
            return f"expected {kind}, got {got.get('kind')}"
        have = m.sample_pairs(got) if kind == "sample" else m.transducer_pairs(got, max_len)
        if have != pairs:
            return f"bounded behavior differs up to length {max_len}"
        return None
    return check


def _chain_check(path: str, equal: bool) -> Check:
    verdict = _verdict("equal" if equal else "not-equal")

    def check(out: str):
        bad = verdict(out)
        if bad:
            return bad
        if equal != os.path.exists(path):
            return "certificate chain written" if not equal else "no certificate chain written"
        if equal:
            with open(path, encoding="utf-8") as fh:
                if json.load(fh).get("kind") != "certificate-chain":
                    return "certificate file is not a certificate-chain"
        return None
    return check


def delay_stage(z: bool) -> dict:
    """One stage of a delay line: the input is fed into the loop and the
    loop's previous value comes out."""
    swap = ("swap", m.IO, ("W", m.IO[1]))
    stage = ("fbz", swap[2], swap) if z else ("fb", swap[2], frozenset("a"), frozenset("ab"), swap)
    return m.term_payload(stage)


def delay_pairs(k: int, max_len: int) -> set:
    """A k-stage delay line prints a^k followed by the input, cut to length."""
    out = set()
    for n in range(max_len + 1):
        for w in itertools.product("ab", repeat=n):
            out.add((w, (("a",) * k + w)[:n]))
    return out


def _equiv_pair(corpus, name, left, right, equal, z=False):
    a, b, chain = f"{name}.l.json", f"{name}.r.json", f"{name}.chain.json"
    corpus.files[a] = m.dump_json(m.diagram_file(left, z))
    corpus.files[b] = m.dump_json(m.diagram_file(right, z))
    if z:
        return a, b, Step(["equiv", a, b], 0 if equal else 1, _verdict("equal" if equal else "not-equal"))
    return a, b, Step(["equiv", a, b, "--certify", chain], 0 if equal else 1,
                      _chain_check(chain, equal), writes=chain)


def diagram_equiv(seed: int) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()
    io = (m.IO,)
    bands = classes(TERM_CLASSES, RANDOM_TERM_PAIRS)

    def denoted(nodes):
        d = random_term(rng, io, io, nodes, 2)
        return (d, *m.denote_with_work(d, BEHAVIOR_LEN, TERM_WORK_CAP))

    def size(drawn):
        return len(drawn[1]) if drawn[2] <= TERM_WORK_CAP else -1

    equal = fill(bands, lambda: denoted(6), size)
    for i, (d, pairs, _) in enumerate(equal):
        a, _, equiv = _equiv_pair(corpus, f"eq{i}", m.term_payload(d),
                                  m.term_payload(preserving_rewrite(rng, d)), True)
        corpus.sessions.append([
            equiv,
            Step(["normalize", a], 0, _term_check("transducer", pairs, BEHAVIOR_LEN)),
            Step(["behavior", a, "--max-len", str(BEHAVIOR_LEN)], 0,
                 _term_check("sample", pairs, BEHAVIOR_LEN)),
        ])

    def flipped(drawn):
        altered = box_flip(rng, *drawn[:2])
        if altered is None:
            raise LookupError("no box flip changes the bounded denotation")
        return drawn[0], drawn[1], altered[0]

    # banded, normalized and sampled by the original term
    unequal = fill(bands, lambda: denoted(5), size, flipped)
    for made, (d, pairs, altered) in enumerate(unequal):
        b, _, equiv = _equiv_pair(corpus, f"ne{made}", m.term_payload(d),
                                  m.term_payload(altered), False)
        corpus.sessions.append([
            equiv,
            Step(["normalize", b], 0, _term_check("transducer", pairs, BEHAVIOR_LEN)),
            Step(["behavior", b, "--max-len", str(BEHAVIOR_LEN)], 0,
                 _term_check("sample", pairs, BEHAVIOR_LEN)),
        ])
    for k in DELAY_STAGES:
        stages = [delay_stage(False)] * k
        right = m.seq_chain_payload(stages, right=True)
        a, _, same = _equiv_pair(corpus, f"delay{k}", right, m.seq_chain_payload(stages, right=False), True)
        _, _, longer = _equiv_pair(corpus, f"delay{k}x", right,
                                   m.seq_chain_payload(stages + [delay_stage(False)], right=True), False)
        check_len = min(k + 2, 6)
        corpus.sessions.append([
            same, longer,
            Step(["normalize", a], 0, _term_check("transducer", delay_pairs(k, check_len), check_len)),
        ])
    for depth in DEEP_DEPTHS:
        corpus.sessions.append(deep_seq_session(random.Random(depth), corpus, depth))
    return corpus


def deep_seq_session(rng, corpus, depth: int) -> list[Step]:
    io = (m.IO,)
    letters = [((x,), (y,)) for x in "ab" for y in "ab"]
    boxes = [frozenset(rng.sample(letters, rng.randint(2, 3))) for _ in range(depth)]
    composite = boxes[0]
    for b in boxes[1:]:
        composite = m.compose_pairs(composite, b)
    parts = [m.term_payload(("box", io, io, b)) for b in boxes]
    a, _, equiv = _equiv_pair(corpus, f"deep{depth}", m.seq_chain_payload(parts, right=True),
                              m.seq_chain_payload(parts, right=False), True)
    lifted = m.denote_upto(("box", io, io, composite), 3)
    return [equiv, Step(["normalize", a], 0, _term_check("transducer", lifted, 3))]


# ---------------------------------------------------------------------------
# sofic-canonical

def random_presentation(rng: random.Random, n: int) -> dict:
    names = tuple(f"q{i}" for i in range(n))
    # 0-2 successors per state and letter: with at least one everywhere,
    # every presentation would present the full shift
    trans = [(q, a, q2) for q in names for a in "ab"
             for q2 in rng.sample(names, rng.choice(SUCCESSORS))]
    return m.automaton_payload("presentation", m.AB, ("Q", names), trans)


def presentation_pairs(p: dict) -> int:
    """Certificate pairs of the subset construction that determinize and
    canonical run, from the pruned states; 0 if nothing survives pruning."""
    names, trans = m.presentation_edges(p)
    alive = m.graph_prune(names, trans)
    rooted = {"alphabet": m.alphabet_payload(m.AB), "initial": sorted(alive), "final": [],
              "trans": [t for t in trans if t[0] in alive and t[2] in alive]}
    return m.subset_pairs(rooted, RANDOM_PRESENTATION_PAIRS[1]) if alive else 0


def random_presentations(rng: random.Random) -> list[tuple[dict, dict]]:
    """Random presentations, each with an edge-deleted mutant.  The i-th has
    the i-th of evenly spaced state counts and its certificate in the i-th
    band of the ladder, so both sizes are the same on every seed.  A draw
    that no single edge deletion changes is dropped."""
    low, high = RANDOM_PRESENTATION_STATES
    last = RANDOM_PRESENTATIONS - 1
    out = []
    for i, (least, most) in enumerate(ladder(*RANDOM_PRESENTATION_PAIRS, RANDOM_PRESENTATIONS)):
        n = low + round((high - low) * i / max(1, last))
        while True:
            p = random_presentation(rng, n)
            if least <= presentation_pairs(p) <= most:
                try:
                    out.append((p, edge_deleted(rng, p)))
                    break
                except LookupError:
                    continue
    return out


def cycle_with_chord(n: int) -> dict:
    names = tuple(f"q{i}" for i in range(n))
    trans = [(f"q{i}", "a", f"q{(i + 1) % n}") for i in range(n)] + [("q0", "b", f"q{n // 2}")]
    return m.automaton_payload("presentation", m.AB, ("Q", names), trans)


def relabelled_copy(rng: random.Random, p: dict) -> dict:
    """Rename and reorder the states, then add states on no bi-infinite path:
    sources with no incoming edge and a sink with no outgoing edge."""
    names = p["states"]["elements"]
    fresh = [f"p{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    rename = dict(zip(names, fresh))
    trans = [(rename[q], a, rename[q2]) for q, a, q2 in p["trans"]]
    extra = ["t0", "t1", "t2", "sink"]
    for t in extra[:3]:
        trans.append((t, rng.choice("ab"), rng.choice(fresh)))
    trans.append((rng.choice(fresh), rng.choice("ab"), "sink"))
    order = fresh + extra
    rng.shuffle(order)
    return m.automaton_payload("presentation", m.AB, ("Q", tuple(order)), trans)


def _factor_difference(states, edges, ref_states, ref_edges, letters="ab", max_len=None):
    return m.first_difference(m.factor_view(states, edges), m.factor_view(ref_states, ref_edges),
                              letters, max_len or CHECK_LEN)


def edge_deleted(rng: random.Random, p: dict) -> dict:
    """Delete one edge so that some factor word disappears."""
    names, trans = m.presentation_edges(p)
    order = list(range(len(trans)))
    rng.shuffle(order)
    for i in order[:MUTANT_TRIES]:
        kept = trans[:i] + trans[i + 1:]
        if _factor_difference(names, kept, names, trans, max_len=MUTANT_LEN) is not None:
            return m.automaton_payload("presentation", m.AB, ("Q", tuple(names)), kept)
    raise LookupError("no distinguishing edge deletion")


def _presentation_check(source: dict, pruned: set | None = None, resolving: bool = False) -> Check:
    ref_states, ref_edges = m.presentation_edges(source)

    def check(out: str):
        got = json.loads(out)
        if got.get("kind") != "presentation":
            return f"expected a presentation, got {got.get('kind')}"
        states, edges = m.presentation_edges(got)
        if pruned is not None and set(states) != pruned:
            return "pruned state set differs"
        if resolving and not m.is_right_resolving(got):
            return "presentation is not right-resolving"
        word = _factor_difference(states, edges, ref_states, ref_edges)
        if word is not None:
            return f"factor language differs from the input on {''.join(word)!r}"
        return None
    return check


def _det_after(det: str, cert: str, bad: str):
    def after(out: str) -> None:
        _save(det)(out)
        _drop_row(cert, json.loads(out)["root"], bad)
    return after


def presentation_session(rng, corpus, name: str, p: dict, mutant: dict | None = None) -> list[Step]:
    src, copy, mut = f"{name}.json", f"{name}.copy.json", f"{name}.mut.json"
    pruned, det, cert, bad = f"{name}.pruned.json", f"{name}.det.json", f"{name}.cert.json", f"{name}.bad.json"
    corpus.files[mut] = m.dump_json(mutant or edge_deleted(rng, p))
    corpus.files[src] = m.dump_json(p)
    corpus.files[copy] = m.dump_json(relabelled_copy(rng, p))
    return [
        Step(["canonical", src], 0, _presentation_check(p, resolving=True)),
        Step(["prune", src], 0, _presentation_check(p, m.graph_prune(*m.presentation_edges(p))),
             after=_save(pruned)),
        Step(["determinize", pruned, "--certify", cert], 0, _presentation_check(p, resolving=True),
             after=_det_after(det, cert, bad), writes=cert),
        Step(["check-sim", pruned, det, cert, "--infinite"], 0, _sim("pass")),
        Step(["check-sim", pruned, det, bad, "--infinite"], 1, _sim("fail")),
        Step(["equiv", src, copy], 0, _verdict("equal")),
        Step(["equiv", src, mut], 1, _verdict("not-equal")),
    ]


PAIR_LETTERS = tuple(f"({x},{y})" for x in "ab" for y in "ab")


def z_delay_edges(k: int):
    """The bi-infinite k-delay as a graph: a state holds the last k inputs,
    oldest first, and is left on the letter (input, oldest)."""
    states = list(itertools.product("ab", repeat=k))
    return states, [(s, f"({x},{s[0]})", s[1:] + (x,)) for s in states for x in "ab"]


def _ztransducer_check(k: int) -> Check:
    ref_states, ref_edges = z_delay_edges(k)

    def check(out: str):
        got = json.loads(out)
        if got.get("kind") != "ztransducer":
            return f"expected a ztransducer, got {got.get('kind')}"
        edges = [(q, f"({a},{b})", q2) for a, q, b, q2 in got["trans"]]
        word = _factor_difference(got["states"]["elements"], edges, ref_states, ref_edges, PAIR_LETTERS)
        if word is not None:
            return f"factor language differs from a {k}-delay on {word!r}"
        return None
    return check


def sofic_canonical(seed: int) -> Corpus:
    rng = random.Random(seed)
    corpus = Corpus()
    for i, (p, mutant) in enumerate(random_presentations(rng)):
        corpus.sessions.append(presentation_session(rng, corpus, f"rnd{i}", p, mutant))
    for n in CYCLE_SIZES:
        p = cycle_with_chord(n)
        chordless = dict(p, trans=[t for t in p["trans"] if t[1] != "b"])
        corpus.sessions.append(presentation_session(random.Random(n), corpus, f"cyc{n}", p, chordless))
    for k in Z_DELAY_STAGES:
        stages = [delay_stage(True)] * k
        right = m.seq_chain_payload(stages, right=True)
        a, _, same = _equiv_pair(corpus, f"zdelay{k}", right, m.seq_chain_payload(stages, right=False),
                                 True, z=True)
        _, _, longer = _equiv_pair(corpus, f"zdelay{k}x", right,
                                   m.seq_chain_payload(stages + [delay_stage(True)], right=True),
                                   False, z=True)
        corpus.sessions.append([same, longer, Step(["normalize", a], 0, _ztransducer_check(k))])
    return corpus


CORPORA = {
    "nfa-certify": nfa_certify,
    "diagram-equiv": diagram_equiv,
    "sofic-canonical": sofic_canonical,
}
