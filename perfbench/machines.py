"""Machine-file payloads and reference evaluators owned by the benchmark.

Nothing here imports relmach: inputs are built as plain JSON payloads and
every reference answer comes from the small simulators below, so a change
to the library (or to its tests) cannot move the expected answers.

Plain term representation used by the diagram generators::

    ("box", dom, cod, pairs)      dom/cod: tuple of alphabets, pairs of flat tuples
    ("id", obj)
    ("swap", a, b)
    ("seq", first, second)
    ("par", left, right)
    ("fb", wire, initial, final, body)    labelled feedback (finite words)
    ("fbz", wire, body)                   unlabelled feedback (bi-infinite words)

An alphabet is ``(name, elements)``; an object is a tuple of alphabets.
"""

from __future__ import annotations

import itertools
import json

AB = ("A", ("a", "b"))
IO = ("IO", ("a", "b"))


# ---------------------------------------------------------------------------
# Canonical JSON (sorted keys, no whitespace), written without recursion so
# arbitrarily deep terms can be serialized.  The text equals
# ``json.dumps(x, sort_keys=True, separators=(",", ":"))``.

def dump_json(payload) -> str:
    out: list[str] = []
    stack: list = [payload]  # values still to emit, and Literal text between them
    while stack:
        x = stack.pop()
        if isinstance(x, Literal):
            out.append(x)
        elif isinstance(x, dict):
            parts: list = []
            for i, key in enumerate(sorted(x)):
                parts += [Literal(("{" if i == 0 else ",") + json.dumps(key) + ":"), x[key]]
            stack += reversed(parts + [Literal("}" if x else "{}")])
        elif isinstance(x, (list, tuple)):
            parts = []
            for i, v in enumerate(x):
                parts += [Literal("[" if i == 0 else ","), v]
            stack += reversed(parts + [Literal("]" if x else "[]")])
        else:
            out.append(json.dumps(x))
    return "".join(out) + "\n"


class Literal(str):
    """JSON text already rendered, as opposed to a string value."""


def alphabet_payload(a) -> dict:
    return {"name": a[0], "elements": list(a[1])}


def _order(a):
    return {s: i for i, s in enumerate(a[1])}


def automaton_payload(kind: str, alphabet, states, trans, initial=None, final=None) -> dict:
    """An ``nfa``/``dfa``/``presentation`` payload with canonically sorted arrays."""
    qi, ai = _order(states), _order(alphabet)
    out = {
        "kind": kind,
        "alphabet": alphabet_payload(alphabet),
        "states": alphabet_payload(states),
        "trans": [list(t) for t in sorted(set(trans), key=lambda t: (qi[t[0]], ai[t[1]], qi[t[2]]))],
    }
    if initial is not None:
        out["initial"] = sorted(initial, key=qi.__getitem__)
        out["final"] = sorted(final, key=qi.__getitem__)
    return out


def obj_payload(o) -> list:
    return [alphabet_payload(a) for a in o]


def tuples(o):
    return itertools.product(*[a[1] for a in o])


def rel_payload(dom, cod, pairs) -> dict:
    dkey = [_order(a) for a in dom]
    ckey = [_order(a) for a in cod]

    def key(p):
        return (tuple(k[s] for k, s in zip(dkey, p[0])), tuple(k[s] for k, s in zip(ckey, p[1])))

    return {
        "dom": obj_payload(dom),
        "cod": obj_payload(cod),
        "pairs": [[list(x), list(y)] for x, y in sorted(pairs, key=key)],
    }


def term_payload(t) -> dict:
    """Payload of a (shallow) plain term; deep chains use :func:`seq_chain_payload`."""
    tag = t[0]
    if tag == "box":
        return {"node": "box", "rel": rel_payload(t[1], t[2], t[3])}
    if tag == "id":
        return {"node": "id", "obj": obj_payload(t[1])}
    if tag == "swap":
        return {"node": "swap", "a": alphabet_payload(t[1]), "b": alphabet_payload(t[2])}
    if tag == "seq":
        return {"node": "seq", "first": term_payload(t[1]), "second": term_payload(t[2])}
    if tag == "par":
        return {"node": "par", "left": term_payload(t[1]), "right": term_payload(t[2])}
    if tag == "fb":
        order = _order(t[1])
        return {
            "node": "feedback",
            "wire": alphabet_payload(t[1]),
            "initial": sorted(t[2], key=order.__getitem__),
            "final": sorted(t[3], key=order.__getitem__),
            "body": term_payload(t[4]),
        }
    if tag == "fbz":
        return {"node": "feedback-z", "wire": alphabet_payload(t[1]), "body": term_payload(t[2])}
    raise ValueError(f"unknown term tag {tag!r}")


def diagram_file(term_json: dict, z: bool = False) -> dict:
    return {"kind": "zdiagram" if z else "diagram", "term": term_json}


def seq_chain_payload(parts: list[dict], right: bool) -> dict:
    """``Seq`` of the given term payloads, nested to the right or left, built
    iteratively so the depth is unbounded."""
    if right:
        cur = parts[-1]
        for p in reversed(parts[:-1]):
            cur = {"node": "seq", "first": p, "second": cur}
    else:
        cur = parts[0]
        for p in parts[1:]:
            cur = {"node": "seq", "first": cur, "second": p}
    return cur


# ---------------------------------------------------------------------------
# Automata and transducers read back from relmach's output.

def nfa_view(p: dict):
    """(step, initial, final) of an nfa/dfa payload; step maps (q, letter) to successors."""
    step: dict[tuple[str, str], set[str]] = {}
    for q, a, q2 in p["trans"]:
        step.setdefault((q, a), set()).add(q2)
    return step, frozenset(p["initial"]), frozenset(p["final"])


def factor_view(states, edges):
    """The pruned graph read with every state initial and final: its language
    is the factor language of the presented subshift."""
    alive = frozenset(graph_prune(states, edges))
    step: dict = {}
    for q, a, q2 in edges:
        if q in alive and q2 in alive:
            step.setdefault((q, a), set()).add(q2)
    return step, alive, alive


def first_difference(left, right, letters, max_len: int):
    """A shortest word of length <= max_len accepted by exactly one of two
    automaton views, or None.  Breadth-first over pairs of subset states."""
    def image(view, cur, a):
        return frozenset(q2 for q in cur for q2 in view[0].get((q, a), ()))

    start = (left[1], right[1])
    seen = {start}
    frontier = [(start, ())]
    for depth in range(max_len + 1):
        nxt = []
        for (s1, s2), word in frontier:
            if bool(s1 & left[2]) != bool(s2 & right[2]):
                return word
            if depth == max_len:
                continue
            for a in letters:
                pair = (image(left, s1, a), image(right, s2, a))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append((pair, word + (a,)))
        frontier = nxt
    return None


def subset_pairs(p: dict, cap: int) -> int:
    """Pairs (subset, member) of the accessible subset construction, the size
    of its simulation certificate; counting stops once it passes cap."""
    step, initial, _ = nfa_view(p)
    letters = p["alphabet"]["elements"]
    seen = {initial}
    todo = [initial]
    pairs = len(initial)
    while todo and pairs <= cap:
        cur = todo.pop()
        for a in letters:
            img = frozenset(q2 for q in cur for q2 in step.get((q, a), ()))
            if img not in seen:
                seen.add(img)
                todo.append(img)
                pairs += len(img)
    return pairs


def transducer_pairs(p: dict, max_len: int) -> set[tuple[tuple, tuple]]:
    """Related word pairs of length <= max_len of a transducer payload."""
    step: dict[str, list] = {}
    for a, q, b, q2 in p["trans"]:
        step.setdefault(q, []).append((a, b, q2))
    final = set(p["final"])
    frontier = {(q, (), ()) for q in p["initial"]}
    out = {(w, v) for q, w, v in frontier if q in final}
    for _ in range(max_len):
        frontier = {(q2, w + (a,), v + (b,)) for q, w, v in frontier for a, b, q2 in step.get(q, ())}
        out |= {(w, v) for q, w, v in frontier if q in final}
    return out


def sample_pairs(p: dict) -> set[tuple[tuple, tuple]]:
    return {(tuple(w), tuple(v)) for w, v in p["pairs"]}


# ---------------------------------------------------------------------------
# Presentations: pruning and bounded factor languages.

def graph_prune(states, edges) -> set:
    """States on a bi-infinite path of the graph given by (q, letter, q2) edges."""
    alive = set(states)
    while True:
        has_out = {q for q, _, q2 in edges if q in alive and q2 in alive}
        has_in = {q2 for q, _, q2 in edges if q in alive and q2 in alive}
        new = has_out & has_in
        if new == alive:
            return alive
        alive = new


def presentation_edges(p: dict):
    return p["states"]["elements"], [tuple(t) for t in p["trans"]]


def is_right_resolving(p: dict) -> bool:
    keys = [(q, a) for q, a, _ in p["trans"]]
    return len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# Diagram terms: typing and bounded denotation, independent of normal forms.

def sig(o):
    return tuple(a[1] for a in o)


def type_of(t):
    tag = t[0]
    if tag == "box":
        return t[1], t[2]
    if tag == "id":
        return t[1], t[1]
    if tag == "swap":
        return (t[1], t[2]), (t[2], t[1])
    if tag == "seq":
        return type_of(t[1])[0], type_of(t[2])[1]
    if tag == "par":
        (dl, cl), (dr, cr) = type_of(t[1]), type_of(t[2])
        return dl + dr, cl + cr
    db, cb = type_of(t[-1])
    return db[:-1], cb[:-1]


def outputs(t, word: tuple, memo: dict) -> frozenset:
    """Output words the term relates to an input word (words are tuples of
    flat tuples), evaluated constructor by constructor from the input."""
    key = (id(t), word)
    if key in memo:
        return memo[key]
    tag = t[0]
    if tag == "box":
        image = memo.get(id(t))
        if image is None:
            image = memo[id(t)] = {}
            for x, y in t[3]:
                image.setdefault(x, []).append(y)
        out = frozenset(itertools.product(*[image.get(x, ()) for x in word]))
    elif tag == "id":
        out = frozenset([word])
    elif tag == "swap":
        out = frozenset([tuple(x[1:] + x[:1] for x in word)])
    elif tag == "seq":
        out = frozenset(v for mid in outputs(t[1], word, memo) for v in outputs(t[2], mid, memo))
    elif tag == "par":
        cut = len(type_of(t[1])[0])
        lefts = outputs(t[1], tuple(x[:cut] for x in word), memo)
        rights = outputs(t[2], tuple(x[cut:] for x in word), memo)
        out = frozenset(tuple(a + b for a, b in zip(v1, v2)) for v1 in lefts for v2 in rights)
    elif tag == "fb":
        _, wire, initial, final, body = t
        found = set()
        for fed in itertools.product(wire[1], repeat=len(word)):  # state word read by the body
            if word and fed[0] not in initial:
                continue
            for v in outputs(body, tuple(x + (s,) for x, s in zip(word, fed)), memo):
                made = tuple(y[-1] for y in v)  # state word written by the body
                if (made[-1] in final and fed[1:] == made[:-1]) if word else bool(initial & final):
                    found.add(tuple(y[:-1] for y in v))
        out = frozenset(found)
    else:
        raise ValueError(f"no finite-word evaluation for {tag!r}")
    memo[key] = out
    return out


def denote_upto(t, n: int) -> set[tuple[tuple, tuple]]:
    """All pairs up to length n of a term with single-wire boundaries, as
    words of symbols (the packed form relmach prints)."""
    return denote_with_work(t, n)[0]


def denote_with_work(t, n: int, cap: float = float("inf")) -> tuple[set[tuple[tuple, tuple]], int]:
    """``denote_upto`` and the output words its evaluation produced on the
    way, subterm by subterm: a measure of how branching the term is.  Once
    the count passes ``cap`` it stops after the current word length, and
    the pairs are incomplete."""
    letters = list(tuples(type_of(t)[0]))
    out = set()
    work = 0
    for k in range(n + 1):
        memo: dict = {}  # words of one length only, to keep the peak memory small
        for word in itertools.product(letters, repeat=k):
            for v in outputs(t, word, memo):
                out.add((tuple(x[0] if x else "*" for x in word), tuple(y[0] if y else "*" for y in v)))
        work += sum(len(v) for key, v in memo.items() if isinstance(key, tuple))
        if work > cap:
            break
    return out, work


def boxes(t) -> list:
    if t[0] == "box":
        return [t]
    if t[0] in ("seq", "par"):
        return boxes(t[1]) + boxes(t[2])
    if t[0] in ("fb", "fbz"):
        return boxes(t[-1])
    return []


def replace(t, old, new):
    if t is old:
        return new
    tag = t[0]
    if tag in ("seq", "par"):
        return (tag, replace(t[1], old, new), replace(t[2], old, new))
    if tag == "fb":
        return t[:4] + (replace(t[4], old, new),)
    return t


def compose_pairs(r, s) -> frozenset:
    by_mid: dict = {}
    for y, z in s:
        by_mid.setdefault(y, []).append(z)
    return frozenset((x, z) for x, y in r for z in by_mid.get(y, ()))
