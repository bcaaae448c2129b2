"""Graphviz DOT rendering for machines and diagram terms, by kind tag."""

from __future__ import annotations

from .automata import Nfa
from .diagram import Box, Diagram, Feedback, Id, Par, Seq, Swap
from .io import kind_of
from .relcore import MachineError
from .sofic import Presentation, ZTransducer
from .transducer import Transducer


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _state_graph(states, initial, final, edges, root=None) -> str:
    lines = ["digraph {", "  rankdir=LR;"]
    # DOT reads an unquoted marker and a quoted state of one name as one node
    start, taken = "__start", set(states)
    while any(f"{start}{i}" in taken for i in range(len(initial))):
        start = "_" + start
    for i, q in enumerate(initial):
        lines.append(f"  {start}{i} [shape=point];")
    for q in states:
        shape = "doublecircle" if q in final else "circle"
        extra = " style=bold color=red" if root is not None and q == root else ""
        lines.append(f"  {_q(q)} [shape={shape}{extra}];")
    for i, q in enumerate(initial):
        lines.append(f"  {start}{i} -> {_q(q)};")
    grouped: dict[tuple[str, str], list[str]] = {}
    for src, label, dst in edges:
        grouped.setdefault((src, dst), []).append(label)
    for (src, dst), labels in sorted(grouped.items()):
        lines.append(f"  {_q(src)} -> {_q(dst)} [label={_q(', '.join(sorted(labels)))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_nfa(n: Nfa) -> str:
    return _state_graph(
        n.states.elements, n.states.sort(n.initial), n.final,
        [(q, a, q2) for q, a, q2 in n.sorted_trans()],
    )


def dot_transducer(t: Transducer) -> str:
    return _state_graph(
        t.states.elements, t.states.sort(t.initial), t.final,
        [(q, f"{a} / {b}", q2) for a, q, b, q2 in t.sorted_quads()],
    )


def dot_ztransducer(z: ZTransducer) -> str:
    return _state_graph(
        z.states.elements, [], frozenset(),
        [(q, f"{a} / {b}", q2) for a, q, b, q2 in z.sorted_quads()],
    )


def dot_presentation(p: Presentation) -> str:
    # every state is initial and final; only the root is singled out
    return _state_graph(
        p.states.elements, [], frozenset(p.states.elements),
        [(q, a, q2) for q, a, q2 in p.sorted_trans()],
        root=p.root,
    )


def dot_diagram(d: Diagram) -> str:
    lines = ["digraph {", "  node [shape=box];"]
    counter = [0]

    def walk(term: Diagram) -> str:
        me = f"n{counter[0]}"
        counter[0] += 1
        match term:
            case Box(rel=r):
                label = f"box {len(r.pairs)} pairs"
                children = []
            case Id(o=o):
                label = "id " + ",".join(w.name for w in o.wires)
                children = []
            case Swap(a=a, b=b):
                label = f"swap {a.name},{b.name}"
                children = []
            case Seq(first=f, second=s):
                label = "seq"
                children = [f, s]
            case Par(left=l, right=r):
                label = "par"
                children = [l, r]
            case Feedback(wire=w, initial=i, final=f, body=b):
                label = f"feedback {w.name} I={{{','.join(w.sort(i))}}} F={{{','.join(w.sort(f))}}}" \
                    if term.labelled else f"feedback-z {w.name}"
                children = [b]
            case _:
                raise MachineError(f"not a diagram: {term!r}")
        lines.append(f"  {me} [label={_q(label)}];")
        for child in children:
            lines.append(f"  {me} -> {walk(child)};")
        return me

    walk(d)
    lines.append("}")
    return "\n".join(lines) + "\n"


RENDERERS = {
    "nfa": dot_nfa, "dfa": dot_nfa, "transducer": dot_transducer,
    "ztransducer": dot_ztransducer, "presentation": dot_presentation,
    "diagram": dot_diagram, "zdiagram": dot_diagram,
}


def to_dot(x) -> str:
    kind = kind_of(x)
    if kind not in RENDERERS:
        raise MachineError(f"no DOT rendering for {kind}")
    return RENDERERS[kind](x)
