"""Graphviz DOT rendering for machines and diagram terms, by kind tag."""

from __future__ import annotations

from .automata import Nfa
from .diagram import Box, Diagram, Feedback, Id, Par, Seq, Swap
from .io import kind_of
from .relcore import MachineError
from .sofic import Presentation
from .transducer import Machine


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_machine(m: Machine) -> str:
    """The state graph of a machine.  An automaton's edges are labelled by
    letters, a transducer's by "a / b".  A machine read on bi-infinite words
    has no start marker, and a presentation's states are all final, its root
    singled out."""
    states, automaton = m.states.elements, isinstance(m, (Nfa, Presentation))
    if m.initial is None:
        initial, final = [], set(states) if automaton else set()
    else:
        initial, final = m.states.sort(m.initial), m.final
    lines = ["digraph {", "  rankdir=LR;"]
    # DOT reads an unquoted marker and a quoted state of one name as one node
    start, taken = "__start", set(states)
    while any(f"{start}{i}" in taken for i in range(len(initial))):
        start = "_" + start
    for i, q in enumerate(initial):
        lines.append(f"  {start}{i} [shape=point];")
    for q in states:
        shape = "doublecircle" if q in final else "circle"
        extra = " style=bold color=red" if m.root is not None and q == m.root else ""
        lines.append(f"  {_q(q)} [shape={shape}{extra}];")
    for i, q in enumerate(initial):
        lines.append(f"  {start}{i} -> {_q(q)};")
    grouped: dict[tuple[str, str], list[str]] = {}
    for a, q, b, q2 in m.trans:
        grouped.setdefault((q, q2), []).append(a if automaton else f"{a} / {b}")
    for (src, dst), labels in sorted(grouped.items()):
        lines.append(f"  {_q(src)} -> {_q(dst)} [label={_q(', '.join(sorted(labels)))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_diagram(d: Diagram) -> str:
    """The term as a tree: nodes numbered n0, n1, ... in pre-order, each
    edge to a child written after the lines of the child's subtree."""
    lines = ["digraph {", "  node [shape=box];"]
    count = 0
    stack: list = [(d, None)]  # a node and its parent's name, or an edge line
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        term, parent = item
        match term:
            case Box(rel=r):
                label = f"box {len(r.pairs)} pairs"
            case Id(o=o):
                label = "id " + ",".join(w.name for w in o.wires)
            case Swap(a=a, b=b):
                label = f"swap {a.name},{b.name}"
            case Seq():
                label = "seq"
            case Par():
                label = "par"
            case Feedback(wire=w, initial=i, final=f):
                label = f"feedback {w.name} I={{{','.join(w.sort(i))}}} F={{{','.join(w.sort(f))}}}" \
                    if term.labelled else f"feedback-z {w.name}"
        me = f"n{count}"
        count += 1
        lines.append(f"  {me} [label={_q(label)}];")
        if parent is not None:
            stack.append(f"  {parent} -> {me};")
        stack.extend((c, me) for c in reversed(term.children))
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(x) -> str:
    kind = kind_of(x)
    if isinstance(x, Machine):
        return dot_machine(x)
    if kind not in ("diagram", "zdiagram"):
        raise MachineError(f"no DOT rendering for {kind}")
    return dot_diagram(x)
