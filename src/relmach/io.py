"""JSON interchange for every machine kind.

Each file is a single JSON document with a top-level ``kind`` tag.  Output
is canonical: object keys are sorted, words are arrays of symbol names,
and every array of symbols, pairs, or transitions is sorted in the
canonical order of its alphabets, so serialization is deterministic and
round-trip stable.  Reading a document that is not JSON, or whose
structure does not fit its kind, raises ``MachineError``; so does one
nested too deeply to decode or parse, a depth limit that follows Python's
recursion limit (``sys.getrecursionlimit``).
"""

from __future__ import annotations

import json

from .automata import Dfa, Nfa
from .diagram import Box, Diagram, EquivCertificate, Feedback, FeedbackZ, Id, Par, Seq, Swap, \
    _contains_node
from .relcore import Alphabet, MachineError, Obj, Rel, ShapeError
from .simulation import SimCertificate, SimReport
from .sofic import Presentation, ZTransducer, presentation, ztransducer
from .transducer import QuadMachine, Transducer, UniformRelationSample, transducer

KINDS = (
    "alphabet", "relation", "transducer", "nfa", "dfa",
    "presentation", "ztransducer", "diagram", "zdiagram", "certificate",
)


def _alphabet_payload(a: Alphabet) -> dict:
    return {"name": a.name, "elements": list(a.elements)}


def _parse_alphabet(p: dict) -> Alphabet:
    return Alphabet(p["name"], tuple(p["elements"]))


def _obj_payload(o: Obj) -> list:
    return [_alphabet_payload(w) for w in o.wires]


def _parse_obj(p: list) -> Obj:
    return Obj(tuple(_parse_alphabet(w) for w in p))


def _rel_payload(r: Rel) -> dict:
    return {
        "dom": _obj_payload(r.dom),
        "cod": _obj_payload(r.cod),
        "pairs": [[list(x), list(y)] for x, y in r.sorted_pairs()],
    }


def _parse_rel(p: dict) -> Rel:
    return Rel(
        _parse_obj(p["dom"]), _parse_obj(p["cod"]),
        ((tuple(x), tuple(y)) for x, y in p["pairs"]),
    )


def _quads_payload(m: QuadMachine) -> dict:
    """A transducer's or a ztransducer's alphabets and transitions."""
    return {
        "input": _alphabet_payload(m.input),
        "output": _alphabet_payload(m.output),
        "states": _alphabet_payload(m.states),
        "trans": [list(q) for q in m.sorted_quads()],
    }


def _parse_quads(p: dict) -> tuple:
    return (_parse_alphabet(p["input"]), _parse_alphabet(p["output"]),
            _parse_alphabet(p["states"]), (tuple(q) for q in p["trans"]))


def _transducer_payload(t: Transducer) -> dict:
    return {**_quads_payload(t), "initial": t.states.sort(t.initial),
            "final": t.states.sort(t.final)}


def _nfa_payload(n: Nfa) -> dict:
    return {
        "alphabet": _alphabet_payload(n.alphabet),
        "states": _alphabet_payload(n.states),
        "trans": [list(t) for t in n.sorted_trans()],
        "initial": n.states.sort(n.initial),
        "final": n.states.sort(n.final),
    }


def _parse_nfa(p: dict, cls=Nfa) -> Nfa:
    return cls(
        _parse_alphabet(p["alphabet"]), _parse_alphabet(p["states"]),
        (tuple(t) for t in p["trans"]), p["initial"], p["final"],
    )


def _presentation_payload(p: Presentation) -> dict:
    out = {
        "alphabet": _alphabet_payload(p.alphabet),
        "states": _alphabet_payload(p.states),
        "trans": [list(t) for t in p.sorted_trans()],
    }
    if p.root is not None:
        out["root"] = p.root
    return out


def _parse_presentation(p: dict) -> Presentation:
    return presentation(
        _parse_alphabet(p["alphabet"]), _parse_alphabet(p["states"]),
        (tuple(t) for t in p["trans"]), p.get("root"),
    )


def _term_payload(d: Diagram) -> dict:
    match d:
        case Box(rel=r):
            return {"node": "box", "rel": _rel_payload(r)}
        case Id(o=o):
            return {"node": "id", "obj": _obj_payload(o)}
        case Swap(a=a, b=b):
            return {"node": "swap", "a": _alphabet_payload(a), "b": _alphabet_payload(b)}
        case Seq(first=f, second=s):
            return {"node": "seq", "first": _term_payload(f), "second": _term_payload(s)}
        case Par(left=l, right=r):
            return {"node": "par", "left": _term_payload(l), "right": _term_payload(r)}
        case Feedback(wire=w, initial=i, final=f, body=b):
            return {
                "node": "feedback",
                "wire": _alphabet_payload(w),
                "initial": w.sort(i),
                "final": w.sort(f),
                "body": _term_payload(b),
            }
        case FeedbackZ(wire=w, body=b):
            return {"node": "feedback-z", "wire": _alphabet_payload(w), "body": _term_payload(b)}
    raise MachineError(f"not a diagram: {d!r}")


def _parse_term(p: dict) -> Diagram:
    node = p["node"]
    if node == "box":
        return Box(_parse_rel(p["rel"]))
    if node == "id":
        return Id(_parse_obj(p["obj"]))
    if node == "swap":
        return Swap(_parse_alphabet(p["a"]), _parse_alphabet(p["b"]))
    if node == "seq":
        return Seq(_parse_term(p["first"]), _parse_term(p["second"]))
    if node == "par":
        return Par(_parse_term(p["left"]), _parse_term(p["right"]))
    if node == "feedback":
        wire = _parse_alphabet(p["wire"])
        return Feedback(wire, p["initial"], p["final"], _parse_term(p["body"]))
    if node == "feedback-z":
        return FeedbackZ(_parse_alphabet(p["wire"]), _parse_term(p["body"]))
    raise MachineError(f"unknown diagram node {node!r}")


def _certificate_payload(c: SimCertificate) -> dict:
    return {"mode": c.mode, "s": _rel_payload(c.s)}


def _parse_certificate(p: dict) -> SimCertificate:
    return SimCertificate(_parse_rel(p["s"]), p["mode"])


def sample_payload(s: UniformRelationSample) -> dict:
    return {
        "kind": "sample",
        "input": _alphabet_payload(s.input),
        "output": _alphabet_payload(s.output),
        "max_len": s.max_len,
        "pairs": [[list(w), list(v)] for w, v in s.sorted_pairs()],
    }


def report_payload(r: SimReport) -> dict:
    out: dict = {"kind": "sim-report", "verdict": r.verdict}
    if r.failed_condition is not None:
        out["failed_condition"] = r.failed_condition
        out["witness"] = [list(part) for part in r.witness]
    return out


def to_payload(x) -> dict:
    if isinstance(x, Alphabet):
        return {"kind": "alphabet", **_alphabet_payload(x)}
    if isinstance(x, Rel):
        return {"kind": "relation", **_rel_payload(x)}
    if isinstance(x, Transducer):
        return {"kind": "transducer", **_transducer_payload(x)}
    if isinstance(x, Dfa):
        return {"kind": "dfa", **_nfa_payload(x)}
    if isinstance(x, Nfa):
        return {"kind": "nfa", **_nfa_payload(x)}
    if isinstance(x, Presentation):
        return {"kind": "presentation", **_presentation_payload(x)}
    if isinstance(x, ZTransducer):
        return {"kind": "ztransducer", **_quads_payload(x)}
    if isinstance(x, SimCertificate):
        return {"kind": "certificate", **_certificate_payload(x)}
    if isinstance(x, EquivCertificate):
        sides = {side: {"contains": to_payload(p.contains), "follow": to_payload(p.follow)}
                 for side, p in (("left", x.left), ("right", x.right))}
        return {"kind": "certificate-chain", **sides, "iso": to_payload(x.iso)}
    if isinstance(x, (Box, Id, Swap, Seq, Par, Feedback, FeedbackZ)):
        kind = "zdiagram" if _contains_node(x, FeedbackZ) else "diagram"
        return {"kind": kind, "term": _term_payload(x)}
    raise MachineError(f"cannot serialize {type(x).__name__}")


def _parse(p: dict):
    kind = p.get("kind")
    if kind == "alphabet":
        return _parse_alphabet(p)
    if kind == "relation":
        return _parse_rel(p)
    if kind == "transducer":
        return transducer(*_parse_quads(p), p["initial"], p["final"])
    if kind == "nfa":
        return _parse_nfa(p, Nfa)
    if kind == "dfa":
        return _parse_nfa(p, Dfa)
    if kind == "presentation":
        return _parse_presentation(p)
    if kind == "ztransducer":
        return ztransducer(*_parse_quads(p))
    if kind in ("diagram", "zdiagram"):
        term = _parse_term(p["term"])
        has_z = _contains_node(term, FeedbackZ)
        if kind == "zdiagram" and _contains_node(term, Feedback):
            raise MachineError("zdiagram contains labelled feedback")
        if kind == "diagram" and has_z:
            raise MachineError("diagram contains unlabelled feedback")
        return term
    if kind == "certificate":
        return _parse_certificate(p)
    raise MachineError(f"unknown kind {kind!r}")


def from_payload(p: dict):
    """Parse a decoded document; any structural fault raises MachineError."""
    if not isinstance(p, dict):
        raise MachineError(f"a machine document is a JSON object, not {type(p).__name__}")
    try:
        return _parse(p)
    except KeyError as e:
        raise MachineError(f"{p.get('kind')} document: missing field {e}") from None
    except (AttributeError, IndexError, TypeError, ValueError, ShapeError) as e:
        raise MachineError(f"{p.get('kind')} document: malformed ({e})") from None
    except RecursionError:
        raise MachineError(f"{p.get('kind')} document: nested too deeply") from None


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise MachineError(f"not a JSON document ({e})") from None
    except RecursionError:
        raise MachineError("JSON document nested too deeply") from None


def dumps(x) -> str:
    payload = x if isinstance(x, dict) else to_payload(x)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    return from_payload(_decode(text))


def save_file(path, x) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(x))


def load_tagged(path) -> tuple[str, object]:
    """Read a machine file once: its ``kind`` tag and its value."""
    with open(path, encoding="utf-8") as fh:
        payload = _decode(fh.read())
    x = from_payload(payload)
    return payload["kind"], x


def load_file(path):
    return load_tagged(path)[1]
