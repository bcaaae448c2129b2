"""JSON interchange for every machine kind.

Each file is a single JSON document with a top-level ``kind`` tag.
``KINDS`` maps each tag to its class, payload function and parser, and
``kind_of`` gives a value's tag; the CLI and the DOT renderer dispatch on
tags.  One payload function and one parser serve every machine kind: an
automaton (nfa, dfa, presentation) has an ``alphabet`` and rows [q, a, q2],
a (z)transducer ``input``, ``output`` and rows [a, q, b, q2]; finite-word
kinds have ``initial`` and ``final``, a presentation may have a ``root``.
The parser builds each alphabet and wire bundle once per document, and an
automaton's rows straight into quadruples (a, q, "*", q2).

Output is canonical: object keys are sorted, words are arrays of symbol
names, and every array of symbols, pairs, or transitions is sorted in the
canonical order of its alphabets, so serialization is deterministic and
round-trip stable.  ``dumps`` writes the layout itself, byte for byte
``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, the oracle
of its tests, by each payload value's exact type: a machine's rows
(``_Rows``) one join per row, a relation's or a sample's sorted pairs
(``_Pairs``, tuples) in one pass, each word's text made once.  Reading a
document that is not JSON, or whose structure does not fit its kind,
raises ``MachineError``; so does a string or an object where an array
belongs (checked by type, with no loop per row except the one that
converts a relation's pairs and checks their words), one nested too deeply
to decode or parse, and a value too deep to write: the JSON decoder, the
term parser and the writer recurse once per level, so that depth follows
Python's recursion limit (``sys.getrecursionlimit``), while a term's
payload is built at any depth.  A term is typed as it is parsed, so an
ill-typed term file is refused when read, and no ill-typed term can be
built to be written.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, NamedTuple, get_args

from .automata import Dfa, Nfa
from .diagram import Box, Diagram, Feedback, Id, Par, Seq, Swap, _post_order
from .relcore import UNIT, Alphabet, MachineError, Obj, Rel, ShapeError
from .simulation import Chain, SimCertificate, SimReport
from .sofic import Presentation, ZTransducer
from .transducer import STAR, Machine, Transducer, UniformRelationSample, unit_rows


def _array(p: dict, field: str) -> list:
    """``p[field]``, which must be a JSON array: a string or an object would
    read as its characters or keys.  ``from_payload`` reports the
    ``TypeError`` as a malformed document."""
    v = p[field]
    if type(v) is not list:
        raise TypeError(f"field {field!r}: expected an array")
    return v


def _rows(p: dict, field: str) -> list:
    """``p[field]``, an array of arrays (transitions, relation pairs),
    checked by type in one pass."""
    rows = _array(p, field)
    if not set(map(type, rows)) <= {list}:
        raise TypeError(f"field {field!r}: expected an array of arrays")
    return rows


def _alphabet_payload(a: Alphabet) -> dict:
    return {"name": a.name, "elements": list(a.elements)}


def _parse_alphabet(p: dict, seen: dict) -> Alphabet:
    """The alphabet ``p`` describes.  ``seen`` maps the (name, elements) of
    each alphabet of the document read so far, and the wires of each
    bundle, to the value built for it."""
    key = p["name"], tuple(_array(p, "elements"))
    try:
        a = seen.get(key)
    except TypeError:  # an unhashable name or element, which Alphabet refuses
        return Alphabet(*key)
    if a is None:
        a = seen[key] = Alphabet(*key)
    return a


def _obj_payload(o: Obj) -> list:
    return [_alphabet_payload(w) for w in o.wires]


def _parse_obj(p: dict, field: str, seen: dict) -> Obj:
    wires = tuple([_parse_alphabet(w, seen) for w in _array(p, field)])
    o = seen.get(wires)
    if o is None:
        o = seen[wires] = Obj(wires)
    return o


class _Rows(list):
    """A machine's rows of symbols, none of them empty: ``_write`` joins each row."""


class _Pairs(list):
    """Sorted pairs of words, tuples of symbols: ``_write`` writes each run of equal first words."""


def _rel_payload(r: Rel) -> dict:
    return {
        "dom": _obj_payload(r.dom),
        "cod": _obj_payload(r.cod),
        "pairs": _Pairs(r.sorted_pairs()),
    }


def _parse_rel(p: dict, seen: dict) -> Rel:
    pairs = set()
    for x, y in _rows(p, "pairs"):
        if type(x) is not list or type(y) is not list:
            raise TypeError("field 'pairs': expected pairs of arrays")
        pairs.add((tuple(x), tuple(y)))
    return Rel(_parse_obj(p, "dom", seen), _parse_obj(p, "cod", seen), pairs)


_AUTOMATA = (Nfa, Presentation)  # one alphabet, rows written [q, a, q2]


def _machine_payload(m: Machine) -> dict:
    rows = m.sorted_rows()
    if isinstance(m, _AUTOMATA):
        out = {"alphabet": _alphabet_payload(m.input),
               "trans": _Rows([[q, a, q2] for a, q, _, q2 in rows])}
    else:
        out = {"input": _alphabet_payload(m.input), "output": _alphabet_payload(m.output),
               "trans": _Rows(map(list, rows))}
    out["states"] = _alphabet_payload(m.states)
    if m.initial is not None:
        out["initial"], out["final"] = m.states.sort(m.initial), m.states.sort(m.final)
    if m.root is not None:
        out["root"] = m.root
    return out


def _parse_machine(cls: type, p: dict, seen: dict) -> Machine:
    """A document of the machine kind ``cls``."""
    automaton = issubclass(cls, _AUTOMATA)
    if automaton:
        alphabets = _parse_alphabet(p["alphabet"], seen), UNIT
    else:
        alphabets = _parse_alphabet(p["input"], seen), _parse_alphabet(p["output"], seen)
    states = _parse_alphabet(p["states"], seen)
    rows = _rows(p, "trans")
    if automaton:
        try:
            rows = [(a, q, STAR, q2) for q, a, q2 in rows]
        except ValueError:  # a row of another length, which unit_rows names
            rows = unit_rows(map(tuple, rows))
    else:
        rows = map(tuple, rows)
    finite = not issubclass(cls, (Presentation, ZTransducer))
    labels = (_array(p, "initial"), _array(p, "final")) if finite else (None, None)
    return cls(*alphabets, states, rows, *labels, p.get("root") if cls is Presentation else None)


def _term_payload(d: Diagram) -> dict:
    """The payload of a term: each distinct node's from its children's."""
    done: dict[int, dict] = {}
    for node in _post_order(d):
        match node:
            case Box(rel=r):
                p = {"node": "box", "rel": _rel_payload(r)}
            case Id(o=o):
                p = {"node": "id", "obj": _obj_payload(o)}
            case Swap(a=a, b=b):
                p = {"node": "swap", "a": _alphabet_payload(a), "b": _alphabet_payload(b)}
            case Seq(first=f, second=s):
                p = {"node": "seq", "first": done[id(f)], "second": done[id(s)]}
            case Par(left=l, right=r):
                p = {"node": "par", "left": done[id(l)], "right": done[id(r)]}
            case Feedback(wire=w, initial=i, final=f, body=b):
                labels = {"initial": w.sort(i), "final": w.sort(f)} if node.labelled else {}
                p = {"node": "feedback" if node.labelled else "feedback-z",
                     "wire": _alphabet_payload(w), **labels, "body": done[id(b)]}
        done[id(node)] = p
    return done[id(d)]


def _parse_term(p: dict, seen: dict) -> Diagram:
    node = p["node"]
    if node == "box":
        return Box(_parse_rel(p["rel"], seen))
    if node == "id":
        return Id(_parse_obj(p, "obj", seen))
    if node == "swap":
        return Swap(_parse_alphabet(p["a"], seen), _parse_alphabet(p["b"], seen))
    if node == "seq":
        return Seq(_parse_term(p["first"], seen), _parse_term(p["second"], seen))
    if node == "par":
        return Par(_parse_term(p["left"], seen), _parse_term(p["right"], seen))
    if node in ("feedback", "feedback-z"):
        # a labelled node's label lists must be arrays, so null is refused
        labels = (_array(p, "initial"), _array(p, "final")) if node == "feedback" else (None, None)
        return Feedback(_parse_alphabet(p["wire"], seen), *labels, _parse_term(p["body"], seen))
    raise MachineError(f"unknown diagram node {node!r}")


def _certificate_payload(c: SimCertificate) -> dict:
    return {"mode": c.mode, "s": _rel_payload(c.s)}


def _parse_certificate(p: dict, seen: dict) -> SimCertificate:
    return SimCertificate(_parse_rel(p["s"], seen), p["mode"])


def sample_payload(s: UniformRelationSample) -> dict:
    return {
        "kind": "sample",
        "input": _alphabet_payload(s.input),
        "output": _alphabet_payload(s.output),
        "max_len": s.max_len,
        "pairs": _Pairs(s.sorted_pairs()),
    }


def report_payload(r: SimReport) -> dict:
    out: dict = {"kind": "sim-report", "verdict": r.verdict}
    if r.failed_condition is not None:
        out["failed_condition"] = r.failed_condition
        out["witness"] = [list(part) for part in r.witness]
    return out


def _chain_payload(c: Chain) -> dict:
    sides = {side: {"contains": to_payload(contains.cert), "follow": to_payload(follow.cert)}
             for side, (contains, follow) in (("left", c.left), ("right", c.right))}
    return {**sides, "iso": to_payload(c.iso.cert)}


def _term_document(d: Diagram) -> dict:
    return {"term": _term_payload(d)}


def _parse_term_without(labelled: bool, message: str):
    """The parser of a diagram kind whose terms have no feedback node with
    ``Feedback.labelled == labelled``."""
    def parse(p: dict, seen: dict) -> Diagram:
        term = _parse_term(p["term"], seen)
        if labelled in term.feedback:
            raise MachineError(message)
        return term
    return parse


class Kind(NamedTuple):
    cls: type
    payload: Callable  # a value's fields
    parse: Callable | None  # a value from its document and a dict of the values built; None: never read


KINDS = {
    "alphabet": Kind(Alphabet, _alphabet_payload, _parse_alphabet),
    "relation": Kind(Rel, _rel_payload, _parse_rel),
    **{tag: Kind(cls, _machine_payload, partial(_parse_machine, cls)) for tag, cls in [
        ("transducer", Transducer), ("nfa", Nfa), ("dfa", Dfa), ("presentation", Presentation),
        ("ztransducer", ZTransducer)]},
    "diagram": Kind(Diagram, _term_document,
                    _parse_term_without(False, "diagram contains unlabelled feedback")),
    "zdiagram": Kind(Diagram, _term_document,
                     _parse_term_without(True, "zdiagram contains labelled feedback")),
    "certificate": Kind(SimCertificate, _certificate_payload, _parse_certificate),
    "certificate-chain": Kind(Chain, _chain_payload, None),
}

# Each class's tag, looked up by exact type, so a Dfa is no nfa; the node
# classes of a term map to ``diagram``, and ``kind_of`` looks at its feedback.
_TAG = {cls: tag for tag, kind in KINDS.items() if tag != "zdiagram"
        for cls in get_args(kind.cls) or (kind.cls,)}


def kind_of(x) -> str:
    """The ``kind`` tag of a value; a term with unlabelled feedback is a
    ``zdiagram``, and one with both kinds of feedback is no machine kind."""
    tag = _TAG.get(type(x))
    if tag is None:
        raise MachineError(f"{type(x).__name__} is no machine kind")
    if tag == "diagram":
        if len(x.feedback) > 1:
            raise MachineError("term mixes labelled and unlabelled feedback")
        if False in x.feedback:
            return "zdiagram"
    return tag


def to_payload(x) -> dict:
    tag = kind_of(x)
    return {"kind": tag, **KINDS[tag].payload(x)}


def _parse(p: dict):
    tag = p.get("kind")
    kind = KINDS.get(tag) if isinstance(tag, str) else None
    if kind is None or kind.parse is None:
        raise MachineError(f"unknown kind {tag!r}")
    return kind.parse(p, {})


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


_string = json.encoder.encode_basestring_ascii  # json.dumps's C escaper


def _pairs(v: _Pairs, indent: str) -> str:
    """The text of the pairs ``v`` at ``indent``, comma-separated: a first word's
    text made once per run of equal first words, a second word's once per word."""
    inner = indent + "  "
    sym = inner + "  "
    sep = "," + sym

    def word(w: tuple) -> str:
        return "[" + sym + sep.join(map(_string, w)) + inner + "]" if w else "[]"

    second = {y: word(y) for y in set(map(itemgetter(1), v))}
    close = indent + "]," + indent
    runs = []
    for x, run in groupby(v, itemgetter(0)):
        head = "[" + inner + word(x) + "," + inner  # each pair: head, its second word, a close
        runs.append(head + (close + head).join(map(second.__getitem__, map(itemgetter(1), run))))
    return close.join(runs) + indent + "]"


def _write(v, out: list, indent: str) -> None:
    """Append the text of ``v`` to ``out`` at ``indent``, a newline and spaces;
    one call per level of nesting, so it fails near the stdlib encoder's depth.
    A payload's rows and pairs are written by their exact type, and any other
    array of symbols in one join."""
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
        if type(v) is _Pairs:
            out += ("[", inner, _pairs(v, inner), indent, "]")
        elif type(v) is _Rows:  # one join per row
            row = inner + "  "
            rows = (inner + "]" + sep + "[" + row).join([("," + row).join(map(_string, x)) for x in v])
            out += ("[", inner, "[", row, rows, inner, "]", indent, "]")
        elif set(map(type, v)) <= {str}:  # a row of symbols: one join
            out += ("[", inner, sep.join(map(_string, v)), indent, "]")
        else:
            out.append("[")
            for i, x in enumerate(v):
                out.append(sep if i else inner)
                _write(x, out, inner)
            out += (indent, "]")


def dumps(x) -> str:
    out: list = []
    try:
        _write(x if isinstance(x, dict) else to_payload(x), out, "\n")
    except RecursionError:
        kind = x.get("kind") if isinstance(x, dict) else _TAG.get(type(x))
        raise MachineError(f"{kind} value: nested too deeply to write") from None
    out.append("\n")
    return "".join(out)


def loads(text: str):
    return from_payload(_decode(text))


def save_file(path, x) -> None:
    text = dumps(x)  # a value with no document leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_tagged(path) -> tuple[str, object]:
    """Read a machine file once: its ``kind`` tag and its value."""
    with open(path, encoding="utf-8") as fh:
        payload = _decode(fh.read())
    x = from_payload(payload)
    return payload["kind"], x

