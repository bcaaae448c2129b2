"""Command-line front end.

Every subcommand reads machine files (JSON with a top-level ``kind``),
prints canonical JSON (or DOT) on stdout, and exits with 0 for
equal/pass, 1 for not-equal/fail, and 2 for errors; diagnostics name the
offending file and the first violated invariant.

``main(argv)`` returns the exit status for every argv, usage errors (2)
and ``--help`` (0) included; only ``entry`` raises ``SystemExit``.  The
argument parser is built once per process, on the first call, so
in-process callers pay its set-up once; each call looks its command up
as the module function ``cmd_<command>`` (``-`` read as ``_``).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import dot, io
from .automata import Dfa, Nfa, determinize, minimize, nfa_equiv, nfa_to_transducer, \
    prune_language, transducer_to_nfa
from .diagram import Box, Feedback, FeedbackZ, Id, Par, Seq, Swap, acceptor, bend, \
    check_same_type, equiv_chain, interpret_upto, normal_form, z_normal_form
from .relcore import MachineError, TypeMismatch
from .simulation import SimCertificate, check_fin, check_inf
from .sofic import Presentation, ZTransducer, backward_prune, canonical_form, \
    determinize_presentation, factor_language, factors_upto, forward_prune, \
    minimize_presentation, periodic_membership, presentation_of_ztransducer, prune
from .transducer import Transducer, behavior_upto, behavior_via_shift_upto, to_automaton

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_ERROR = 2

DIAGRAM_NODES = (Box, Id, Swap, Seq, Par, Feedback, FeedbackZ)


class CliError(Exception):
    pass


def _load_tagged(path, *kinds) -> tuple[str, object]:
    """Read a machine file once; return its kind tag and its value."""
    try:
        kind, x = io.load_tagged(path)
    except FileNotFoundError:
        raise CliError(f"{path}: file not found")
    except MachineError as e:
        raise CliError(f"{path}: {e}")
    except Exception as e:
        raise CliError(f"{path}: unreadable machine file ({e})")
    if kinds and not isinstance(x, kinds):
        names = "/".join(k.__name__ for k in kinds)
        raise CliError(f"{path}: expected kind {names}, got {kind}")
    return kind, x


def _load(path, *kinds):
    return _load_tagged(path, *kinds)[1]


def _emit(payload) -> None:
    sys.stdout.write(io.dumps(payload))


def _verdict(status: str, detail=None) -> int:
    payload = {"kind": "verdict", "status": status}
    if detail is not None:
        payload["detail"] = detail
    _emit(payload)
    if status in ("equal", "pass"):
        return EXIT_OK
    if status in ("not-equal", "fail"):
        return EXIT_DIFFER
    return EXIT_ERROR


def _split_word(text: str) -> tuple[str, ...]:
    if "," in text:
        return tuple(s for s in text.split(",") if s)
    return tuple(text)


def cmd_behavior(args) -> int:
    x = _load(args.file, Transducer, *DIAGRAM_NODES)
    n = args.max_len
    if isinstance(x, DIAGRAM_NODES):
        sample = interpret_upto(x, n)
    elif args.via == "runs":
        sample = behavior_upto(x, n)
    elif args.via == "shift":
        sample = behavior_via_shift_upto(x, n)
    else:
        sample = behavior_upto(x, n)
        other = behavior_via_shift_upto(x, n)
        if sample.pairs != other.pairs:
            raise CliError(f"{args.file}: run and shift evaluations disagree")
    _emit(io.sample_payload(sample))
    return EXIT_OK


# The finite-word acceptor of each kind that ``equiv`` compares: a subshift
# is decided by its factor language.
ACCEPTORS = {
    "nfa": lambda n: n,
    "transducer": lambda t: transducer_to_nfa(to_automaton(t)),
    "diagram": acceptor,
    "presentation": factor_language,
    "ztransducer": lambda z: factor_language(presentation_of_ztransducer(z)),
    "zdiagram": lambda d: factor_language(presentation_of_ztransducer(z_normal_form(bend(d)))),
}


def cmd_equiv(args) -> int:
    kind1, x = _load_tagged(args.file1)
    kind2, y = _load_tagged(args.file2)
    # An nfa compares with a dfa, a diagram with a zdiagram over bi-infinite
    # words, and every other kind only with itself.
    kinds = {"nfa" if k == "dfa" else k for k in (kind1, kind2)}
    if kinds == {"diagram", "zdiagram"}:
        kinds = {"zdiagram"}
    if len(kinds) > 1 or not kinds <= ACCEPTORS.keys():
        raise CliError(f"cannot compare kinds {kind1} and {kind2}")
    (kind,) = kinds
    # nfa_equiv checks that automata and subshifts share an alphabet
    if kind in ("diagram", "zdiagram"):
        check_same_type(x, y)
    elif kind in ("transducer", "ztransducer") and \
            (x.input.elements, x.output.elements) != (y.input.elements, y.output.elements):
        raise TypeMismatch("machines do not share input/output alphabets")
    n1, n2 = ACCEPTORS[kind](x), ACCEPTORS[kind](y)
    equal = nfa_equiv(n1, n2)
    if equal and args.certify and kind == "diagram":
        io.save_file(args.certify, equiv_chain(n1, n2))
    return _verdict("equal" if equal else "not-equal")


def cmd_determinize(args) -> int:
    x = _load(args.file, Nfa, Presentation)
    if isinstance(x, Presentation):
        result, cert = determinize_presentation(x)
    else:
        result, contains = determinize(x)
        cert = SimCertificate(contains)
    _emit(io.to_payload(result))
    if args.certify:
        with open(args.certify, "w", encoding="utf-8") as fh:
            fh.write(io.dumps(cert))
    return EXIT_OK


def cmd_minimize(args) -> int:
    x = _load(args.file, Dfa, Presentation)
    if isinstance(x, Presentation):
        result, cert = minimize_presentation(x)
    else:
        result, lmap = minimize(x)
        cert = SimCertificate(lmap)
    _emit(io.to_payload(result))
    if args.certify:
        with open(args.certify, "w", encoding="utf-8") as fh:
            fh.write(io.dumps(cert))
    return EXIT_OK


def cmd_prune(args) -> int:
    x = _load(args.file, Nfa, Presentation)
    if isinstance(x, Presentation):
        op = {"fwd": forward_prune, "bwd": backward_prune, "full": prune}[args.mode]
        _emit(io.to_payload(op(x)))
        return EXIT_OK
    if args.mode != "full":
        raise CliError("language-level pruning of an automaton supports only --mode full")
    _emit(io.to_payload(prune_language(x)))
    return EXIT_OK


def cmd_canonical(args) -> int:
    x = _load(args.file, Presentation)
    _emit(io.to_payload(canonical_form(x)))
    return EXIT_OK


def cmd_check_sim(args) -> int:
    cert = _load(args.cert, SimCertificate)
    if args.mode:
        cert = SimCertificate(cert.s, args.mode)
    if args.infinite:
        m1 = _load(args.m1, Presentation, ZTransducer)
        m2 = _load(args.m2, Presentation, ZTransducer)
        if isinstance(m1, ZTransducer):
            m1 = presentation_of_ztransducer(m1)
        if isinstance(m2, ZTransducer):
            m2 = presentation_of_ztransducer(m2)
        report = check_inf(m1, m2, cert)
    else:
        m1 = _load(args.m1, Transducer, Nfa)
        m2 = _load(args.m2, Transducer, Nfa)
        if isinstance(m1, Nfa):
            m1 = nfa_to_transducer(m1)
        if isinstance(m2, Nfa):
            m2 = nfa_to_transducer(m2)
        report = check_fin(m1, m2, cert)
    _emit(io.report_payload(report))
    return EXIT_OK if report.ok else EXIT_DIFFER


def cmd_normalize(args) -> int:
    kind, x = _load_tagged(args.file, *DIAGRAM_NODES)
    if kind == "zdiagram":
        _emit(io.to_payload(z_normal_form(x)))
    else:
        _emit(io.to_payload(normal_form(x)))
    return EXIT_OK


def cmd_factors(args) -> int:
    p = _load(args.file, Presentation)
    words = factors_upto(p, args.max_len)
    idx = p.alphabet.index
    ordered = sorted(words, key=lambda w: (len(w), tuple(map(idx, w))))
    _emit({"kind": "factors", "max_len": args.max_len, "words": [list(w) for w in ordered]})
    return EXIT_OK


def cmd_periodic(args) -> int:
    p = _load(args.file, Presentation)
    member = periodic_membership(p, _split_word(args.word))
    return _verdict("pass" if member else "fail")


def cmd_export_dot(args) -> int:
    x = _load(args.file)
    sys.stdout.write(dot.to_dot(x))
    return EXIT_OK


def length(text: str) -> int:
    """A word length bound: a non-negative integer."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {text}")
    return int(text)


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # usage error (2) or --help (0), already printed
        return e.code
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (CliError, MachineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # exit 1 means "not equal / fail", never a crash
        print("error: " + " ".join(f"{type(e).__name__}: {e}".split()), file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
