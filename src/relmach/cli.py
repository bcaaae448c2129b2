"""Command-line front end.

Every subcommand reads machine files (JSON with a top-level ``kind``),
prints canonical JSON (or DOT) on stdout, and exits with 0 for
equal/pass, 1 for not-equal/fail, and 2 for errors; diagnostics name the
offending file and the first violated invariant.  A command branches on
the file's kind tag and refuses other kinds: "expected kind dfa/presentation, got nfa".

``main(argv)`` returns the exit status for every argv, usage errors (2)
and ``--help`` (0) included; only ``entry`` raises ``SystemExit``.  The
grammar is one table, ``COMMANDS``: ``_match`` reads a well-formed argv by
it, and any other argv (``--help``, an abbreviation, a usage error) goes to
argparse, whose parser is built from the table once per process, on the
first such call.  Each call runs its command's function from the table.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import dot, io
from .automata import determinize, minimize, nfa_equiv, prune_language
from .diagram import acceptors, denotation_upto, interpret_upto, loop_term, normal_form, z_normal_form
from .relcore import MachineError, TypeMismatch
from .simulation import SimCertificate, certificate_for_determinization, \
    certificate_for_minimization, check_fin, check_inf, equiv_chain
from .sofic import backward_prune, canonical_form, determinize_presentation, factor_language, \
    factors_upto, forward_prune, minimize_presentation, periodic_membership, prune
from .transducer import behavior_upto

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_ERROR = 2


class CliError(Exception):
    pass


def _load_tagged(path, *tags) -> tuple[str, object]:
    """Read a machine file once; return its kind tag, one of ``tags`` if given, and its value."""
    try:
        kind, x = io.load_tagged(path)
    except FileNotFoundError:
        raise CliError(f"{path}: file not found")
    except MachineError as e:
        raise CliError(f"{path}: {e}")
    except Exception as e:
        raise CliError(f"{path}: unreadable machine file ({e})")
    if tags and kind not in tags:
        raise CliError(f"{path}: expected kind {'/'.join(tags)}, got {kind}")
    return kind, x


def _load(path, *tags):
    return _load_tagged(path, *tags)[1]


def _emit(payload) -> None:
    sys.stdout.write(io.dumps(payload))


def _verdict(status: str) -> int:
    _emit({"kind": "verdict", "status": status})
    return EXIT_OK if status in ("equal", "pass") else EXIT_DIFFER


def _split_word(text: str) -> tuple[str, ...]:
    if "," in text:
        return tuple(s for s in text.split(",") if s)
    return tuple(text)


def cmd_behavior(args) -> int:
    kind, x = _load_tagged(args.file, "transducer", "diagram", "zdiagram")
    n = args.max_len
    if kind != "transducer":
        sample = interpret_upto(x, n)
    elif args.via == "runs":
        sample = behavior_upto(x, n)
    elif args.via == "shift":
        sample = denotation_upto(loop_term(x), n)
    else:
        sample = behavior_upto(x, n)
        if sample.pairs != denotation_upto(loop_term(x), n).pairs:
            raise CliError(f"{args.file}: run and shift evaluations disagree")
    _emit(io.sample_payload(sample))
    return EXIT_OK


# The kinds ``equiv`` compares: machines read on finite words are compared
# as they are, a subshift by its factor language, and two terms by their
# acceptors, built together over the letters that occur in either.
FINITE, BI_INFINITE = ("transducer", "nfa"), ("presentation", "ztransducer")
TERMS = ("diagram", "zdiagram")
ACCEPTORS = {*FINITE, *BI_INFINITE, *TERMS}


def cmd_equiv(args) -> int:
    kind1, x = _load_tagged(args.file1)
    kind2, y = _load_tagged(args.file2)
    # An nfa compares with a dfa, a diagram with a zdiagram over bi-infinite
    # words, and every other kind only with itself.
    kinds = {"nfa" if k == "dfa" else k for k in (kind1, kind2)}
    if kinds == {"diagram", "zdiagram"}:
        kinds = {"zdiagram"}
    if len(kinds) > 1 or not kinds <= ACCEPTORS:
        raise CliError(f"cannot compare kinds {kind1} and {kind2}")
    (kind,) = kinds
    # nfa_equiv checks that automata and subshifts share an alphabet, and
    # acceptors that terms share a type
    if kind in ("transducer", "ztransducer") and \
            (x.input.elements, x.output.elements) != (y.input.elements, y.output.elements):
        raise TypeMismatch("machines do not share input/output alphabets")
    if kind in TERMS:
        x, y = acceptors(x, y, bi_infinite=kind == "zdiagram")
    elif kind in BI_INFINITE:
        x, y = factor_language(x), factor_language(y)
    equal = nfa_equiv(x, y)
    if equal and args.certify and kind == "diagram":
        io.save_file(args.certify, equiv_chain(x, y))
    return _verdict("equal" if equal else "not-equal")


# determinize and minimize: from each kind read, given --certify or not, a
# pair of the machine and its certificate (None without --certify).  A DFA's
# minimization certificate needs every state accessible, so without --certify
# a DFA is minimized alone.  Entries call functions by name, so a patched one is seen.
CONSTRUCTIONS = {
    "determinize": {
        **dict.fromkeys(("nfa", "dfa"), lambda n, certify: certificate_for_determinization(n) if certify
                        else determinize(n, certify)),
        "presentation": lambda p, certify: determinize_presentation(p, certify),
    },
    "minimize": {
        "dfa": lambda d, certify: certificate_for_minimization(d) if certify else minimize(d, certify),
        "presentation": lambda p, certify: minimize_presentation(p, certify),
    },
}


def cmd_determinize(args) -> int:
    """``determinize`` and ``minimize``: print the machine and, with
    ``--certify``, write its certificate."""
    constructions = CONSTRUCTIONS[args.command]
    kind, x = _load_tagged(args.file, *constructions)
    result, cert = constructions[kind](x, bool(args.certify))
    _emit(io.to_payload(result))
    if args.certify:
        io.save_file(args.certify, cert)
    return EXIT_OK


cmd_minimize = cmd_determinize


def cmd_prune(args) -> int:
    kind, x = _load_tagged(args.file, "nfa", "dfa", "presentation")
    if kind == "presentation":
        op = {"fwd": forward_prune, "bwd": backward_prune, "full": prune}[args.mode]
        _emit(io.to_payload(op(x)))
        return EXIT_OK
    if args.mode != "full":
        raise CliError("language-level pruning of an automaton supports only --mode full")
    _emit(io.to_payload(prune_language(x)))
    return EXIT_OK


def cmd_canonical(args) -> int:
    x = _load(args.file, "presentation")
    _emit(io.to_payload(canonical_form(x)))
    return EXIT_OK


# The kinds each check-sim route reads: ``--infinite`` or not.
SIM_INPUTS = {False: (*FINITE, "dfa"), True: BI_INFINITE}


def cmd_check_sim(args) -> int:
    cert = _load(args.cert, "certificate")
    if args.mode:
        cert = SimCertificate(cert.s, args.mode)
    kinds = SIM_INPUTS[args.infinite]
    m1, m2 = _load(args.m1, *kinds), _load(args.m2, *kinds)
    report = (check_inf if args.infinite else check_fin)(m1, m2, cert)
    _emit(io.report_payload(report))
    return EXIT_OK if report.ok else EXIT_DIFFER


def cmd_normalize(args) -> int:
    kind, x = _load_tagged(args.file, "diagram", "zdiagram")
    _emit(io.to_payload(z_normal_form(x) if kind == "zdiagram" else normal_form(x)))
    return EXIT_OK


def cmd_factors(args) -> int:
    p = _load(args.file, "presentation")
    words = factors_upto(p, args.max_len)
    idx = p.alphabet.index
    ordered = sorted(words, key=lambda w: (len(w), tuple(map(idx, w))))
    _emit({"kind": "factors", "max_len": args.max_len, "words": [list(w) for w in ordered]})
    return EXIT_OK


def cmd_periodic(args) -> int:
    p = _load(args.file, "presentation")
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


# The command table: per subcommand its help, its function, and its
# positionals and options, each named and with add_argument's keywords, in
# argparse's order.  ``build_parser`` makes argparse's parser from it, and
# ``_match`` reads well-formed argv by it.
MAX_LEN = {"--max-len": {"type": length, "required": True}}
CERTIFY = {"--certify": {"metavar": "PATH"}}
COMMANDS = {
    "behavior": ("bounded-length behavior of a transducer or diagram", cmd_behavior, {"file": {}},
                 {**MAX_LEN, "--via": {"choices": ["shift", "runs"]}}),
    "equiv": ("decide equivalence of two machine files", cmd_equiv, {"file1": {}, "file2": {}},
              {"--certify": {"metavar": "PATH",
                             "help": "when two diagrams are equal, write their certificate chain"}}),
    "determinize": ("subset construction with certificate", cmd_determinize, {"file": {}}, CERTIFY),
    "minimize": ("merge states with equal follow languages", cmd_minimize, {"file": {}}, CERTIFY),
    "prune": ("restrict to states on unbounded paths", cmd_prune, {"file": {}},
              {"--mode": {"choices": ["fwd", "bwd", "full"], "default": "full"}}),
    "canonical": ("canonical presentation of a subshift", cmd_canonical, {"file": {}}, {}),
    "check-sim": ("check a simulation certificate", cmd_check_sim, {"m1": {}, "m2": {}, "cert": {}},
                  {"--mode": {"choices": ["two-sided", "backward", "forward"]},
                   "--infinite": {"action": "store_true"}}),
    "normalize": ("quasi-normal form of a diagram term", cmd_normalize, {"file": {}}, {}),
    "factors": ("bounded factor language of a presentation", cmd_factors, {"file": {}}, MAX_LEN),
    "periodic": ("periodic-point membership in a subshift", cmd_periodic,
                 {"file": {}, "word": {"help": "symbols, concatenated or comma-separated"}}, {}),
    "export-dot": ("render a machine file as Graphviz DOT", cmd_export_dot, {"file": {}}, {}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relmach",
        description="decision procedures for transducers, diagrams, and subshift presentations",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, _, positionals, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, keywords in (*positionals.items(), *options.items()):
            p.add_argument(name, **keywords)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _match(argv) -> argparse.Namespace | None:
    """The namespace argparse makes of ``argv`` if it is well-formed, else
    None: a command, then its positionals in number and each of its options
    at most once by whole name, a flag bare and any other with a value
    that passes its type and choices, every required one given, and no
    other token starting with ``-``.  Anything else (``-h``, ``--``,
    ``--name=value``, an abbreviation) is argparse's to read or report."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, _, positionals, options = COMMANDS[argv[0]]
    values, free, tokens = {"command": argv[0]}, [], iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            free.append(token)
            continue
        keywords, dest = options.get(token), token[2:].replace("-", "_")
        if keywords is None or dest in values:
            return None
        if "action" in keywords:  # a store_true flag
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as a dash
        if value[:1] == "-":
            return None
        try:
            value = keywords.get("type", str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = value
    for flag, keywords in options.items():
        dest = flag[2:].replace("-", "_")
        if dest not in values and keywords.get("required"):
            return None
        values.setdefault(dest, keywords.get("default", False if "action" in keywords else None))
    if len(free) == len(positionals):
        return argparse.Namespace(**values, **dict(zip(positionals, free)))
    return None


def main(argv=None) -> int:
    args = _match(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as e:  # usage error (2) or --help (0), already printed
            return e.code
    try:
        return COMMANDS[args.command][1](args)
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
