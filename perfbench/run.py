"""relmach benchmark: closed-loop CLI workloads, run in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload nfa-certify --seed 1 --seconds 20 --trace 0

One caller runs ``relmach.cli.main(argv)`` commands back to back in this
process and thread, with stdout captured.  Set-up imports relmach from
``src/``, builds the seeded corpus, writes it as machine files under
``.perfbench/`` and computes the reference answers; it is repeated
between passes, ``SETUP_REPS`` times in all, and its median reported as
``setup_s``; the repeats build the corpora of the seeds that follow
``--seed``.  The timed phase runs whole passes over the corpus, as many
as fill ``--seconds``.

The host's speed drifts by tens of percent within seconds, so command times
are normalized: before each command the loop times a fixed reference
computation of the benchmark's own (``REFERENCE``), and a command's time is
divided by the median of the reference times around it.  Each command's
normalized time is then the median over the passes, and ``op_p50_ref``,
``op_p90_ref`` and ``ops_per_ref`` are taken over these per-command medians.
The report carries the same figures in wall seconds.
Garbage is collected between commands, outside the timed interval, and the
survivors are frozen, so collections inside a command see only what that
command allocates, as they would in a fresh CLI process.  Every command's
exit code and output are checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a boundary-traced pass over the same commands, checks that
both give the same exit codes and output digest, and prints the per-layer
metrics (per pass) and the tracing overhead.  The last stdout line is the
result object; the line before it carries the report fields.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import machines  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
# The reference computation: the subset construction of the 7th-letter-from-
# the-end NFA (576 certificate pairs), in the benchmark's own code.  It does
# the dictionary, tuple and frozenset work that relmach commands do, and
# takes under a millisecond.
REFERENCE = workloads.kth_from_end(7)
REF_WINDOW = 15  # reference times on either side of a command that give its host speed
EXIT_CODES = (0, 1, 2)

# Boundary functions reported one by one; every other wrapped function still
# counts towards its module's self time and is listed in the layers file.
LAYER_FUNCTIONS = (
    "cli.main",
    "io.load_file", "io.dumps", "io.to_payload", "io.kind_of_file", "io.sample_payload",
    "relcore.Rel", "relcore.Obj", "relcore.Alphabet", "relcore.compose", "relcore.product",
    "relcore.identity", "relcore.pack_rel", "relcore.pack_obj", "relcore.product_alphabet",
    "relcore.subset_as_point", "relcore.subset_as_copoint",
    "transducer.transducer", "transducer.trans_rel", "transducer.rel_quads",
    "transducer.compose_transducers", "transducer.product_transducers", "transducer.lift_transducer",
    "transducer.behavior_upto", "transducer.materialize_states",
    "automata.Nfa", "automata.Dfa", "automata.determinize", "automata.minimize", "automata.nfa_equiv",
    "automata.iso_check", "automata.nfa_to_transducer", "automata.transducer_to_nfa",
    "automata.prune_language", "automata.subset_name",
    "simulation.check_fin", "simulation.check_inf", "simulation.SimCertificate",
    "simulation.certificate_for_determinization", "simulation.certificate_for_minimization",
    "sofic.prune", "sofic.canonical_form", "sofic.determinize_presentation", "sofic.presentations_equiv",
    "sofic.presentation", "sofic.ztransducer", "sofic.presentation_of_ztransducer", "sofic.compose_z",
    "sofic.product_z",
    "diagram.normal_form", "diagram.z_normal_form", "diagram.diagrams_equiv", "diagram.z_diagrams_equiv",
    "diagram.interpret_upto", "diagram._contains_node", "diagram.Feedback",
)


def layer_metric_units() -> dict[str, str]:
    units = {f"{m}.self_s": "s" for m in tracer.MODULES}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for metric, _ in tracer.COUNTS.values():
        units[metric] = "bytes" if metric.endswith(".bytes") else "count"
    units["trace.overhead_share"] = "ratio"
    return units


def relmach_modules() -> list[str]:
    return [n for n in sys.modules if n == "relmach" or n.startswith("relmach.")]


def import_relmach():
    """Import relmach afresh from this checkout's ``src/`` and return its cli."""
    for name in relmach_modules():
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import relmach.cli
    if not os.path.abspath(relmach.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"relmach was imported from {relmach.cli.__file__}, not {SRC}")
    return relmach.cli


def set_up(workload: str, seed: int, workdir: str):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cli = import_relmach()
    corpus = workloads.CORPORA[workload](seed)
    random.Random(seed).shuffle(corpus.sessions)
    return cli, corpus, corpus.write(workdir)


def repeat_set_up(workload: str, seed: int) -> float:
    """Time one more set-up, of the corpus of ``seed``, into a side directory
    so this run's files stay.  The modules it imports are dropped again, so
    that repeating set-up does not raise the process's peak memory."""
    kept = {name: sys.modules[name] for name in relmach_modules()}
    gc.unfreeze()
    start = time.perf_counter()
    set_up(workload, seed, os.path.join(OUT, f"{workload}.setup"))
    elapsed = time.perf_counter() - start
    for name in relmach_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return elapsed


class Pass:
    """Outcome of one pass over the corpus."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []  # reference time before each command
        self.outputs: list[bytes] = []  # per command: digest of argv, exit code, stdout, written file
        self.failed: list[bool] = []
        self.errors: list[str] = []  # commands that raised or exited 2
        self.wrong: list[str] = []  # commands with a wrong verdict or output

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.outputs)).hexdigest()


def run_step(step: workloads.Step, main, done: Pass, first: Pass | None) -> None:
    """Run one command.  Without ``first`` its output is checked against the
    step's answer; otherwise it must repeat the first pass byte for byte."""
    if step.writes and os.path.exists(step.writes):
        os.remove(step.writes)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    machines.subset_pairs(REFERENCE, sys.maxsize)
    done.refs.append(time.perf_counter() - start)
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(step.argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash counts as a failed command, the run goes on
            code, raised = None, e
        elapsed = time.perf_counter() - start
    text = out.getvalue()
    status = code if raised is None else type(raised).__name__
    h = hashlib.sha256(json.dumps([step.argv, status]).encode() + text.encode())
    if step.writes and os.path.exists(step.writes):
        with open(step.writes, "rb") as fh:
            h.update(fh.read())
    done.times.append(elapsed)
    done.outputs.append(h.digest())
    command = " ".join(step.argv)
    if first is not None:
        i = len(done.outputs) - 1
        same = done.outputs[i] == first.outputs[i]
        done.failed.append(first.failed[i] if same else True)
        if not same:
            done.wrong.append(f"{command}: output differs from the first pass")
        return
    if raised is not None or code not in EXIT_CODES or code == 2:
        done.failed.append(True)  # every step has an answer, so exit 2 is a failure too
        done.errors.append(f"{command}: {status}")
        return
    problem = f"exit {code}, expected {step.want}" if code != step.want else None
    if problem is None and step.check is not None:
        try:
            problem = step.check(text)
        except (ValueError, KeyError, TypeError) as e:
            problem = f"unreadable output ({e!r})"
    if problem is None and step.after is not None:
        step.after(text)
    done.failed.append(problem is not None)
    if problem is not None:
        done.wrong.append(f"{command}: {problem}")


def run_pass(corpus: workloads.Corpus, main, first: Pass | None = None) -> Pass:
    done = Pass()
    for session in corpus.sessions:
        for step in session:
            run_step(step, main, done, first)
    return done


def timed_passes(seconds: float, one_round) -> list:
    """Run ``one_round`` whole times until ``seconds`` of wall time are used,
    stopping early rather than overshooting by more than half a round."""
    start = time.perf_counter()
    rounds = [one_round(0)]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds
        rounds.append(one_round(len(rounds)))


def normalized(p: Pass) -> list[float]:
    """The pass's command times in units of the reference time around each
    command: the median of the reference times up to REF_WINDOW commands
    before and after it, so that the host's speed at that moment cancels."""
    return [t / statistics.median(p.refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, t in enumerate(p.times)]


def command_medians(passes: list[Pass], normalize: bool) -> list[float]:
    """Each command's median time over the passes, in seconds or in ``ref``."""
    scaled = [normalized(p) if normalize else p.times for p in passes]
    return [statistics.median(times) for times in zip(*scaled)]


def command_figures(times: list[float], unit: str) -> dict:
    return {
        f"op_p50_{unit}": metric(statistics.median(times), unit),
        f"op_p90_{unit}": metric(percentile(times, 90), unit),
        f"ops_per_{unit}": metric(len(times) / sum(times), f"1/{unit}"),
    }


def end_to_end(passes: list[Pass], setups: list[float]) -> tuple[dict, dict]:
    """The bounded metrics, and the same command figures in wall seconds."""
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        **command_figures(command_medians(passes, True), "ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = command_figures(command_medians(passes, False), "s")
    wall["reference_s"] = metric(statistics.median(r for p in passes for r in p.refs), "s")
    return metrics, wall


def traced_phase(corpus, main, first: Pass, seconds: float, workload: str) -> tuple[list[Pass], dict]:
    """Alternate untraced and traced passes; per-layer metrics are per traced pass."""
    probe = tracer.Tracer()
    traced_main = probe.wrap("cli", "cli.main", main)
    spans_path = os.path.join(OUT, f"{workload}.spans.tsv")
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\n")
    modules: dict[str, float] = dict.fromkeys(tracer.MODULES, 0.0)
    functions: dict[str, list] = {}
    counts: dict[str, int] = dict.fromkeys(probe.counts, 0)

    def traced_pass() -> Pass:
        probe.install()
        try:
            return run_pass(corpus, traced_main, first)
        finally:
            probe.uninstall()

    def one_pair(index: int) -> tuple[Pass, Pass]:
        # alternate which side runs first, so neither gains from the other's warm-up
        if index % 2:
            traced = traced_pass()
            plain = run_pass(corpus, main, first)
        else:
            plain = run_pass(corpus, main, first)
            traced = traced_pass()
        mods, fns = probe.layers()
        for name, value in mods.items():
            modules[name] += value
        for name, (own, calls) in fns.items():
            entry = functions.setdefault(name, [0.0, 0])
            entry[0] += own
            entry[1] += calls
        for name, value in probe.counts.items():
            counts[name] += value
        probe.write(spans_path)
        probe.clear()
        return plain, traced

    pairs = timed_passes(seconds, one_pair)
    n = len(pairs)
    units = layer_metric_units()
    metrics = {f"{name}.self_s": metric(modules[name] / n, "s") for name in tracer.MODULES}
    for name in LAYER_FUNCTIONS:
        own, calls = functions.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = metric(own / n, "s")
        metrics[f"{name}.calls"] = metric(calls / n, "count")
    for name, value in counts.items():
        metrics[name] = metric(value / n, units[name])
    plain = sum(sum(normalized(p)) for p, _ in pairs)
    traced = sum(sum(normalized(t)) for _, t in pairs)
    metrics["trace.overhead_share"] = metric(traced / plain - 1, "ratio")
    with open(os.path.join(OUT, f"{workload}.layers.json"), "w", encoding="utf-8") as fh:
        json.dump({name: {"self_s": own / n, "calls": calls / n}
                   for name, (own, calls) in sorted(functions.items())}, fh, indent=1)
    return [p for pair in pairs for p in pair], metrics


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def src_lines() -> int:
    total = 0
    pkg = os.path.join(SRC, "relmach")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workdir = os.path.join(OUT, workload)
    cli, corpus, input_digest = set_up(workload, seed, workdir)
    setups = [time.perf_counter() - STARTED]
    os.chdir(workdir)
    # The first pass checks every answer and lets the interpreter specialize
    # the hot code; it is not measured.  Later passes must repeat its output.
    started = time.perf_counter()
    first = run_pass(corpus, cli.main)
    wall = {}
    if trace:
        passes, metrics = traced_phase(corpus, cli.main, first, seconds, workload)
    else:
        # Set-up is repeated between passes, spread over the run, so that its
        # median does not hang on one moment of the host's load.  The repeats
        # build the corpora of the following seeds: how many draws the
        # generators need varies with the seed, by a factor of two or three.
        stride = max(1, int(seconds / (time.perf_counter() - started) / SETUP_REPS))

        def measured(index: int) -> Pass:
            done = run_pass(corpus, cli.main, first)
            if index % stride == 0 and len(setups) < SETUP_REPS:
                setups.append(repeat_set_up(workload, seed + len(setups)))
            return done

        passes = timed_passes(seconds, measured)
        while len(setups) < SETUP_REPS:
            setups.append(repeat_set_up(workload, seed + len(setups)))
        metrics, wall = end_to_end(passes, setups)
    everything = [first] + passes
    attempted = sum(len(p.times) for p in everything)
    failed = sum(sum(p.failed) for p in everything)
    wrong = [w for p in everything for w in p.wrong]
    report = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "input_digest": input_digest,
        "output_digest": first.digest(),
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "fail_share": metric(failed / attempted, "ratio"),
        "commands_per_pass": corpus.commands(),
        "pass_command_s": [sum(p.times) for p in passes],
        "pass_reference_s": [statistics.fmean(p.refs) for p in passes],
        "wall": wall,
        "setup_runs_s": setups,
        "failed_commands": sorted({e for p in everything for e in p.errors}),
        "wrong": wrong[:10],
    }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CORPORA))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as e:
        print(f"perfbench: cannot import relmach from {SRC}: {e}", file=sys.stderr)
        return 2
    for problem in report["wrong"]:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
