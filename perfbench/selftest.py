"""Self-test of the benchmark on a tiny corpus.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that the canonical JSON writer matches ``json.dumps``, that a forged
wrong verdict is caught and makes the run exit non-zero, that the traced
run reproduces the untraced exit codes and output, and that the term past
the recursion limit is counted as a failed command instead of aborting the
run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import machines  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def shrink() -> None:
    workloads.KTH_RANGE = range(3, 5)
    workloads.RANDOM_NFAS = 2
    workloads.RANDOM_TERM_PAIRS = 2
    workloads.DELAY_STAGES = (2,)
    workloads.DEEP_DEPTHS = (10,)
    workloads.RANDOM_PRESENTATIONS = 2
    workloads.CYCLE_SIZES = (12,)
    workloads.Z_DELAY_STAGES = (2,)


def bench(*args: str) -> tuple[int, dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(args))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


def expected_units(section: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def check_names(result: dict, section: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected_units(section), f"{section} metrics differ from BENCHMARK.json"
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def check_json_writer() -> None:
    sample = {"b": [1, {"z": None, "a": 'q"'}], "a": [], "c": [[[]], {}]}
    assert machines.dump_json(sample) == json.dumps(sample, sort_keys=True, separators=(",", ":")) + "\n"


def check_workloads() -> None:
    for workload in sorted(workloads.CORPORA):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, report, result = bench("--workload", workload, "--seed", "7",
                                         "--seconds", "0.01", "--trace", trace)
            assert code == 0 and result["correct"], (workload, trace, report["wrong"])
            check_names(result, section)
            assert result["attempted"] == report["attempted"] >= report["commands_per_pass"]
        print(f"selftest: {workload}: metrics, units and traced output agree")


def check_over_deep() -> None:
    """A Seq chain past the recursion limit runs like any other command; a
    failure is counted, never raised out of the run."""
    workloads.DEEP_DEPTHS = (10, workloads.OVER_DEEP)
    try:
        for trace in ("0", "1"):  # the traced passes must fail the same way
            code, report, result = bench("--workload", "diagram-equiv", "--seed", "7",
                                         "--seconds", "0.01", "--trace", trace)
            assert code == 0 and result["correct"], report["wrong"]
            per_pass = report["commands_per_pass"]
            assert result["attempted"] % per_pass == 0  # every command of every pass was run
            deep = f"deep{workloads.OVER_DEEP}."
            assert all(deep in failure for failure in report["failed_commands"]), report["failed_commands"]
            print(f"selftest: over-deep term, trace {trace}: {result['failed']} of "
                  f"{result['attempted']} commands failed, run completed")
    finally:
        workloads.DEEP_DEPTHS = (10,)


def check_forged_verdict() -> None:
    real_import = run.import_relmach

    def forged():
        cli = real_import()
        honest = cli.nfa_equiv
        cli.nfa_equiv = lambda a, b: not honest(a, b)
        return cli

    run.import_relmach = forged
    try:
        code, report, result = bench("--workload", "nfa-certify", "--seed", "7", "--seconds", "0.01")
    finally:
        run.import_relmach = real_import
    assert code == 1 and not result["correct"] and result["failed"] > 0
    assert any("exit 1, expected 0" in w for w in report["wrong"]), report["wrong"]
    print("selftest: forged verdict caught")


def main() -> int:
    shrink()
    check_json_writer()
    check_workloads()
    check_over_deep()
    check_forged_verdict()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
