"""Golden outputs of the integrator commands: exit code, stdout and stderr, byte for byte.

Each record in `tests/golden/` holds one command's argv, exit code, stdout
and stderr, the two texts split at newlines, with the checkout path in
stderr written as `<checkout>`.  The test runs every command in-process
through `cli.main` and compares.  After a change that moves an output on
purpose, regenerate the records of the moved commands only, and let their
diff record the move:

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]    # or --all
"""

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

from threebody4d import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CHECKOUT = str(Path(cli.__file__).resolve().parents[2])

START = ["-m", "1,2,3", "--mu1", "1.2", "--mu2", "0.3", "-q", "1.1,0.1,-0.2,0.9",
         "-p", "0.1,0.2,0,0.1", "--t-end", "0.5"]
COLLISION = ["--mu1", "1", "--mu2", "0", "-q", "0.5,0,0,2", "-p=-0.6,0,0,0", "--t-end", "10"]

COMMANDS = {
    **{f"integrate-{system}-{method}": ["integrate", "--system", system, "--method", method,
                                        "--dt", "0.001", *START]
       for system in ("reduced", "partial", "full") for method in ("dopri", "midpoint")},
    "integrate-reduced-json": ["integrate", "--system", "reduced", *START, "--format", "json"],
    "integrate-partial-monitor-every": ["integrate", "--system", "partial",
                                        "--monitor-every", "7", *START],
    "integrate-midpoint-default-system": ["integrate", "--method", "midpoint", "--dt", "0.001",
                                          "--t-end", "0.3", "-q", "1.1,0.1,-0.2,0.9"],
    "integrate-compare": ["integrate", *START[:-2], "--t-end", "1", "--compare"],
    # exits 3 with ChartSingular (ROADMAP item 2)
    "integrate-compare-readme": ["integrate", "--system", "reduced", "-m", "1,1,1", "--mu1", "1",
                                 "--mu2", "0.3", "-q", "1,0,0,1", "-p", "0,0,0,0", "--t-end",
                                 "10", "--method", "dopri", "--tol", "1e-11", "--compare"],
    "integrate-collision-reduced": ["integrate", "--system", "reduced", "-m", "1,1,1",
                                    *COLLISION],
    "integrate-collision-partial": ["integrate", "--system", "partial", *COLLISION],
    "integrate-collision-full": ["integrate", "--system", "full", "-m", "1,1,1", *COLLISION],
    "integrate-collision-midpoint": ["integrate", "--system", "reduced", "-m", "1,1,1",
                                     *COLLISION, "--method", "midpoint", "--dt", "0.01"],
    "integrate-outside-chart": ["integrate", "--system", "full", "-q", "1e-13,0,0,1",
                                "--t-end", "0.1"],
    "integrate-overflow": ["integrate", "-q", "1e200,0,0,1", "--t-end", "0.1"],
    "integrate-step-limit": ["integrate", "--method", "midpoint", "--dt", "1e-9",
                             "--t-end", "1"],
    "verify-invariant": ["verify", "--seed", "0", "--checks", "invariant"],
}

# `model.full_values_kernel` forms H of the full system from numpy (BLAS) dot
# products, whose summation order may differ between builds; so that column of
# the `--system full` rows compares at this relative tolerance, and every
# other byte exactly
H_REL_TOL = 1e-12


def run(argv: list) -> dict:
    """The record of one command, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # a warning prints as it would the first time in a fresh process
        warnings.simplefilter("default")
        code = cli.main(argv)
    return {"argv": argv, "exit": code,
            "stderr": err.getvalue().replace(CHECKOUT, "<checkout>").split("\n"),
            "stdout": out.getvalue().split("\n")}


def _split_h(lines: list) -> tuple:
    """The H column of CSV lines as floats, and the lines with that column blanked."""
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index("H")
    values, rest = [], lines[:header + 1]
    for line in lines[header + 1:]:
        fields = line.split(",")
        if len(fields) > col:
            values.append(float(fields[col]))
            fields[col] = ""
        rest.append(",".join(fields))
    return values, rest


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    argv = COMMANDS[name]
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert want["argv"] == argv
    got = run(argv)
    if want["exit"] == 0 and ("--system", "full") in zip(argv, argv[1:]):
        got_h, got["stdout"] = _split_h(got["stdout"])
        want_h, want["stdout"] = _split_h(want["stdout"])
        assert got_h == pytest.approx(want_h, rel=H_REL_TOL, abs=0.0)
    assert got == want


if __name__ == "__main__":
    for name in sorted(COMMANDS) if sys.argv[1:] == ["--all"] else sys.argv[1:]:
        with open(GOLDEN / f"{name}.json", "w") as fh:
            json.dump(run(COMMANDS[name]), fh, indent=1)
            fh.write("\n")
