"""Runs that need no arrays start without numpy, in a fresh interpreter.

Importing numpy is most of a small table's run, so only the grid
evaluator, the plot curves and the exact evaluator on ten or more rows
import it (through ``betasieve._arrays``).  A module-level numpy import
anywhere on the ``betasieve.cli`` path would undo that without failing
any other test.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden_reports import CASES, DATA, GOLDEN, assert_matches

SRC = Path(__file__).resolve().parents[1] / "src"
# runs `betasieve <args>`, then reports on stderr's last line whether numpy was imported
RUN = (
    "import sys\n"
    "try:\n"
    "    if sys.argv[1:]:\n"
    "        from betasieve.cli import main\n"
    "        main(sys.argv[1:], prog_name='betasieve')\n"
    "    else:\n"
    "        import {module}\n"
    "finally:\n"
    "    print('numpy' in sys.modules, file=sys.stderr)\n"
)


def fresh_run(*args, module="betasieve.cli"):
    """(exit code, stdout, stderr without the last line, numpy imported) of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", RUN.format(module=module), *map(str, args)],
                          capture_output=True, text=True, env=env, check=False)
    *stderr, flag = proc.stderr.splitlines(keepends=True)
    return proc.returncode, proc.stdout, "".join(stderr), flag.strip() == "True"


@pytest.mark.parametrize("module", ["betasieve", "betasieve.cli"])
def test_import_leaves_numpy_out(module):
    assert fresh_run(module=module) == (0, "", "", False)


@pytest.mark.parametrize("args, code", [
    (["detect", DATA / "mixed_scales.csv"], 0),
    (["detect", DATA / "fragmented_four.csv"], 3),
    (["detect", DATA / "bad_events.csv"], 2),
    (["synth", DATA / "campaign_biased.json"], 0),
], ids=["detect-kept", "detect-fragmented", "detect-invalid", "synth"])
def test_small_runs_leave_numpy_out(args, code):
    exit_code, stdout, stderr, numpy_imported = fresh_run(*args)
    assert exit_code == code, stderr
    assert not numpy_imported


@pytest.mark.parametrize("case", ["mixed_scales.csv.grid", "wide_hundred.csv.exact"])
def test_array_runs_match_golden(case):
    # the first array call of a process imports the array module on the spot
    golden = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    name, *options = CASES[case]
    exit_code, stdout, stderr, numpy_imported = fresh_run("detect", DATA / name, *options)
    assert (exit_code, stderr) == (golden["exit_code"], golden["stderr"])
    assert_matches(json.loads(stdout), golden["report"])
    assert numpy_imported
