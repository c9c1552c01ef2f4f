"""The CLI's exit-code contract, on generated inputs.

Every run of every subcommand exits 0, 2 (configuration error) or 3
(numerical failure): no exception escapes ``main``, and no numpy
RuntimeWarning either, since pyproject.toml makes one an error.  Each case
is a subcommand and one to three ``--set`` overrides, drawn from a value
grammar per DEFAULTS key, on top of small base sizes; no drawn value raises
a size above the base, so no case can allocate much or run long, and each
call gets ``CALL_LIMIT_S`` seconds.  A run that exits 0 leaves artifacts
that pass ``check_artifacts``.

The draws are derandomized and their count fixed, and no example database
is kept, so the test is the same on every run.  Run it alone with

    pytest tests/test_cli_contract.py
"""

import signal
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from graphonldp.cli import COMMANDS, DEFAULTS, main
from test_cli import check_artifacts

BASE = ["graphon.N=60", "grid.M=8", "grid.steps=20", "grid.K=10", "run.replicas=2",
        "compare.N_sweep=60,80", "compare.snapshots=5"]
CALL_LIMIT_S = 10

NUMBERS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e300", "1e-308", "5e-324",
           "0", "-1", "1", "2", "", "abc"]
LISTS = NUMBERS + [",", "60,", "60,,80", "60;80", "0,60", "60,abc", "60,1e308", "60, 80"]
PROFILES = NUMBERS + [
    "uniform", "uniform:", "uniform:nan", "uniform:inf", "uniform:1e308", "uniform:-1",
    "uniform:0", "uniform:1", "uniform:0.3,0.1", "cosine:0.3", "cosine:1e308,1e308",
    "cosine:nan,0", "equilibrium:", "equilibrium:1", "bump:1,2", "bump:nan,0.1,0.1",
    "bump:3,0,0.2", "bump:3,1e-308,0.2", "bump:3,0.5,1e308", "bump:1e308,0.5,0.2",
    "bump:3,5e-324,-1e308", "junk:1",
]
GRAMMAR = {f"{sec}.{key}": NUMBERS for sec, keys in DEFAULTS.items() for key in keys}
GRAMMAR.update({
    "graphon.family": ["constant", "inhomogeneous-circle", "small-world", "power-law", "", "abc"],
    "compare.N_sweep": LISTS, "ldp_check.N_values": LISTS,
    "model.init": PROFILES, "action.s0": PROFILES, "action.sT": PROFILES,
})


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    keys = draw(st.lists(st.sampled_from(sorted(GRAMMAR)), min_size=1, max_size=3, unique=True))
    return command, [f"{k}={draw(st.sampled_from(GRAMMAR[k]))}" for k in keys]


class CallTimeout(Exception):
    pass


def _timeout(signum, frame):
    raise CallTimeout(f"a call ran past {CALL_LIMIT_S} s")


def run_case(out, command, overrides):
    argv = [command, "--out", str(out)]
    for ov in BASE + overrides:
        argv += ["--set", ov]
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# inputs that escaped before: as a traceback, a numpy warning or a run
# that did not end
@example(case=("rate", ["grid.steps=1"]))
@example(case=("action", ["grid.T=1e308"]))
@example(case=("ldp-check", ["ldp_check.a=1e308"]))
@example(case=("meanfield", ["model.beta=1e300"]))
@example(case=("compare", ["grid.T=1e308"]))
@example(case=("action", ["graphon.base=1e308"]))
@example(case=("simulate", ["model.beta=1e300"]))
@example(case=("simulate", ["grid.T=1e300"]))
@example(case=("action", ["graphon.base=1e308", "graphon.amplitude=1e308"]))
@example(case=("simulate", ["model.init=cosine:1e308,1e308"]))
@settings(derandomize=True, max_examples=600, database=None, deadline=None)
@given(case=cases())
def test_every_input_exits_0_2_or_3(case):
    command, overrides = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = run_case(out, command, overrides)
        assert code in (0, 2, 3), (command, overrides, code)
        if code == 0:
            check_artifacts(out)
