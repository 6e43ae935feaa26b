"""invbench's MUST_CALL gate, checked without a benchmark run.

A traced benchmark run fails when a workload never calls one of the layer
functions invbench/workloads.py lists for it.  These tests run one
`search` op that has a screen survivor and one `prove` pass under
invbench's own tracer and check the same list.
"""

import contextlib
import io
import os
import sys

import pytest

import invforge
from invforge import cli

INVBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "invbench")


@pytest.fixture(scope="module")
def invbench():
    """invbench's gen, tracer and workloads modules, imported as run.py does."""
    sys.path.insert(0, INVBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave invbench/ as checked out
    try:
        import gen
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(INVBENCH)
    return gen, tracer, workloads


def _reached(tracer, ops):
    """Names of the traced layer functions the ops call."""
    t = tracer.Tracer()
    t.install()
    try:
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(op["argv"])) in (0, 1), op["argv"]
    finally:
        t.uninstall()
    return {name for name, (calls, _total, _child) in t.stats.items() if calls}


@pytest.mark.parametrize("workload", ["search", "prove"])
def test_workload_reaches_every_must_call_name(invbench, tmp_path, workload):
    gen, tracer, workloads = invbench
    d = str(tmp_path)
    gen.write_inputs(os.path.join(os.path.dirname(invforge.__file__), "data"),
                     d, workload, 1, 1)
    if workload == "search":
        # trials 0 and 4 of seed 5 pass the screen and pay an exact build_fe
        ops = [workloads.search(d, workloads.SHIPPED_LZS, 5, 5)]
    else:
        ops = workloads.prove_pass(d, 1, 0)
    missed = set(workloads.MUST_CALL[workload]) - _reached(tracer, ops)
    assert not missed, sorted(missed)
