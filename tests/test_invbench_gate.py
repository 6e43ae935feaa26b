"""invbench's MUST_CALL gate and output checker, without a benchmark run.

A traced benchmark run fails when a workload never calls one of the layer
functions invbench/workloads.py lists for it.  These tests run one
`search` op that has a screen survivor, one `prove` pass, one
`linear-cycle` op and one full `fe --symbolic` op with one budget op
under invbench's own tracer and check the same list.  A run also fails
when invbench/check.py rejects an op's output, or cannot call the parts of
the package it checks with (`cipher.step_lanes` on a BoolFun6, for one);
one pass of each workload goes through that checker too.
"""

import contextlib
import importlib
import io
import os
import sys

import pytest

import invforge
from invforge import cli

INVBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "invbench")


def _import_invbench(*names):
    """invbench modules, imported as run.py does."""
    sys.path.insert(0, INVBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave invbench/ as checked out
    try:
        return tuple(importlib.import_module(name) for name in names)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(INVBENCH)


@pytest.fixture(scope="module")
def invbench():
    """invbench's gen, tracer and workloads modules."""
    return _import_invbench("gen", "tracer", "workloads")


@pytest.fixture(scope="module")
def invbench_check():
    """invbench's output checker module."""
    return _import_invbench("check")[0]


def _reached(tracer, ops):
    """Names of the traced layer functions the ops call."""
    t = tracer.Tracer()
    t.install()
    try:
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op["argv"]))
            assert code in ((3,) if op["kind"] == "budget" else (0, 1)), op["argv"]
    finally:
        t.uninstall()
    return {name for name, (calls, _total, _child) in t.stats.items() if calls}


@pytest.mark.parametrize("workload", ["search", "prove", "lincycle", "symbolic"])
def test_workload_reaches_every_must_call_name(invbench, tmp_path, workload):
    gen, tracer, workloads = invbench
    d = str(tmp_path)
    gen.write_inputs(os.path.join(os.path.dirname(invforge.__file__), "data"),
                     d, workload, 1, 1)
    if workload == "search":
        # trials 0 and 4 of seed 5 pass the screen and pay an exact build_fe
        ops = [workloads.search(d, workloads.SHIPPED_LZS, 5, 5)]
    elif workload == "lincycle":
        ops = workloads.lincycle_pass(d, 1, 0)[:1]
    elif workload == "symbolic":
        ops = workloads.symbolic_pass(d, 1, 0)[1:]  # a conforming wiring, then the budget op
    else:
        ops = workloads.prove_pass(d, 1, 0)
    missed = set(workloads.MUST_CALL[workload]) - _reached(tracer, ops)
    assert not missed, sorted(missed)


@pytest.mark.parametrize("workload", ["prove", "search", "symbolic", "lincycle"])
def test_checker_accepts_one_pass(invbench, invbench_check, tmp_path, workload):
    gen, _tracer, workloads = invbench
    d = str(tmp_path / "inputs")
    gen.write_inputs(os.path.join(os.path.dirname(invforge.__file__), "data"),
                     d, workload, 1, 1)
    checker = invbench_check.Checker(invforge, d, 1)
    make_pass = workloads.WORKLOADS[workload][0]
    for op in make_pass(d, 1, 0):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(op["argv"]))
        assert getattr(checker, op["kind"])(rc, out.getvalue(), op) is None, op["argv"]
