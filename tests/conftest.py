import os

import pytest

import invforge
from invforge.boolfun import parse_anf
from invforge.cipher import parse_wiring
from invforge.data import fixture_text

# CLI tests run `python -m invforge` in a child process: hand it the package
# these tests import, so both sides test the same source tree
_SRC = os.path.dirname(os.path.dirname(invforge.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def wiring():
    return parse_wiring(fixture_text("lzs-265-like.cfg"))


@pytest.fixture(scope="session")
def zref():
    return parse_anf(fixture_text("z-reference.anf"))


@pytest.fixture(scope="session")
def invariant_deg7():
    from invforge.lab import product_invariant
    return product_invariant()
