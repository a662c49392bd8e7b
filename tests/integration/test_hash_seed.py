"""Printed output does not depend on the interpreter's hash seed.

String hashing is salted per process (``PYTHONHASHSEED``), so any set or
dict iteration order that leaks into output would print differently in
two processes.  Values and facts hash as tuples (DESIGN.md D13), so
their hashes follow the salt whenever a payload is a string.  The script
below chases on both kernels and reverses over int constants, string
constants and nulls; two seeds must print the same bytes, the order of
reverse candidates included.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
from repro import ExchangeEngine, Instance, SchemaMapping

source = Instance.parse(
    "E(1, 2), E(2, a), E(a, b), E(b, X), E(X, 3), E(3, c), "
    "P(a, 1, Y), P(2, b, c), P(Y, Y, 4)"
)
forward = [
    "E(x, y) -> T(x, y)\nT(x, y) & E(y, z) -> T(x, z)",
    "E(x, y) -> EXISTS z . F(x, z) & F(z, y)\n"
    "P(x, y, w) -> EXISTS u . G(u, y) & H(x, u)",
]
reverse = [
    ("R(x) -> P(x) | Q(x)", "R(1), R(a), R(X)"),
    ("T(x, y) & x != y -> P(x, y) | Q(x)\nT(x, x) -> S(x)",
     "T(1, a), T(a, X), T(X, Y), T(b, b), T(Y, 2)"),
    ("Q(x, y) -> EXISTS z . P(x, y, z)\nR(y, z) -> EXISTS x . P(x, y, z)",
     "Q(1, a), R(a, X), Q(X, b), R(b, 2)"),
]
for sql_chase in (False, True):
    engine = ExchangeEngine(enable_cache=False, sql_chase=sql_chase)
    for text in forward:
        result = engine.exchange(SchemaMapping.from_text(text), source)
        print("chase", sql_chase, result.instance)
engine = ExchangeEngine(enable_cache=False)
for text, target in reverse:
    for take_core in (False, True):
        result = engine.reverse(
            SchemaMapping.from_text(text), Instance.parse(target),
            take_core=take_core,
        )
        print("reverse", take_core, len(result.candidates), result.canonical)
        for candidate in result.candidates:
            print("  ", candidate)
"""


def _run(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


def test_output_is_identical_under_two_hash_seeds():
    first, second = _run("0"), _run("1")
    assert first == second
    assert first.count("chase ") == 4 and first.count("reverse ") == 6
    # The disjunctive reverses branch, so candidate order is exercised.
    assert first.count("\n   ") > 6
