"""Fixed case lists of the benchmark, their recorded digests and seeded orders.

A case is the argv given to ``python -m minaff``; ``expected.json``, written
once by ``record.py``, holds the sha256 of each case's stdout.
"""

import hashlib
import json
import os
import random

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

DEMAZURE_CLI = (
    ("char", "--n", "6", "--lambda", "1,0,0,1,1,1", "--s", "1"),
    ("char", "--n", "5", "--lambda", "1,0,1,1,2", "--s", "1"),
    ("decomp", "--n", "5", "--lambda", "0,1,1,1,1", "--s", "n"),
    ("decomp", "--n", "5", "--lambda", "0,1,1,1,1", "--s", "n-1"),
    ("char", "--n", "5", "--lambda", "1,0,1,1,0", "--s", "n"),
    ("char", "--n", "4", "--lambda", "1,1,1,1", "--s", "1"),
)

SYMPLECTIC_CLI = (
    ("sam", "--n", "6", "--lambda", "1,1,0,1,1,1"),
    ("sam", "--n", "6", "--lambda", "1,0,0,1,1,1"),
    ("sam", "--n", "5", "--lambda", "1,1,1,1,1"),
    ("sam", "--n", "5", "--lambda", "0,1,1,1,1"),
    ("sam", "--n", "5", "--lambda", "1,0,1,1,2"),
    ("sam", "--n", "4", "--lambda", "2,1,1,1"),
)

# Outside the regular classification: minaff refuses it with exit code 2.
REFUSED = ("sam", "--n", "5", "--lambda", "2,1,0,1,1")


def cli_key(argv):
    return " ".join(argv)


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def pass_orders(items, seed):
    """Endless sequence of shuffled copies of ``items``, one per pass.

    Only the order depends on the seed; the case set stays fixed.
    """
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order
