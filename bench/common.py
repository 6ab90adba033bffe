"""Helpers shared by the workloads: op schedules and value checks."""

from __future__ import annotations

import json
import math
import os
import random

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def interleave(weights):
    """One cycle of keys, key k appearing weights[k] times, evenly spread.

    Any prefix of the cycle holds each key close to its share, so a run cut
    at an arbitrary op still has the intended mix.
    """
    slots = []
    for order, (key, w) in enumerate(weights.items()):
        slots += [((i + 0.5) / w, order, key) for i in range(w)]
    return [key for _pos, _order, key in sorted(slots)]


def seeded_rng(seed, *parts):
    """A Random stream fixed by the workload seed and integer parts."""
    value = seed
    for p in parts:
        value = value * 1_000_003 + p
    return random.Random(value)


def shuffled_cycle(items, rng):
    """Endless iterator over seeded permutations of ``items``."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


def rel_close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def load_reference(name):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path) as fh:
        return json.load(fh)


def finite_positive(x):
    return isinstance(x, float) and math.isfinite(x) and x > 0
