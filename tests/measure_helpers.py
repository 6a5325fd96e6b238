"""Measure constructors that only the tests use: a unit mass and a measure read back from JSON."""

import json

import numpy as np

from vdcset.measures import AtomicMeasure


def dirac(order: int, position: int) -> AtomicMeasure:
    """Unit mass at the point position/order."""
    w = np.zeros(order)
    w[position % order] = 1.0
    return AtomicMeasure(order, w)


def measure_from_json(text: str) -> AtomicMeasure:
    """The measure AtomicMeasure.to_json wrote."""
    obj = json.loads(text)
    return AtomicMeasure(int(obj["order"]), np.array(obj["weights"], dtype=float))
