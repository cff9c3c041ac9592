from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of ``numpy.linalg.svd``, ``eigh`` and ``cholesky`` calls, by
    name, made while the test runs; ``clear()`` it to start counting.
    ``shapes`` lists (name, shape of the first argument) per call, so a
    stacked call shows how many matrices it took."""
    counts = Counter()
    counts.shapes = []
    for name in ("svd", "eigh", "cholesky"):
        orig = getattr(np.linalg, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            counts.shapes.append((_name, np.shape(args[0])))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts
