from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of ``numpy.linalg.svd``, ``eigh`` and ``cholesky`` calls, by
    name, made while the test runs; ``clear()`` it to start counting."""
    counts = Counter()
    for name in ("svd", "eigh", "cholesky"):
        orig = getattr(np.linalg, name)

        def counting(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts
