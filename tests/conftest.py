import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sgen import Tensor


def t4(values, dtype=np.float32, requires_grad=False):
    """Wrap a nested list or array into a 4-D tensor.

    1-D input becomes (1, 1, 1, k), 2-D becomes (1, 1, h, w).
    """
    arr = np.asarray(values, dtype=dtype)
    while arr.ndim < 4:
        arr = arr[np.newaxis]
    return Tensor(arr, requires_grad=requires_grad)


def scalar(value, dtype=np.float32, requires_grad=False):
    return Tensor(np.full((1, 1, 1, 1), value, dtype=dtype), requires_grad=requires_grad)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def golden():
    """``tools/golden.py`` as a module, for tests that pin its lines."""
    path = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
