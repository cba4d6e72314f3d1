import os
import sys

import numpy as np
import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def count_calls(monkeypatch):
    """Record the arguments of every call to a package function.

    ``count_calls("hamiltonian.exact_diagonalize")`` wraps the function in
    every ``vacuum_refine`` module that binds it, so calls made through
    ``from .hamiltonian import exact_diagonalize`` are caught too, and
    returns the list the calls' positional arguments are appended to.
    """

    def install(name: str) -> list[tuple]:
        home, function = name.rsplit(".", 1)
        original = getattr(sys.modules[f"vacuum_refine.{home}"], function)
        calls: list[tuple] = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "vacuum_refine":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
        return calls

    return install


@pytest.fixture
def count_diagonalized(monkeypatch):
    """Record every matrix handed to ``np.linalg.eigh`` while the test runs.

    A stack of matrices adds one entry per matrix, so the list counts the
    operators diagonalized however they were batched.
    """
    matrices: list[np.ndarray] = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        stack = np.asarray(a)
        matrices.extend(m.copy() for m in stack.reshape(-1, *stack.shape[-2:]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return matrices
