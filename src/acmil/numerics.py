"""Elementary numerics used throughout the model.

Everything is 64-bit float.  The functions here are the leaves of the
hand-written differentiation in :mod:`acmil.losses`; where a derivative is
needed it is stated next to the forward form:

    softmax   s = exp(x - max x) / sum(...)     ds_j = s_j (g_j - g . s)
    sigmoid   y = 1 / (1 + exp(-x))             dy = y (1 - y)
    tanh      y = tanh(x)                       dy = 1 - y^2
    relu      y = max(x, 0)                     dy = 1[x > 0]

``finite_diff_check`` is the independent oracle for those derivations: it
compares any analytic gradient against central differences of the actual
loss evaluation.

``set_blas_threads`` and ``one_blas_thread`` reach the thread count of the
OpenBLAS that numpy loaded, through ``ctypes``, for callers that run numpy
in several threads or processes of their own.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericsError


def require_finite(arr: np.ndarray, name: str) -> None:
    """Raise NumericsError identifying ``name`` if any entry is NaN/Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values in {name}")


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry is finite, from one sum; finite entries can sum to Inf,
    so the entries are checked one by one only when the sum is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(arr.sum())) or bool(np.all(np.isfinite(arr)))


@cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of the OpenBLAS in this process, or
    None: another BLAS, or no ``/proc/self/maps`` to find the library in."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # the symbol names of the builds numpy ships (scipy_openblas) or links
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    return get, set_
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count, or None if its library cannot be reached."""
    api = _openblas()
    return None if api is None else int(api[0]())


def set_blas_threads(n: int) -> int | None:
    """Set OpenBLAS's thread count and return the previous one; None, with
    nothing changed, if its library cannot be reached."""
    old = blas_threads()
    if old is not None:
        _openblas()[1](n)
    return old


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Hold OpenBLAS at one thread inside the block, restoring the old count
    on exit, however the block ends.  Yields whether the count could be set."""
    old = set_blas_threads(1)
    try:
        yield old is not None
    finally:
        if old is not None:
            set_blas_threads(old)


def softmax(logits) -> np.ndarray:
    """Normalised exponentials of a vector, or of each row of a 2-d stack,
    max-subtracted for safety."""
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("softmax requires a non-empty vector or stack of vectors")
    require_finite(x, "softmax input")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # tanh form is overflow-safe for any finite input; out=x works in place
    y = np.multiply(x, 0.5, out=out, dtype=np.float64)
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5
    return y


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def stable_argsort_desc(values) -> np.ndarray:
    """Indices of ``values`` in descending order; ties keep ascending index."""
    v = np.asarray(values, dtype=np.float64)
    return np.argsort(-v, kind="stable")


def finite_diff_check(
    fn: Callable[[], float],
    params: Sequence[np.ndarray],
    analytic_grads: Sequence[np.ndarray],
    eps: float,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``fn`` evaluates the scalar objective from the *current contents* of
    ``params`` (the arrays are perturbed in place and restored), so any
    stochastic element inside it must be frozen for the duration of the
    check.  The error at each coordinate is
    |g_fd - g_an| / max(1, |g_fd|, |g_an|) with
    g_fd = (fn(t + eps e_i) - fn(t - eps e_i)) / (2 eps).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if len(params) != len(analytic_grads):
        raise ValueError("params and analytic_grads must align")
    max_err = 0.0
    for arr, grad in zip(params, analytic_grads):
        if arr.shape != grad.shape:
            raise ValueError("gradient shape mismatch")
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(fn())
            flat[i] = orig - eps
            f_minus = float(fn())
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericsError("objective returned a non-finite value")
            g_fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(g_fd - gflat[i]) / max(1.0, abs(g_fd), abs(gflat[i]))
            if err > max_err:
                max_err = err
    return max_err
