"""One OpenBLAS thread for the duration of a block.

The BO path does small-matrix linear algebra: Cholesky factors and solves of
a few hundred rows, posterior draws over a pool of 256.  At that size
OpenBLAS's thread pool costs more than it parallelises — on two cores one
posterior draw over 256 candidates at n = 300 took 22 ms with the default
thread count and 5 ms with one thread.  :func:`one_blas_thread` sets every
OpenBLAS loaded in the process to one thread and puts the old counts back
when the outermost guard exits.

numpy and scipy wheels each bundle their own OpenBLAS (numpy's 64-bit-integer
build exports ``scipy_openblas_set_num_threads64_``, scipy's
``scipy_openblas_set_num_threads``; a system build exports
``openblas_set_num_threads``).  The libraries are looked up next to the
imported packages and opened with ``RTLD_NOLOAD``, so only what is already
loaded is touched.  An explicit ``OPENBLAS_NUM_THREADS`` in the environment
wins: the guard then changes nothing.  When no library is found the guard
logs once and changes nothing.

A library's thread count is process-wide, so the guard's state is too: it
nests and is shared by threads — the first entry sets the counts, the last
exit restores them.

scipy's OpenBLAS is loaded on a GP's first use, which may fall inside a
guard: the GP loads only the compiled modules it calls, through
:func:`scipy_extension`, and the first of them (``scipy.linalg._flapack``)
links that library.  Every scipy load calls :func:`adopt_late_loads`, which
pins a library loaded since the outermost guard entered; that guard's exit
restores it with the others.  A load outside any guard changes nothing.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.utils.logging import get_logger

#: ``(set, get)`` symbol pairs, most specific first; a library uses the first it exports.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_depth = 0
#: ``(set function, count to restore)`` per library, held by the outermost guard.
_restore: list[tuple] = []
#: Resolved ``(set, get)`` functions per library path (``None``: exports neither).
_controls: dict[str, tuple | None] = {}
_warned = False

#: The scipy release whose private compiled modules :func:`scipy_extension` loads.
_SCIPY_PIN = "scipy>=1.17,<1.18"


def _candidate_paths() -> list[str]:
    """OpenBLAS shared objects bundled with the imported numpy and scipy."""
    paths = []
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None or not getattr(module, "__file__", None):
            continue
        root = os.path.dirname(module.__file__)
        for pattern in (root + ".libs", os.path.join(root, ".dylibs")):
            paths.extend(sorted(glob.glob(os.path.join(pattern, "*openblas*"))))
    return paths


def _declared(set_threads, get_threads) -> tuple:
    """``void set(int)`` and ``int get(void)``, as OpenBLAS declares them."""
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


def openblas_controls() -> list[tuple]:
    """``(set_num_threads, get_num_threads)`` of every OpenBLAS loaded now."""
    found = []
    for path in _candidate_paths():
        if path not in _controls:
            try:
                library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:  # not loaded (yet): look again next time
                continue
            _controls[path] = next(
                (
                    _declared(getattr(library, setter), getattr(library, getter))
                    for setter, getter in _SYMBOLS
                    if hasattr(library, setter) and hasattr(library, getter)
                ),
                None,
            )
        if _controls[path] is not None:
            found.append(_controls[path])
    return found


def _pin(controls: list[tuple]) -> None:
    """Set every library of ``controls`` not on one thread to one, noting its count."""
    for set_threads, get_threads in controls:
        # Only a change is written: after a fork, setting the count restarts
        # the library's thread pool (~5 ms a library).  A library pinned
        # already reads 1 and is left alone.
        count = get_threads()
        if count != 1:
            _restore.append((set_threads, count))
            set_threads(1)


def adopt_late_loads() -> None:
    """Pin an OpenBLAS loaded while a guard is active; the outermost guard's exit restores it."""
    with _lock:
        if _depth:
            _pin(openblas_controls())


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with every loaded OpenBLAS on one thread (see the module docstring)."""
    global _depth, _warned
    if os.environ.get("OPENBLAS_NUM_THREADS"):
        yield
        return
    with _lock:
        if _depth == 0:
            controls = openblas_controls()
            if not controls and not _warned:
                _warned = True
                get_logger("utils.blas").info(
                    "no OpenBLAS library found; BLAS thread counts left as they are"
                )
            _pin(controls)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                while _restore:
                    set_threads, count = _restore.pop()
                    set_threads(count)


def scipy_extension(package: str, name: str, *attributes: str):
    """The compiled module ``scipy.<package>.<name>``, loaded without ``scipy.<package>``.

    A module already imported (say ``scipy.linalg`` ran first and loaded
    ``scipy.linalg._flapack``) is returned as it is.  Otherwise the shared
    object is found in scipy's install directory and loaded alone, so the
    package's ``__init__`` never runs: ``scipy.linalg``, ``scipy.optimize``
    and ``scipy.special`` pull in tens of MiB of modules the GP never calls.
    The module is entered in ``sys.modules`` under its full name, so a later
    ``import scipy.<package>`` finds and reuses it.  Only the top-level
    ``scipy`` package is imported (a few ms; it locates scipy's libraries).

    ``attributes`` are the names the caller needs.  A module that is not
    found, or lacks one of them, raises ``ImportError`` naming the module and
    the scipy pin (``_SCIPY_PIN``): these are private modules of that scipy release.
    """
    full = f"scipy.{package}.{name}"
    module = sys.modules.get(full)
    if module is None:
        import scipy

        root = os.path.join(os.path.dirname(scipy.__file__), package)
        spec = importlib.machinery.PathFinder.find_spec(full, [root])
        if spec is None:
            raise ImportError(f"{full} is not in {root}; the GP needs {_SCIPY_PIN}", name=full)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(full, None)
            raise
    missing = [attribute for attribute in attributes if not hasattr(module, attribute)]
    if missing:
        raise ImportError(f"{full} has no {', '.join(missing)}; the GP needs {_SCIPY_PIN}", name=full)
    adopt_late_loads()
    return module
