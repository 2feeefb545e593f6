"""Runtime-compiled C kernels for batched AMR stepping.

The batched :class:`~repro.amr.driver.AmrDriver` steps its shape-stacked
hierarchy through the routines in ``_amr_kernels.c``: the fused sweep and
the CFL wave speeds (dispatched by :class:`repro.amr.batch.StackStepper`)
and the indexed copy, gather, prolong, restrict and scatter of a compiled
exchange program (:class:`repro.amr.shard.ShardProgram`).  This module
owns the build-and-load lifecycle:

- **Build cache** — the shared library is compiled once per source hash
  into a per-user cache directory (override with ``REPRO_KERNEL_CACHE``)
  and reused across processes and sessions; concurrent builders race
  benignly through an atomic rename.
- **Graceful degradation** — if no C compiler is available (or the build
  fails for any reason) :func:`load` returns None, :func:`available`
  returns ``False``, and callers fall back to the numpy reference path;
  nothing in the repo *requires* the compiled kernels.  The first process
  to load them on a machine pays the one-time build (a few seconds of
  ``gcc``).
- **Bit-identity** — the C routines replicate the numpy expression trees
  of :func:`repro.solver.fv._sweep_stack` operation for operation and are
  built with ``-ffp-contract=off`` (no FMA contraction), so their results
  are bit-for-bit equal to the reference; ``tests/solver/test_kernels.py``
  pins this for every riemann x limiter combination.

Every process calls :func:`load` independently; they all hit the same
cache file, so the compile cost is paid once per machine (per cache
directory), not once per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

#: Enum values shared with ``_amr_kernels.c``.
RIEMANN_IDS = {"rusanov": 0, "hll": 1, "hllc": 2}
LIMITER_IDS = {"minmod": 0, "superbee": 1, "mc": 2, "vanleer": 3, "none": -1}

_SOURCE = Path(__file__).with_name("_amr_kernels.c")

#: ``-ffp-contract=off`` is load-bearing: contraction to FMA would change
#: rounding and break bit-identity with the numpy reference.
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
           "-fPIC", "-shared")

_lib: ctypes.CDLL | None = None
_load_failed: str | None = None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    uid = getattr(os, "getuid", lambda: 0)()
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _lib_path(source: str) -> Path:
    digest = hashlib.sha256(
        (source + "\0" + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:16]
    return _cache_dir() / f"amr_kernels_{digest}.so"


def _build(source: str, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(f".{os.getpid()}.tmp")
    cmd = ["gcc", *_CFLAGS, "-o", str(tmp), str(_SOURCE)]
    try:
        subprocess.run(
            cmd, check=True, capture_output=True, text=True, timeout=120
        )
        os.replace(tmp, out)  # atomic: concurrent builders race benignly
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    dp = ctypes.POINTER(ctypes.c_double)
    ip = ctypes.POINTER(ctypes.c_int32)
    lib.fused_sweep.argtypes = [
        dp, ctypes.c_long, ctypes.c_long, ctypes.c_long, dp,
        ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_double,
    ]
    lib.fused_sweep.restype = None
    lib.wave_speeds.argtypes = [
        dp, ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_double,
        dp, dp,
    ]
    lib.wave_speeds.restype = None
    lib.copy_indexed.argtypes = [dp, ip, ip, ctypes.c_long, ctypes.c_double]
    lib.copy_indexed.restype = None
    lib.prolong_blocks.argtypes = [
        dp, ctypes.c_long, ctypes.c_long, ctypes.c_long, dp
    ]
    lib.prolong_blocks.restype = None
    lib.restrict_blocks.argtypes = [
        dp, ctypes.c_long, ctypes.c_long, ctypes.c_long, dp
    ]
    lib.restrict_blocks.restype = None
    lib.gather_indexed.argtypes = [dp, ip, dp, ctypes.c_long]
    lib.gather_indexed.restype = None
    lib.scatter_indexed.argtypes = [dp, ip, dp, ctypes.c_long]
    lib.scatter_indexed.restype = None
    return lib


def load() -> ctypes.CDLL | None:
    """The bound kernel library, building it on first use; None on failure."""
    global _lib, _load_failed
    if _lib is not None:
        return _lib
    if _load_failed is not None:
        return None
    try:
        source = _SOURCE.read_text()
        path = _lib_path(source)
        if not path.exists():
            _build(source, path)
        _lib = _bind(ctypes.CDLL(str(path)))
        return _lib
    except Exception as exc:  # noqa: BLE001 - any failure means "no kernels"
        _load_failed = repr(exc)
        return None


def available() -> bool:
    """True iff the compiled kernels can be (or already were) loaded."""
    return load() is not None


def load_error() -> str | None:
    """Why :func:`load` failed, for diagnostics; None if it didn't."""
    load()
    return _load_failed


def _as_double_ptr(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _as_int32_ptr(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_int32))


def fused_sweep(
    q: np.ndarray,
    dt_dx: np.ndarray,
    ng: int,
    axis: int,
    riemann: str,
    limiter: str,
    gamma: float,
) -> None:
    """In-place fused dimensional sweep over a ``(P, 4, n, n)`` sub-stack.

    ``q`` must be C-contiguous float64 (a contiguous row slice of a
    :class:`~repro.amr.batch.PatchStack` qualifies); ``dt_dx`` holds the
    per-patch ``dt / dx`` factors.  ``axis`` 0 sweeps x, 1 sweeps y.
    """
    lib = load()
    if lib is None:
        raise RuntimeError(f"compiled kernels unavailable: {_load_failed}")
    if not (q.flags.c_contiguous and q.dtype == np.float64):
        raise ValueError("q must be C-contiguous float64")
    dtd = np.ascontiguousarray(dt_dx, dtype=np.float64)
    P, _, n, _ = q.shape
    lib.fused_sweep(
        _as_double_ptr(q), P, n, ng, _as_double_ptr(dtd),
        int(axis), RIEMANN_IDS[riemann], LIMITER_IDS[limiter], float(gamma),
    )


def wave_speeds(
    q: np.ndarray, ng: int, gamma: float, sx: np.ndarray, sy: np.ndarray
) -> None:
    """Per-patch interior maxima of ``|u|+c`` / ``|v|+c`` into sx / sy.

    ``q`` must be C-contiguous float64 ``(P, 4, n, n)``; ``sx`` and ``sy``
    C-contiguous float64 ``(P,)`` (a row slice of a scratch vector
    qualifies).
    """
    lib = load()
    if lib is None:
        raise RuntimeError(f"compiled kernels unavailable: {_load_failed}")
    if not (q.flags.c_contiguous and q.dtype == np.float64):
        raise ValueError("q must be C-contiguous float64")
    P, _, n, _ = q.shape
    for out in (sx, sy):
        if not (out.flags.c_contiguous and out.dtype == np.float64
                and out.shape == (P,)):
            raise ValueError("sx and sy must be C-contiguous float64 of shape (P,)")
    lib.wave_speeds(
        _as_double_ptr(q), P, n, ng, float(gamma),
        _as_double_ptr(sx), _as_double_ptr(sy),
    )


def copy_indexed(
    flat: np.ndarray, dst: np.ndarray, src: np.ndarray, scale: float = 1.0
) -> None:
    """``flat[dst] = flat[src] * scale`` without numpy fancy-index overhead.

    ``dst`` and ``src`` must be disjoint (the exchange programs copy
    interiors into ghost cells, never the reverse): the loop copies element
    by element, while numpy's fancy assignment gathers the source first.
    Index vectors are int32 (half the index memory of int64; a stack would
    need >2^31 elements to overflow, far beyond any hierarchy the driver
    builds).
    """
    lib = load()
    if lib is None:
        raise RuntimeError(f"compiled kernels unavailable: {_load_failed}")
    lib.copy_indexed(
        _as_double_ptr(flat), _as_int32_ptr(dst), _as_int32_ptr(src),
        dst.size, float(scale),
    )


def prolong_blocks(src: np.ndarray, nx: int, ny: int, dst: np.ndarray) -> None:
    """Batched minmod prolongation of ``R`` ``(nx, ny)`` slabs to 2x size."""
    lib = load()
    if lib is None:
        raise RuntimeError(f"compiled kernels unavailable: {_load_failed}")
    lib.prolong_blocks(
        _as_double_ptr(src), src.size // (nx * ny), nx, ny, _as_double_ptr(dst)
    )


def restrict_blocks(src: np.ndarray, nx: int, ny: int, dst: np.ndarray) -> None:
    """Batched 2x2 area restriction of ``R`` ``(nx, ny)`` slabs."""
    lib = load()
    if lib is None:
        raise RuntimeError(f"compiled kernels unavailable: {_load_failed}")
    lib.restrict_blocks(
        _as_double_ptr(src), src.size // (nx * ny), nx, ny, _as_double_ptr(dst)
    )


def gather_indexed(flat: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """``out.ravel()[:] = flat[idx]`` into a preallocated staging buffer."""
    lib = load()
    if lib is None:
        raise RuntimeError(f"compiled kernels unavailable: {_load_failed}")
    lib.gather_indexed(
        _as_double_ptr(flat), _as_int32_ptr(idx), _as_double_ptr(out), idx.size
    )


def scatter_indexed(flat: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """``flat[idx] = vals.ravel()`` from a staging buffer."""
    lib = load()
    if lib is None:
        raise RuntimeError(f"compiled kernels unavailable: {_load_failed}")
    lib.scatter_indexed(
        _as_double_ptr(flat), _as_int32_ptr(idx), _as_double_ptr(vals), idx.size
    )
