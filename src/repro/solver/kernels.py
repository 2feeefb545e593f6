"""Runtime-compiled C kernels for batched AMR stepping.

The batched :class:`~repro.amr.driver.AmrDriver` steps its shape-stacked
hierarchy through the routines in ``_amr_kernels.c``: the fused sweep, the
CFL wave speeds and the physicality check of the stacked interiors, whose
ctypes arguments :class:`StackKernels` converts once per stack array (a
:class:`repro.amr.batch.PatchStack` binds one to its own array when it is
built), and each half of the ghost exchange program of
:class:`repro.amr.batch.ExchangePlan` as one call, whose ctypes arguments
:func:`bind_exchange` converts once.  The sweep implements one scheme, the
one every AMR run uses: MUSCL with the MC limiter and the HLLC flux.  This
module owns the build-and-load lifecycle:

- **Build cache** — the shared library is compiled once per source hash
  into a per-user cache directory (override with ``REPRO_KERNEL_CACHE``)
  and reused across processes and sessions; concurrent builders race
  benignly through an atomic rename.
- **Graceful degradation** — if no C compiler is available (or the build
  fails for any reason) :func:`load` returns None, :func:`available`
  returns ``False``, and callers fall back to the numpy reference path;
  nothing in the repo *requires* the compiled kernels.  The first process
  to load them on a machine pays the one-time build (about a second of
  ``gcc``).
- **Bit-identity** — the C routines replicate the numpy expression trees
  of :func:`repro.solver.fv._sweep_stack` (with ``"hllc"`` and ``"mc"``)
  and the other numpy paths operation for operation and are built with
  ``-ffp-contract=off`` (no FMA contraction), so their results are
  bit-for-bit equal to the reference; ``tests/solver/test_kernels.py``
  pins this for the sweep, the wave speeds, the exchange and the
  physicality check.
- **Skipped work, same bits** — the sweep updates only the band of
  normal cells whose stencil is not one state (bit for bit) in every
  line, keeps the rest when the full arithmetic would return them as they
  are, returns a quiescent patch (one state along every line) untouched,
  and counts both; the wave speeds and the physicality check evaluate one
  cell of a uniform interior; and the HLLC flux builds only the star
  state its select can take.  The numpy reference does all the
  arithmetic.

Every process calls :func:`load` independently; they all hit the same
cache file, so the compile cost is paid once per machine (per cache
directory), not once per process.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

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
        dp, ctypes.c_long, ctypes.c_long, ctypes.c_long, dp, ctypes.c_double,
        ctypes.POINTER(ctypes.c_long), ctypes.c_int,
    ]
    lib.fused_sweep.restype = ctypes.c_long
    lib.wave_speeds.argtypes = [
        dp, ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_double,
        dp, dp,
    ]
    lib.wave_speeds.restype = None
    lib.check_physical.argtypes = [
        dp, ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_double,
    ]
    lib.check_physical.restype = ctypes.c_int
    lib.exchange.argtypes = [
        dp, ip, ip, ctypes.c_long, ip, ip, ctypes.c_long,
        ip, ip, ctypes.c_long, ctypes.c_long, ctypes.c_long, dp, dp,
        ip, ip, ctypes.c_long, ctypes.c_long, ctypes.c_long, dp, dp,
    ]
    lib.exchange.restype = None
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


def _require() -> ctypes.CDLL:
    lib = load()
    if lib is None:
        raise RuntimeError(f"compiled kernels unavailable: {_load_failed}")
    return lib


def _check_stack(q: np.ndarray, ng: int) -> None:
    if not (q.flags.c_contiguous and q.dtype == np.float64):
        raise ValueError("q must be C-contiguous float64")
    if not (q.ndim == 4 and q.shape[1] == 4 and q.shape[2] == q.shape[3] > 2 * ng):
        raise ValueError("q must have shape (P, 4, n, n) with n > 2 * ng")


def _as_double_ptr(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _as_int32_ptr(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_int32))


class StackKernels:
    """The sweep, wave speeds and physicality check of one stack array.

    ``q`` is a C-contiguous float64 ``(P, 4, n, n)`` stack.  Every pointer
    argument of the three C routines is converted to ctypes here, once, as
    :func:`bind_exchange` does for the exchange; the object holds
    references to the arrays.  ``dt_dx`` is the ``(P,)`` buffer of
    per-patch ``dt / dx`` factors the sweep reads, and :meth:`wave_speeds`
    fills the ``(P,)`` buffers ``sx`` and ``sy``.
    """

    __slots__ = ("q", "dt_dx", "sx", "sy", "_cells", "_sweep", "_speeds",
                 "_check")

    def __init__(self, q: np.ndarray, ng: int, gamma: float) -> None:
        lib = _require()
        _check_stack(q, ng)
        P, _, n, _ = q.shape
        self.q = q
        self.dt_dx = np.zeros(P)
        self.sx = np.empty(P)
        self.sy = np.empty(P)
        self._cells = ctypes.c_long()
        stack = (_as_double_ptr(q), P, n, ng)
        self._sweep = functools.partial(
            lib.fused_sweep, *stack, _as_double_ptr(self.dt_dx), float(gamma),
            ctypes.pointer(self._cells),
        )
        self._speeds = functools.partial(
            lib.wave_speeds, *stack, float(gamma),
            _as_double_ptr(self.sx), _as_double_ptr(self.sy),
        )
        self._check = functools.partial(lib.check_physical, *stack, float(gamma))

    def sweep(self, axis: int) -> tuple[int, int]:
        """In-place fused HLLC/MC sweep with the factors in ``dt_dx``.

        ``axis`` 0 sweeps x, 1 sweeps y.  Only the band of normal cells
        whose stencil is not one state in every line is updated; the
        cells outside it are kept when the full arithmetic would return
        them as they are, bit for bit.  Returns ``(skipped, cells)``: the
        quiescent patches skipped, whose every line holds one state along
        the normal, and the cells updated.
        """
        if axis not in (0, 1):
            raise ValueError(f"axis must be 0 or 1, got {axis!r}")
        skipped = self._sweep(axis)
        if skipped < 0:
            raise MemoryError("the fused sweep could not allocate its scratch")
        return skipped, self._cells.value

    def wave_speeds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-patch interior maxima of ``|u|+c`` / ``|v|+c``: ``(sx, sy)``.

        NaN where a speed is NaN, as numpy's ``max``; ghosts are not read.
        """
        self._speeds()
        return self.sx, self.sy

    def check_physical(self) -> bool:
        """True iff every interior cell of the stack is physical."""
        return bool(self._check())


def bind_exchange(
    flat: np.ndarray,
    copy: tuple[np.ndarray, np.ndarray],
    neg: tuple[np.ndarray, np.ndarray],
    coarse: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    fine: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
):
    """One ghost-exchange program on ``flat``, as a call without arguments.

    - ``copy`` and ``neg`` are ``(dst, src)``: ``flat[dst] = flat[src]``,
      and the same times ``-1.0``.  ``dst`` and ``src`` must be disjoint,
      as the exchange's ghost cells and interiors are.
    - ``coarse`` is ``(gather, scatter, gathered, prolonged)``: the
      ``(..., nx, ny)`` slabs that ``gather`` indexes are prolonged
      (minmod, as :func:`repro.amr.transfer.prolong_patch`) to
      ``scatter`` ``(..., 2nx, 2ny)``, through float64 staging buffers of
      the two sizes.
    - ``fine`` is the same for the 2x2 restriction of ``(..., nx, ny)``
      slabs to ``(..., nx/2, ny/2)``.

    Index arrays are C-contiguous int32.  Every argument is converted to
    ctypes here, once, and the call holds references to the arrays.
    """
    lib = _require()
    for a in (flat, *coarse[2:], *fine[2:]):
        if not (a.flags.c_contiguous and a.dtype == np.float64):
            raise ValueError("flat and staging buffers must be C-contiguous float64")
    for a in (*copy, *neg, *coarse[:2], *fine[:2]):
        if not (a.flags.c_contiguous and a.dtype == np.int32):
            raise ValueError("index arrays must be C-contiguous int32")
        if a.size and not (0 <= a.min() and a.max() < flat.size):
            raise ValueError("an index lies outside flat")
    args = [_as_double_ptr(flat)]
    for dst, src in (copy, neg):
        if dst.size != src.size:
            raise ValueError("copy destinations and sources differ in size")
        args += [_as_int32_ptr(dst), _as_int32_ptr(src), ctypes.c_long(dst.size)]
    for (gather, scatter, gathered, spread), ratio in ((coarse, 4), (fine, 0.25)):
        if not (gathered.size == gather.size and spread.size == scatter.size
                == gather.size * ratio):
            raise ValueError("gather, scatter and staging sizes do not match")
        nx, ny = gather.shape[-2:]
        args += [
            _as_int32_ptr(gather), _as_int32_ptr(scatter),
            ctypes.c_long(gather.size // (nx * ny)),
            ctypes.c_long(nx), ctypes.c_long(ny),
            _as_double_ptr(gathered), _as_double_ptr(spread),
        ]
    return functools.partial(lib.exchange, *args)
