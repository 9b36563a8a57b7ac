"""Loader for the compiled NoC kernel.

The fast backend *is* the C transcription of the reference loop in
``_fastsim_kernel.c``.  When a C compiler is available the kernel is
built once (into the package directory, rebuilt when the source *or the
compile flag set* changes) and loaded through :mod:`ctypes`; when it is
not, :func:`load_kernel` warns once (the build/load error is the
warning's ``__cause__``), counts ``noc.kernel.unavailable`` and returns
``None``, and ``backend="fast"`` runs the reference engine instead —
same results, 30-70x slower.  No extra Python dependencies are involved
either way.

The kernel is built with ``-fopenmp`` when the compiler supports it
(probed with a throwaway compile, falling back to a serial build
otherwise) so the batch entry points can run the schedules of a
``simulate_many`` batch on multiple cores.  The flag set actually used
is stamped next to the artifact (``_fastsim_kernel.so.flags``) and
compared on every load: a cached no-OpenMP build no longer shadows a
compiler upgrade, and ``REPRO_NOC_NO_OPENMP=1`` forces a serial
rebuild for fallback testing.  ``REPRO_NOC_THREADS`` caps the batch
thread count (``0`` = no in-process thread team).
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
import warnings
from typing import List, Optional

from repro.obs import get_observer

_SRC = os.path.join(os.path.dirname(__file__), "_fastsim_kernel.c")
_SO = os.path.join(os.path.dirname(__file__), "_fastsim_kernel.so")

_BASE_FLAGS = ("-O2", "-shared", "-fPIC")
_OMP_FLAG = "-fopenmp"

_i32p = ctypes.POINTER(ctypes.c_int32)
_i64p = ctypes.POINTER(ctypes.c_int64)
_u64p = ctypes.POINTER(ctypes.c_uint64)


class KernelFabric(ctypes.Structure):
    """Mirror of the C ``Fabric`` struct: one network's tables."""

    _fields_ = [
        ("n_routers", ctypes.c_int32),
        ("n_flat_ports", ctypes.c_int32),
        ("port_base", _i32p),
        ("nports", _i32p),
        ("deg_off", _i32p),
        ("nbr", _i32p),
        ("out_mask", _u64p),
        ("out_gp", _i32p),
        ("out_eidx", _i32p),
    ]


# The entry points: fabric records once, then CSR-concatenated
# per-schedule arrays, then the outputs — slabs and arrays the host
# allocates and owns; the kernel writes into them, allocates nothing
# that outlives the call and returns nothing (see the comment above
# nocsim_run_batch in the C source for the exact layout).
_ARGTYPES_BATCH = [
    ctypes.POINTER(KernelFabric),  # fabrics [F]
    _i32p,           # fabric_of [S]
    ctypes.c_int32,  # capacity
    ctypes.c_int32,  # ej_max
    ctypes.c_int64,  # n_schedules
    _i64p,           # pk_off [S+1]
    _u64p,           # pk_mask (concatenated)
    _i32p,           # pk_srcgp (concatenated)
    _i64p,           # bk_off [S+1]
    _i64p,           # bucket_cycle (concatenated)
    _i64p,           # bucket_off (concatenated, slice s at bk_off[s]+s)
    _i32p,           # bucket_pid (concatenated, schedule-local pids)
    _i64p,           # deadline [S]
    ctypes.c_int32,  # n_threads
    _i64p,           # link_off [S]
    _i64p,           # link_counts (per-schedule slices)
    _i64p,           # peak_off [S]
    _i32p,           # peaks (per-schedule slices)
    _i64p,           # d_off [S+1]
    _i32p,           # d_meta (per-schedule delivery slices)
    _i32p,           # d_dst
    _i64p,           # d_cycle
    _i32p,           # d_hops
    _i64p,           # d_len [S]
    _i64p,           # cycles_run [S]
    _i32p,           # status [S]: 0 ok, 1 failed (the host falls back)
]

# The multi-word entry point takes the call's n_words right after
# fabric_of; the mask-carrying pointers then address n_words uint64 per
# entry.
_ARGTYPES_BATCH_MW = _ARGTYPES_BATCH[:2] + [ctypes.c_int32] + _ARGTYPES_BATCH[2:]

_cached: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[BaseException] = None


def _stamp_path() -> str:
    return _SO + ".flags"


def _read_stamp() -> Optional[str]:
    try:
        with open(_stamp_path()) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _write_stamp(flags: List[str]) -> None:
    tmp = f"{_stamp_path()}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(" ".join(flags) + "\n")
        os.replace(tmp, _stamp_path())  # atomic publish
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _openmp_supported() -> bool:
    """Whether gcc can build the kernel with ``-fopenmp``.

    A stamp recording an OpenMP build short-circuits the probe (the
    compiler built it once already; a later failure falls back inside
    :func:`_build` anyway).  Otherwise a throwaway compile answers.
    """
    stamp = _read_stamp()
    if stamp is not None and _OMP_FLAG in stamp.split():
        return True
    probe_src = "#include <omp.h>\nint probe(void){return omp_get_max_threads();}\n"
    try:
        with tempfile.TemporaryDirectory() as tmpdir:
            src = os.path.join(tmpdir, "probe.c")
            out = os.path.join(tmpdir, "probe.so")
            with open(src, "w") as fh:
                fh.write(probe_src)
            subprocess.run(
                ["gcc", *_BASE_FLAGS, _OMP_FLAG, "-o", out, src],
                check=True,
                capture_output=True,
                timeout=60,
            )
        return True
    except Exception:
        return False


def _desired_flags() -> List[str]:
    flags = list(_BASE_FLAGS)
    if not os.environ.get("REPRO_NOC_NO_OPENMP") and _openmp_supported():
        flags.append(_OMP_FLAG)
    return flags


def _stale() -> bool:
    """True when the artifact must be (re)built."""
    if not os.path.exists(_SO):
        return True
    if os.path.getmtime(_SO) < os.path.getmtime(_SRC):
        return True
    # Flag changes (OpenMP toggled, compiler gained -fopenmp support)
    # must rebuild too — mtime alone cannot see them.
    return _read_stamp() != " ".join(_desired_flags())


def _build() -> None:
    flags = _desired_flags()
    # Per-process temp name: concurrent builders (pytest-xdist workers,
    # two CLI runs) must not write into one shared path, or a
    # half-written .so could be published and then cached forever.
    tmp = f"{_SO}.{os.getpid()}.tmp"
    try:
        try:
            subprocess.run(
                ["gcc", *flags, "-o", tmp, _SRC],
                check=True,
                capture_output=True,
                timeout=120,
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired):
            if _OMP_FLAG not in flags:
                raise
            flags = [f for f in flags if f != _OMP_FLAG]
            subprocess.run(
                ["gcc", *flags, "-o", tmp, _SRC],
                check=True,
                capture_output=True,
                timeout=120,
            )
        os.replace(tmp, _SO)  # atomic publish
        _write_stamp(flags)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def resolve_threads(requested: Optional[int] = None) -> int:
    """Effective thread count for the batch kernel.

    ``requested`` wins when given; otherwise ``REPRO_NOC_THREADS`` is
    read, on every call.  Unset / ``auto`` / negative means one thread
    per core; ``N >= 1`` caps the team at N; ``0`` means no in-process
    thread team — the batch still runs in one kernel call, on the
    calling thread alone.  A value that is none of these warns (it is
    most likely a typo) and counts as unset.
    """
    if requested is None:
        raw = os.environ.get("REPRO_NOC_THREADS", "").strip().lower()
        if raw in ("", "auto"):
            requested = -1
        else:
            try:
                requested = int(raw)
            except ValueError:
                warnings.warn(
                    f"REPRO_NOC_THREADS={raw!r} is not an integer or "
                    "'auto'; using one thread per core",
                    RuntimeWarning,
                    stacklevel=2,
                )
                requested = -1
    requested = int(requested)
    if requested == 0:
        return 0
    if requested < 0:
        return os.cpu_count() or 1
    return requested


def openmp_enabled(lib: Optional[ctypes.CDLL] = None) -> bool:
    """True when the loaded kernel was compiled with OpenMP."""
    if lib is None:
        lib = load_kernel()
    if lib is None:
        return False
    fn = getattr(lib, "_repro_openmp", None)
    return bool(fn)


def has_batch(lib: Optional[ctypes.CDLL]) -> bool:
    """True when a kernel is loaded (its only entry points are batch)."""
    return lib is not None


def load_error() -> Optional[BaseException]:
    """Why :func:`load_kernel` returns ``None``; ``None`` when it loads."""
    load_kernel()
    return _load_error


def load_kernel() -> Optional[ctypes.CDLL]:
    """Compile (if needed) and load the C kernel, or warn and ``None``."""
    global _cached, _load_attempted, _load_error
    if _load_attempted:
        return _cached
    _load_attempted = True
    try:
        if _stale():
            _build()
        lib = ctypes.CDLL(_SO)
        lib.nocsim_run_batch.argtypes = _ARGTYPES_BATCH
        lib.nocsim_run_batch.restype = None
        lib.nocsim_run_batch_mw.argtypes = _ARGTYPES_BATCH_MW
        lib.nocsim_run_batch_mw.restype = None
        lib.nocsim_openmp.argtypes = []
        lib.nocsim_openmp.restype = ctypes.c_int32
        lib._repro_openmp = bool(lib.nocsim_openmp())
        _cached = lib
    except Exception as exc:
        # Whatever went wrong (no gcc, a compile error, an unloadable or
        # symbol-less .so), the reference engine still answers — but at
        # 30-70x the cost, so say so once, with the reason attached.
        warning = RuntimeWarning(
            f"compiled NoC kernel unavailable ({exc!r}); "
            "backend='fast' falls back to the reference engine"
        )
        warning.__cause__ = exc
        warnings.warn(warning, stacklevel=2)
        get_observer().inc("noc.kernel.unavailable", error=type(exc).__name__)
        _cached, _load_error = None, exc
    return _cached
