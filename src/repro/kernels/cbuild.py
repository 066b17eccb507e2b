"""Compile-and-cache machinery for the generated C kernel.

The kernel source (:func:`repro.kernels.csrc.c_source`) is compiled once
per (source hash, compiler) into a shared object under a per-user cache
directory, then loaded through ``ctypes``.  Subsequent runs -- and every
worker process of a campaign fan-out -- dlopen the cached artifact
directly, so JIT cost is paid once per machine, not once per process.

The cache directory defaults to a per-user path under the system temp
directory and can be pinned with ``REPRO_KERNEL_CACHE`` (useful in CI to
persist the artifact across steps).  Writes follow the repo-wide
crash-consistency idiom: build to a unique temp name, ``os.replace``
into place, so concurrent builders race benignly.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

#: Environment override for the shared-object cache directory.
CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Compilers probed in order; the first one on PATH wins.
COMPILERS = ("cc", "gcc", "clang")


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled or loaded on this machine."""


def cache_dir() -> Path:
    """The shared-object cache directory (created on demand)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        path = Path(override)
    else:
        uid = os.getuid() if hasattr(os, "getuid") else "shared"
        path = Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def find_compiler() -> Optional[str]:
    """Absolute path of the first available C compiler, or ``None``."""
    for name in COMPILERS:
        found = shutil.which(name)
        if found:
            return found
    return None


def _cache_tag(source: str, compiler: str) -> str:
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(compiler.encode("utf-8"))
    digest.update(sys.platform.encode("utf-8"))
    return digest.hexdigest()[:16]


def build_library(source: str) -> Path:
    """Compile ``source`` into the cache; returns the shared-object path.

    Idempotent and concurrency-safe: a cached artifact is reused without
    invoking the compiler at all.  Each builder compiles its own temp
    copy of the source, so a concurrent builder can never truncate the
    file under another's compiler; the object and the source are then
    renamed into place, and a failed build leaves no temp files behind.
    """
    compiler = find_compiler()
    if compiler is None:
        raise KernelBuildError(
            f"no C compiler on PATH (tried {', '.join(COMPILERS)})"
        )
    directory = cache_dir()
    lib_path = directory / f"repro_kernel_{_cache_tag(source, compiler)}.so"
    if lib_path.exists():
        return lib_path
    fd, name = tempfile.mkstemp(
        prefix=f".{lib_path.stem}.", suffix=".c", dir=directory
    )
    src_tmp = Path(name)
    obj_tmp = src_tmp.with_suffix(".so.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(source)
        cmd = [
            compiler, "-O2", "-shared", "-fPIC",
            "-o", str(obj_tmp), str(src_tmp),
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise KernelBuildError(
                f"compiler invocation failed: {exc!r}"
            ) from exc
        if proc.returncode != 0:
            raise KernelBuildError(
                f"{compiler} failed ({proc.returncode}):\n"
                f"{proc.stderr.strip()}"
            )
        os.replace(obj_tmp, lib_path)
        os.replace(src_tmp, lib_path.with_suffix(".c"))
    finally:
        src_tmp.unlink(missing_ok=True)
        obj_tmp.unlink(missing_ok=True)
    return lib_path


_I64P = ctypes.POINTER(ctypes.c_int64)
_U64P = ctypes.POINTER(ctypes.c_uint64)
_U8P = ctypes.POINTER(ctypes.c_uint8)

#: Half-width of the selection band, in binomial standard deviations.
BAND_SIGMAS = 6.0


def select_band(n_sites: int, base: int) -> Tuple[float, float]:
    """The uniform band ``[lo, hi)`` searched for a row's boundary rank.

    A row flips its ``base`` or ``base + 1`` smallest of ``n_sites``
    uniforms; both boundary order statistics sit near ``count/n_sites``
    within a binomial standard deviation or so.  Sites below ``lo`` are
    flipped outright and sites at or above ``hi`` never are, so only the
    band is ever sorted.  The width only moves speed: a band that misses
    the boundary makes the kernel select over the whole row.  ``lo`` is
    clamped at 0 so both ends order as bit patterns.
    """
    p = min(1.0, (base + 0.5) / n_sites)
    half = BAND_SIGMAS * math.sqrt(p * (1.0 - p) / n_sites) + 2.0 / n_sites
    return max(0.0, p - half), p + half


def _bits(value: float) -> int:
    """The IEEE-754 bit pattern of a double, as the selector compares it."""
    return int(np.float64(value).view(np.uint64))


def load_kernel(lib_path: Path) -> Tuple[Callable, Callable]:
    """dlopen the kernel once and wrap both entry points.

    Returns ``(eval_batch, select_masks)``.  ``eval_batch`` is
    ``fn(header, ipool, bpool, ops, va, vb, words, n, n_words, out,
    scratch)`` over contiguous NumPy arrays.  ``select_masks(block,
    n_sites, base, remainder)`` turns an exact-fraction uniform block
    into ``(words, tied_rows)``: the packed ``(n_draws, n_words)`` masks,
    and the rows whose boundary tie the caller must select itself (those
    rows are left zero).
    """
    try:
        lib = ctypes.CDLL(str(lib_path))
        eval_c = lib.repro_eval_batch
        select_c = lib.repro_select_batch
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(f"could not load {lib_path}: {exc!r}") from exc
    eval_c.restype = None
    eval_c.argtypes = [
        _I64P, _I64P, _U8P, _I64P, _I64P, _I64P, _U64P,
        ctypes.c_int64, ctypes.c_int64, _I64P, _U8P,
    ]
    select_c.restype = ctypes.c_int64
    select_c.argtypes = [
        _U64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64,
        _U64P, ctypes.c_int64, _U64P, _I64P, _I64P,
    ]

    def eval_batch(header, ipool, bpool, ops, va, vb, words, n, n_words,
                   out, scratch):
        eval_c(
            header.ctypes.data_as(_I64P),
            ipool.ctypes.data_as(_I64P),
            bpool.ctypes.data_as(_U8P),
            ops.ctypes.data_as(_I64P),
            va.ctypes.data_as(_I64P),
            vb.ctypes.data_as(_I64P),
            words.ctypes.data_as(_U64P),
            int(n),
            int(n_words),
            out.ctypes.data_as(_I64P),
            scratch.ctypes.data_as(_U8P),
        )

    def select_masks(block, n_sites, base, remainder):
        keys = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64)
        if keys.ndim != 2 or not 0 < n_sites <= keys.shape[1] <= n_sites + 1:
            raise ValueError(
                f"uniform block {keys.shape} does not fit {n_sites} sites"
            )
        n_draws, cols = keys.shape
        n_words = (n_sites + 63) // 64
        words = np.empty((n_draws, n_words), dtype=np.uint64)
        ckey = np.empty(n_sites, dtype=np.uint64)
        cidx = np.empty(n_sites, dtype=np.int64)
        tied = np.empty(n_draws, dtype=np.int64)
        lo, hi = select_band(n_sites, base)
        n_tied = select_c(
            keys.ctypes.data_as(_U64P),
            n_draws, cols, int(n_sites), int(base),
            _bits(remainder), _bits(lo), _bits(hi),
            words.ctypes.data_as(_U64P),
            n_words,
            ckey.ctypes.data_as(_U64P),
            cidx.ctypes.data_as(_I64P),
            tied.ctypes.data_as(_I64P),
        )
        return words, tied[:n_tied]

    return eval_batch, select_masks


def self_test(eval_fn, select_fn) -> None:
    """Smoke-check both entry points on small known-answer inputs.

    Guards against a miscompiled or ABI-skewed shared object being
    silently adopted: a bad artifact raises :class:`KernelBuildError`
    here and the provider chain falls through.
    """
    from repro.alu.nanobox import NanoBoxALU
    from repro.faults.mask import select_numpy
    from repro.kernels.plan import build_plan

    unit = NanoBoxALU(scheme="none")
    plan = build_plan(unit)
    if plan is None:  # pragma: no cover - 'none' scheme always lowers
        raise KernelBuildError("self-test plan failed to lower")
    n_words = (plan.site_count + 63) // 64
    ops = np.array([0b111], dtype=np.int64)
    va = np.array([0x2B], dtype=np.int64)
    vb = np.array([0x2A], dtype=np.int64)
    words = np.zeros(n_words, dtype=np.uint64)
    out = np.zeros(1, dtype=np.int64)
    scratch = np.zeros(plan.scratch_size, dtype=np.uint8)
    eval_fn(
        plan.header, plan.ipool, plan.bpool, ops, va, vb, words,
        1, n_words, out, scratch,
    )
    expected = unit.compute(0b111, 0x2B, 0x2A).bundle
    if int(out[0]) != expected:
        raise KernelBuildError(
            f"kernel self-test mismatch: got {int(out[0])}, "
            f"expected {expected}"
        )
    # 130 sites span three words; 30% leaves a rounding uniform per row.
    n_sites, base, remainder = 130, 39, 0.5
    block = np.random.default_rng(2004).random((16, n_sites + 1))
    got, tied = select_fn(block, n_sites, base, remainder)
    want = select_numpy(block, n_sites, base, remainder)
    if tied.size or not np.array_equal(got, want):
        raise KernelBuildError(
            "kernel self-test mismatch: mask selection differs from the "
            "NumPy rule"
        )
