"""Run code under other OpenBLAS kernels and thread counts.

numpy's DYNAMIC_ARCH OpenBLAS picks its compute kernel when it loads, from
OPENBLAS_CORETYPE when that is set, and the variable acts only on the
process that is given it. So run_under_kernels runs a snippet in one child
process per kernel, with one BLAS thread, and first shows in each child
that the switch is live there. The thread count alone can change a
product's bits, so the reference is a child with one thread too.
run_under_threads runs a snippet in one child per OPENBLAS_NUM_THREADS
value, on the default kernel.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# two kernels that round a float64 product differently from each other and
# from SkylakeX, the default on AVX-512 machines
KERNELS = ("Prescott", "Haswell")


def probe_bits() -> str:
    """A digest of the bits of a fixed 300 x 16 by 2,981 x 16 float64
    product, which OpenBLAS kernels round differently."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((300, 16)), rng.standard_normal((2981, 16))
    return hashlib.sha256((a @ b.T).tobytes()).hexdigest()


def _run(code: str, env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _env(threads: int) -> dict:
    """This process's environment with the package importable, the default
    kernel and the given BLAS thread count."""
    paths = [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    env.pop("OPENBLAS_CORETYPE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_under_threads(snippet: str, counts=(1, 2)) -> dict[int, str]:
    """The standard output of snippet, Python source run from the repository
    root, in one child process per BLAS thread count of counts, keyed by
    count."""
    return {n: _run(snippet, _env(n)) for n in counts}


def run_under_kernels(snippet: str) -> dict[str, str]:
    """The standard output of snippet, Python source run from the repository
    root, in one child process per kernel of KERNELS with one BLAS thread,
    keyed by kernel. Skips the calling test, naming the kernel, when that
    child's probe product has the bits of a child given no kernel: the
    switch is not live there, as on a BLAS that is not a DYNAMIC_ARCH
    OpenBLAS."""
    env = _env(1)
    probe = "from tests.blas_kernels import probe_bits\nprint(probe_bits())\n"
    here = _run(probe, env).strip()
    out = {}
    for kernel in KERNELS:
        there, _, rest = _run(probe + snippet, {**env, "OPENBLAS_CORETYPE": kernel}).partition("\n")
        if there == here:
            pytest.skip(f"OPENBLAS_CORETYPE={kernel} leaves a float64 product's bits as the default kernel has them")
        out[kernel] = rest
    return out
