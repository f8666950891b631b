"""The Step-I screen's counts and a decode sweep's determinism hash do not
depend on OPENBLAS_NUM_THREADS: the package runs their BLAS calls inside
sphere.one_blas_thread. Each check runs in child processes, one per
thread count, since OpenBLAS reads the variable when it loads."""

import json
import math

import numpy as np
import pytest

from spherecodes import rng_for, sample_uniform_sphere_batch
from spherecodes.learner import _SCREEN_BUF_BYTES

from .blas_kernels import run_under_threads

# d and N of a screen whose block products one and two BLAS threads round
# differently in a few entries (168 of 381,300 with OpenBLAS 0.3.31's
# SkylakeX kernel; none at d = 6, N = 2,000)
SCREEN_D, SCREEN_N = 8, 4100


def screen_input(scale_col: int = 0, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(points, observations): three blocks of net points, so that the
    helper thread screens one, and N observations near some of them, the
    scale_col-th observation times scale."""
    rows = _SCREEN_BUF_BYTES // (8 * SCREEN_N)
    rng = rng_for(200)
    pts = sample_uniform_sphere_batch(SCREEN_D, 3 * rows, rng)
    obs = pts[rng.integers(0, 3 * rows, SCREEN_N)] + 0.7 * rng.standard_normal((SCREEN_N, SCREEN_D))
    obs[scale_col] *= scale
    return pts, obs


def block_products(pts: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """The zero-rate screen's block products, taken as the screen takes
    them but outside one_blas_thread, so at this process's thread count."""
    rows = _SCREEN_BUF_BYTES // (8 * obs.shape[0])
    rhs = np.ascontiguousarray(obs.T)
    return np.vstack([pts[lo : lo + rows] @ rhs for lo in range(0, pts.shape[0], rows)])


def cut_child(path: str, col: int, scale: float, eps_I: float) -> None:
    """Save this process's block products of the scaled input, the counts a
    screen at its thread count would give, and _pass_counts' counts."""
    from spherecodes.learner import _pass_counts
    from spherecodes.sphere import _blas_thread_setter

    pts, obs = screen_input(col, scale)
    products = block_products(pts, obs)
    uncapped = np.count_nonzero(products / SCREEN_D >= 1.0 - 0.25 * eps_I, axis=1)
    counts = _pass_counts(pts, obs, "zero_rate", eps_I, 1.0)
    found = _blas_thread_setter() is not None
    np.savez(path, products=products, uncapped=uncapped, counts=counts, found=found)


def test_screen_counts_do_not_depend_on_blas_threads(tmp_path):
    # the cut sits exactly on a statistic that one and two BLAS threads
    # round differently, so a screen at the process's thread count would
    # count that point's passes differently under the two settings
    snippet = "from tests.test_blas_threads import cut_child\ncut_child({!r}, {}, {!r}, {!r})\n"
    first = {n: tmp_path / f"first-{n}.npz" for n in (1, 2)}
    for n, path in first.items():
        run_under_threads(snippet.format(str(path), 0, 1.0, 0.25), counts=(n,))
    p1, p2 = (np.load(first[n])["products"] for n in (1, 2))
    if not np.load(first[1])["found"]:
        pytest.skip("no openblas_set_num_threads_local in numpy's BLAS")
    moved = np.argwhere(p1 != p2)
    if not moved.size:
        pytest.skip("one and two BLAS threads round every screen block product alike")
    i, j = moved[0]
    # observation j times a power of two s scales product column j exactly;
    # s puts the larger of the two values in [4, 8) and d = 8 divides it
    # exactly, so the zero-rate threshold 1 - eps_I / 4 can equal it
    sign = math.copysign(1.0, p1[i, j])
    x1, x2 = sign * float(p1[i, j]), sign * float(p2[i, j])
    _, e = math.frexp(max(x1, x2))
    scale = sign * 2.0 ** (3 - e)
    thr = max(x1, x2) * 2.0 ** (3 - e) / SCREEN_D
    eps_I = 4.0 * (1.0 - thr)
    assert 1.0 - 0.25 * eps_I == thr
    out = {n: tmp_path / f"cut-{n}.npz" for n in (1, 2)}
    for n, path in out.items():
        run_under_threads(snippet.format(str(path), int(j), scale, eps_I), counts=(n,))
    runs = {n: np.load(path) for n, path in out.items()}
    if np.array_equal(runs[1]["uncapped"], runs[2]["uncapped"]):
        pytest.skip("the scaled input's block products count alike under both thread counts")
    assert runs[1]["uncapped"][i] != runs[2]["uncapped"][i]
    assert np.array_equal(runs[1]["counts"], runs[2]["counts"])
    assert np.array_equal(runs[1]["counts"], runs[1]["uncapped"])


def sweep_hashes(path: str) -> None:
    """Print the determinism hashes of one decode sweep, three blocks a
    row, run at workers 1 and 4."""
    from click.testing import CliRunner

    from spherecodes.expcli import main

    cfg = {
        "kind": "decode_sweep",
        "d": [16],
        "k": [2981],
        "beta": [0.5, 2.0],
        "decoders": [{"kind": "mmse", "c": 1.45}, {"kind": "nn"}],
        "trials": 3000,
    }
    with open(path, "w") as f:
        json.dump(cfg, f)
    hashes = []
    for workers in ("1", "4"):
        out = f"{path}.{workers}.csv"
        res = CliRunner().invoke(main, ["decode-sweep", "--config", path, "--seed", "0", "--out", out, "--workers", workers])
        assert res.exit_code == 0, res.output
        with open(out) as f:
            hashes += [w for w in f.readline().split() if w.startswith("determinism_hash=")]
    print(json.dumps(hashes))


def test_decode_sweep_hash_holds_at_every_thread_and_worker_count(tmp_path):
    snippet = f"from tests.test_blas_threads import sweep_hashes\nsweep_hashes({str(tmp_path / 'sweep.json')!r})\n"
    hashes = [h for out in run_under_threads(snippet).values() for h in json.loads(out)]
    assert len(hashes) == 4 and len(set(hashes)) == 1, hashes
