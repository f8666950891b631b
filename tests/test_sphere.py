import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecodes import (
    Net,
    NetInfeasibleError,
    build_net,
    project_ball,
    rng_for,
    sample_uniform_sphere_batch,
    verify_covering,
)
from spherecodes.sphere import (
    _DRAW_ROWS,
    _NORM_TOL,
    ARRAY_BYTES_MAX,
    Watermark,
    _blas_thread_setter,
    fixed_dot,
    net_size,
    one_blas_thread,
    share_out,
)

from .oracles import covering_min_sq_ref, covering_ref, fixed_dot_ref, sphere_batch_ref


def test_sample_norm_invariant():
    rng = rng_for(1)
    for d in (1, 2, 7, 64, 513):
        x = sample_uniform_sphere_batch(d, 1, rng)[0]
        assert abs(np.dot(x, x) - d) <= 1e-9 * d


def test_sample_d1_is_sign():
    rng = rng_for(2)
    vals = sample_uniform_sphere_batch(1, 64, rng)[:, 0]
    assert np.all(np.abs(np.abs(vals) - 1.0) <= 1e-12)
    assert len(set(np.sign(vals))) == 2


def test_sample_mean_coordinate_clt():
    # coordinate variance is 1 on sqrt(d) S^(d-1); sample means sit at 1/sqrt(n)
    rng = rng_for(3)
    d, n = 64, 50_000
    pts = sample_uniform_sphere_batch(d, n, rng)
    assert np.all(np.abs(pts.mean(axis=0)) <= 4.5 / np.sqrt(n))


class ZeroRowRng:
    """A generator whose standard normals are another's, except that the
    draw's row `row` of d values comes out zero the first time it is
    drawn: a zero Gaussian vector, which has probability 0."""

    def __init__(self, rng, d, row):
        self.rng, self.d, self.at, self.drawn = rng, d, row * d, 0

    def standard_normal(self, size=None, out=None):
        x = self.rng.standard_normal(size, out=out)
        flat, at = x.reshape(-1), self.at - self.drawn
        if 0 <= at < flat.size:
            flat[at : at + self.d] = 0.0
        self.drawn += flat.size
        return x


@pytest.mark.parametrize("d", [1, 3, 6])
@pytest.mark.parametrize("n", [1, _DRAW_ROWS - 1, _DRAW_ROWS, 2 * _DRAW_ROWS + 5])
@pytest.mark.parametrize("zero_row", [None, 0, "middle", "last"])
def test_chunked_draw_equals_the_one_shot_draw(d, n, zero_row):
    # the chunks have the bits of one (n, d) draw, also when n is not a
    # whole number of chunks and when a zero row is drawn again; each
    # released prefix is final, and nothing from a zero row's chunk on is
    # released before the rows are drawn again
    row = {None: None, "middle": n // 2, "last": n - 1}.get(zero_row, zero_row)
    rng_ref, rng = rng_for(31, d, n), rng_for(31, d, n)
    if row is not None:
        rng_ref, rng = ZeroRowRng(rng_ref, d, row), ZeroRowRng(rng, d, row)
    ref = sphere_batch_ref(d, n, rng_ref)
    out, released = np.empty((n, d)), []
    pts = sample_uniform_sphere_batch(d, n, rng, out, lambda r: released.append((r, out[:r].copy())))
    assert pts is out and np.array_equal(pts, ref)
    assert [r for r, _ in released] == sorted({min(hi, n) for hi in range(_DRAW_ROWS, n + _DRAW_ROWS, _DRAW_ROWS) if row is None or hi <= row} | {n})
    assert all(np.array_equal(prefix, ref[:r]) for r, prefix in released)
    # both generators are left at the same place in the stream
    assert np.array_equal(rng.standard_normal(3), rng_ref.standard_normal(3))


def test_sample_rejects_zero_dimension():
    with pytest.raises(ValueError):
        sample_uniform_sphere_batch(0, 1, rng_for(4))


def test_rotation_invariance_ks():
    # empirical law of <x, e1>/sqrt(d) should not move under a fixed rotation
    rng = rng_for(5)
    d, n = 8, 100_000
    pts = sample_uniform_sphere_batch(d, n, rng)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = np.sort(pts[:, 0] / np.sqrt(d))
    b = np.sort((pts @ q.T)[:, 0] / np.sqrt(d))
    grid = np.linspace(-1, 1, 2001)
    fa = np.searchsorted(a, grid, side="right") / n
    fb = np.searchsorted(b, grid, side="right") / n
    assert np.max(np.abs(fa - fb)) <= 0.02


def test_project_ball_examples():
    d = 5
    assert np.allclose(project_ball(np.zeros(d), d), np.zeros(d))
    x = np.ones(d) * 2.0  # norm 2 sqrt(5) = 2 sqrt(d)
    p = project_ball(x, d)
    assert np.isclose(np.linalg.norm(p), np.sqrt(d))
    assert np.allclose(p / np.linalg.norm(p), x / np.linalg.norm(x))
    on_sphere = sample_uniform_sphere_batch(d, 1, rng_for(6))[0]
    assert np.array_equal(project_ball(on_sphere, d), on_sphere)


@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
def test_project_ball_idempotent(coords):
    # up to one rescale ulp: re-projecting a boundary point may shave ~1e-16
    x = np.asarray(coords)
    once = project_ball(x, 3)
    twice = project_ball(once, 3)
    assert np.max(np.abs(once - twice)) <= 1e-9


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
)
def test_project_ball_nonexpansive(a, b):
    x, y = np.asarray(a), np.asarray(b)
    px, py = project_ball(x, 4), project_ball(y, 4)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9


def python_dot(xs: list[float], ys: list[float]) -> float:
    """sum_j xs[j] * ys[j] over Python floats, added in index order."""
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total += x * y
    return total


# the callers' shapes: a slab of decode rows against the centers, one
# covering probe against the net, and row-by-row differences (spacing,
# minimum distance); then one coordinate
@pytest.mark.parametrize(
    "x_shape, y_shape", [((3, 1, 128), (5, 128)), ((6,), (9, 6)), ((4, 16), (4, 16)), ((2, 1, 1), (3, 1))]
)
# subnormal inputs, whose products underflow, and 1e150-scale ones, whose
# products sit near 1e300 without overflowing
@pytest.mark.parametrize("x_scale, y_scale", [(1.0, 1.0), (1e-310, 1.0), (1e-160, 1e-150), (1e150, 1e150)])
def test_fixed_dot_is_the_index_order_sum_over_python_floats(x_shape, y_shape, x_scale, y_scale):
    rng = rng_for(34, len(x_shape), x_shape[-1])
    x, y = x_scale * rng.standard_normal(x_shape), y_scale * rng.standard_normal(y_shape)
    bx, by = np.broadcast_arrays(x, y)
    want = np.array([python_dot(bx[i].tolist(), by[i].tolist()) for i in np.ndindex(bx.shape[:-1])])
    got = fixed_dot(x, y)
    assert np.shape(got) == bx.shape[:-1]
    # bit for bit, the sign of a zero included
    assert np.asarray(got).tobytes() == want.reshape(bx.shape[:-1]).tobytes()
    # the tests' own fixed-order oracle adds the same products to a zero
    # total, so it agrees in value
    assert np.array_equal(fixed_dot_ref(x, y), want.reshape(bx.shape[:-1]))
    assert x_scale != 1e-310 or np.any((want != 0.0) & (np.abs(want) < np.finfo(np.float64).tiny))


def test_build_net_d1_exact():
    net = build_net(1, 0.3, strategy="randomized", rng=rng_for(7))
    assert sorted(net.points[:, 0]) == [-1.0, 1.0]
    assert verify_covering(net, 100, rng_for(8)) == 1.0


def test_build_net_randomized_size_formula():
    rng = rng_for(9)
    net = build_net(4, 0.3, strategy="randomized", rng=rng, C_net=2.0, c_net=1.0)
    assert net.size == net_size(4, 0.3, 2.0, 1.0)


def test_build_net_dimension_guard():
    with pytest.raises(NetInfeasibleError):
        build_net(13, 0.3, strategy="randomized", rng=rng_for(10))


def test_build_net_memory_guard_raises_before_allocating():
    # 16 * 4^12 points in d=12 would need about 26 GB; the gate on d passes
    M = net_size(12, 0.25, 16.0)
    assert M * 12 * 8 > ARRAY_BYTES_MAX
    with pytest.raises(NetInfeasibleError, match=f"M={M}.*GiB"):
        build_net(12, 0.25, strategy="randomized", rng=rng_for(10), C_net=16.0)


def test_build_net_eps_domain():
    with pytest.raises(ValueError):
        build_net(4, 0.6, strategy="randomized", rng=rng_for(11))
    with pytest.raises(ValueError, match=r"eps_I must be in \(0, 1/2\), got '0.3'"):
        build_net(6, "0.3", rng=rng_for(0))


def test_randomized_net_covering_certificate():
    # calibrated-constant configuration must certify at this scale
    net = build_net(6, 0.3, strategy="randomized", rng=rng_for(12))
    frac = verify_covering(net, 10_000, rng_for(13))
    assert frac >= 0.999


def test_self_covering_is_exact():
    # probes drawn from the same stream as the net are a subset of it
    pts = sample_uniform_sphere_batch(5, 500, rng_for(15))
    net = Net(points=pts, eps_I=0.3)
    probe_subset = verify_covering(net, 400, rng_for(15))
    assert probe_subset == 1.0


@pytest.mark.parametrize("d", [1, 2, 3, 6])
@pytest.mark.parametrize("strategy", ["randomized"])
@pytest.mark.parametrize("C_net", [0.05, 4.0])
def test_verify_covering_equals_dense_reference(d, strategy, C_net):
    # C_net=0.05 leaves the sphere partly uncovered, so the fraction is
    # strictly between 0 and 1 for d >= 2
    net = build_net(d, 0.3, strategy=strategy, rng=rng_for(16, d), C_net=C_net)
    probes = 3_000
    assert verify_covering(net, probes, rng_for(17, d)) == covering_ref(net, probes, rng_for(17, d))


@pytest.mark.parametrize("d", [2, 3, 6])
def test_verify_covering_target_at_a_probe_distance(d):
    # a target equal to one probe's dense distance, to the last bit, puts
    # that probe on the boundary: it counts as covered (<=)
    base = build_net(d, 0.3, strategy="randomized", rng=rng_for(18, d), C_net=0.05)
    probes = 1_500
    min_sq = covering_min_sq_ref(base, probes, rng_for(19, d))
    for target in np.quantile(min_sq, [0.1, 0.5, 0.9], method="nearest"):
        net = Net(points=base.points, eps_I=0.3, covering_radius_sq_target=float(target))
        expected = int(np.sum(min_sq <= target)) / probes
        assert verify_covering(net, probes, rng_for(19, d)) == expected


def test_verify_covering_refuses_a_probe_array_over_budget_before_drawing():
    # the probes are drawn in one array, which the byte budget bounds
    net = build_net(4, 0.3, rng=rng_for(22), C_net=0.05)
    probes = ARRAY_BYTES_MAX // (8 * 4) + 1
    with pytest.raises(NetInfeasibleError, match=f"{probes} covering probes"):
        verify_covering(net, probes, rng_for(23))


@pytest.mark.parametrize("d", [3, 6])
def test_verify_covering_rechecks_band_probes_in_later_chunks(d):
    # 40,000 net points give the oracle chunks of 50 probes, so 230 probes
    # make four whole chunks and a partial fifth. Each target is one
    # probe's dense distance in a later chunk, with fixed-order inner
    # products, to the last bit; that probe is in the band, and counts as
    # covered only when its recheck, alone, reproduces that distance
    net = Net(points=sample_uniform_sphere_batch(d, 40_000, rng_for(20, d)), eps_I=0.3)
    probes = 230
    min_sq = covering_min_sq_ref(net, probes, rng_for(21, d))
    for i in (50, 99, 131, 187, 200, 229):
        target = float(min_sq[i])
        sub = Net(points=net.points, eps_I=0.3, covering_radius_sq_target=target)
        assert verify_covering(sub, probes, rng_for(21, d)) == int(np.sum(min_sq <= target)) / probes


def open_after(net, probes, rng, n):
    """Probes the net's first n points leave open: none of them clearly
    inside the target. Probes are drawn as verify_covering draws them."""
    q = sample_uniform_sphere_batch(net.d, probes, rng)
    part = net.points[:n]
    near = np.min((net.d + np.sum(part * part, axis=1)) - 2.0 * (q @ part.T), axis=1)
    return int(np.sum(near >= net.covering_radius_sq_target - 1e-9 * net.d))


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("probes", [40, 2_000])
def test_verify_covering_with_a_head_in_one_hemisphere(d, probes):
    # the net's head, the scan's first three slices (3,584 points), lies in
    # the half x_0 > 0, so the probes of the other half leave the scan only
    # in its last slices, and the few points there leave some open to the
    # net's end
    M = {3: 3_600, 5: 4_000}[d]
    pts = sample_uniform_sphere_batch(d, M, rng_for(24, d))
    pts[:3_584, 0] = np.abs(pts[:3_584, 0])
    net = Net(points=pts, eps_I=0.3)
    n_open = open_after(net, probes, rng_for(25, d), 3_584)
    frac = verify_covering(net, probes, rng_for(25, d))
    assert frac == covering_ref(net, probes, rng_for(25, d))
    assert 1.0 - n_open / probes < frac < 1.0
    assert open_after(net, probes, rng_for(25, d), M) > 0


@pytest.mark.parametrize("d", [2, 4])
def test_verify_covering_target_at_a_probe_nearest_outside_the_head(d):
    # the target equals, to the last bit, the dense distance of a probe
    # whose nearest net point lies past the head, here the scan's first
    # slice (512 points), so that probe reaches the band only later and
    # counts as covered (<=)
    net = Net(points=sample_uniform_sphere_batch(d, 3_000, rng_for(26, d)), eps_I=0.3)
    probes = 300
    q = sample_uniform_sphere_batch(d, probes, rng_for(27, d))
    dense = (d + np.sum(net.points**2, axis=1)[None, :]) - 2.0 * (q @ net.points.T)
    min_sq = covering_min_sq_ref(net, probes, rng_for(27, d))
    past_first = np.flatnonzero(np.argmin(dense, axis=1) >= 512)
    assert past_first.size > 0
    for i in past_first[:: max(1, past_first.size // 4)]:
        target = float(min_sq[i])
        sub = Net(points=net.points, eps_I=0.3, covering_radius_sq_target=target)
        assert verify_covering(sub, probes, rng_for(27, d)) == int(np.sum(min_sq <= target)) / probes


@pytest.mark.parametrize("d", [3, 6])
def test_verify_covering_with_norms_off_by_most_of_the_tolerance(d):
    # net points scaled to ||t||^2 = d (1 +- 0.9 _NORM_TOL), which Net
    # accepts: there the scan's 2d - 2 <q, t> is furthest from the dense
    # formula. Each target is one probe's dense distance, with fixed-order
    # inner products, to the last bit, from a point of either sign
    pts = sample_uniform_sphere_batch(d, 3_000, rng_for(29, d))
    sign = np.where(np.arange(3_000) % 2 == 0, 1.0, -1.0)
    base = Net(points=pts * np.sqrt(1.0 + 0.9 * _NORM_TOL * sign)[:, None], eps_I=0.3)
    probes = 400
    q = sample_uniform_sphere_batch(d, probes, rng_for(30, d))
    dense = (d + np.sum(base.points**2, axis=1)[None, :]) - 2.0 * (q @ base.points.T)
    min_sq = covering_min_sq_ref(base, probes, rng_for(30, d))
    parity = np.argmin(dense, axis=1) % 2
    for i in (*np.flatnonzero(parity == 0)[:3], *np.flatnonzero(parity == 1)[:3]):
        target = float(min_sq[i])
        net = Net(points=base.points, eps_I=0.3, covering_radius_sq_target=target)
        assert verify_covering(net, probes, rng_for(30, d)) == int(np.sum(min_sq <= target)) / probes


@pytest.mark.parametrize("pts", [[[2.0**0.5, 0.0]], [[1.0], [-1.0]], [[-1.0], [1.0]]], ids=["M1", "M2", "M2-flipped"])
def test_verify_covering_tiny_nets(pts):
    # one- and two-point nets: the first slice is the whole net
    net = Net(points=np.array(pts), eps_I=0.3)
    assert verify_covering(net, 500, rng_for(28)) == covering_ref(net, 500, rng_for(28))


def test_one_blas_thread_restores_the_count_after_the_body_and_on_raise():
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no openblas_set_num_threads_local in numpy's BLAS")
    # the setter returns the count it replaces, so setting the count a
    # check expects reads it
    start = setter(2)
    try:
        with one_blas_thread():
            assert setter(1) == 1
        assert setter(2) == 2
        with pytest.raises(KeyError):
            with one_blas_thread():
                with one_blas_thread():
                    assert setter(1) == 1
                assert setter(1) == 1
                raise KeyError
        assert setter(2) == 2
        # bodies left in another order than entered, as two threads leave
        # them: the count stays 1 until the last has left
        first, second = one_blas_thread(), one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert setter(1) == 1
        second.__exit__(None, None, None)
        assert setter(2) == 2
    finally:
        setter(start)


def test_one_blas_thread_from_many_threads_holds_one_until_the_last_leaves():
    # more threads than cores enter and leave overlapping bodies; a body
    # that reads any count but 1, or a count left changed after all have
    # left, is a lost update of the shared depth
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no openblas_set_num_threads_local in numpy's BLAS")
    seen = []

    def churn():
        for _ in range(300):
            with one_blas_thread():
                seen.append(setter(1))

    start = setter(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 * 300 and set(seen) == {1}
        assert setter(2) == 2
    finally:
        sys.setswitchinterval(interval)
        setter(start)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("n, threads", [(40, 3), (400, 8), (2, 4), (1, 2), (5, 1)])
def test_share_out_runs_each_i_once_with_each_state_on_one_thread(n, threads):
    # the states are the caller's; a thread that took a state keeps it, the
    # caller keeps states[0], and no more than len(states) threads, nor
    # more than n, ever run work. With more threads than cores and a short
    # switch interval, a lost update of the queue would run an i twice or
    # not at all
    states = [object() for _ in range(threads)]
    before = threading.active_count()
    taken = []

    def work(i, state):
        taken.append((i, threading.get_ident(), states.index(state)))
        # lets the other threads take their turns
        time.sleep(0.001)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        share_out(n, work, states)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(i for i, _, _ in taken) == list(range(n))
    owners = {}
    for _, ident, state in taken:
        owners.setdefault(state, set()).add(ident)
    assert all(len(idents) == 1 for idents in owners.values())
    assert len({next(iter(idents)) for idents in owners.values()}) == len(owners) <= min(n, threads)
    assert owners.get(0, {threading.get_ident()}) == {threading.get_ident()}
    assert threading.active_count() == before


def test_share_out_holds_blas_at_one_thread_on_every_thread():
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no openblas_set_num_threads_local in numpy's BLAS")
    # the setter returns the count it replaces, so setting 1 reads it
    seen = []

    def work(i, state):
        seen.append((threading.get_ident(), setter(1)))
        time.sleep(0.001)

    start = setter(2)
    try:
        share_out(20, work, [None, None])
        assert len(seen) == 20 and {count for _, count in seen} == {1}
        assert setter(2) == 2
    finally:
        setter(start)


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_share_out_error_on_either_thread_stops_the_queue(failing):
    # both threads take their first i at once; one raises. The error
    # reaches the caller, the other thread finishes its i and takes no
    # further one of the fifty, and no thread outlives the call
    caller = threading.get_ident()
    barrier, raised, taken = threading.Barrier(2, timeout=30), threading.Event(), []

    def work(i, state):
        me = threading.get_ident()
        if me not in taken:
            barrier.wait()
        taken.append(me)
        if (me == caller) == (failing == "caller"):
            raised.set()
            raise _Stop(f"work failed on the {failing} thread")
        assert raised.wait(30)
        # the failing thread stops the queue as its error leaves work, a
        # few frames after raised is set
        time.sleep(0.2)

    before = threading.active_count()
    with pytest.raises(_Stop, match=failing):
        share_out(50, work, [None, None])
    assert len(taken) == 2 and len(set(taken)) == 2
    assert threading.active_count() == before


def test_share_out_of_nothing_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    share_out(0, lambda i, state: pytest.fail("work ran"), [None, None, None])
    # one i runs on the calling thread alone
    taken = []
    share_out(1, lambda i, state: taken.append((i, threading.get_ident())), [None, None])
    assert taken == [(0, threading.get_ident())]


@pytest.mark.parametrize("failing", [None, "lead", "work"])
def test_share_out_lead_runs_on_the_caller_while_the_helper_takes_items(failing):
    # lead makes the rows one at a time on the calling thread and closes
    # the watermark however it ends; item i needs row i. The helper works
    # while lead runs. A failing lead releases the waiting item uncomputed
    # and its error reaches the caller; a failing item stops the queue,
    # lead still runs to its end, and the error reaches the caller
    n, caller, mark = 12, threading.get_ident(), Watermark()
    done, skipped, lead_ran = [], [], []

    def lead():
        try:
            for r in range(n):
                time.sleep(0.005)
                if failing == "lead" and r == 4:
                    raise _Stop("lead failed")
                mark.rise(r + 1)
            lead_ran.append(threading.get_ident())
        finally:
            mark.close()

    def work(i, state):
        if not mark.wait(i + 1):
            skipped.append(i)
            return
        if failing == "work" and i == 2:
            raise _Stop("work failed")
        done.append((i, threading.get_ident(), len(lead_ran)))

    before = threading.active_count()
    if failing is None:
        share_out(n, work, [None, None], lead)
        assert sorted(i for i, _, _ in done) == list(range(n))
        assert lead_ran == [caller]
        assert any(ident != caller and not ended for _, ident, ended in done)
    else:
        with pytest.raises(_Stop, match=failing):
            share_out(n, work, [None, None], lead)
        if failing == "lead":
            assert max(i for i, _, _ in done) < 4 and skipped and lead_ran == []
        else:
            assert lead_ran == [caller] and all(ident != caller for _, ident, _ in done)
    assert threading.active_count() == before


def test_watermark_wait_returns_once_the_rows_exist_or_it_is_closed():
    mark, seen = Watermark(3), []
    assert mark.wait(3)
    t = threading.Thread(target=lambda: seen.append(mark.wait(5)))
    t.start()
    mark.rise(4)
    t.join(0.05)
    assert t.is_alive() and seen == []
    mark.close()
    t.join(30)
    assert seen == [False] and mark.wait(4) and not mark.wait(5)
