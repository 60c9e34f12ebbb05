"""Property tests of the hard bounds of the analytic curves over small settings."""

from collections import Counter, OrderedDict
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from seqselect import analytics  # noqa: E402
from seqselect.analytics import (  # noqa: E402
    AnalyticParams,
    _regret_scans,
    mu_hat_curve,
    mu_hat_rows,
    optimal_cutoff,
    threshold_curve,
)
from seqselect.core import DomainError  # noqa: E402
from seqselect.policies import policy_spec  # noqa: E402
from tests import analytic_reference  # noqa: E402

TOL = 1e-12


@st.composite
def small_params(draw):
    b = draw(st.integers(1, 6))
    n = draw(st.integers(b, 40))
    r = draw(st.integers(0, b))
    c = draw(st.integers(0, n))
    return AnalyticParams(n=n, b=b, r=r, q=0.5, c=c)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_params())
def test_mu_hat_bounded_and_nondecreasing(params):
    try:
        mu = mu_hat_curve(params)
    except DomainError:  # the no-failure event is impossible
        assume(False)
    b = params.b
    assert mu.shape == (params.n,)
    assert mu.min() >= -TOL and mu.max() <= b + TOL
    assert np.all(np.diff(mu) >= -TOL)
    if params.r == b:
        assert abs(mu[-1] - b) <= 1e-9


@st.composite
def mixed_rows(draw):
    """(n, b, rows): rows of (r, q, c), r from 0 to b, cutoffs unsorted and
    often repeated, some rows repeated whole."""
    b = draw(st.integers(1, 6))
    n = draw(st.integers(b, 40))
    qs = st.one_of(st.sampled_from([1e-12, 0.5]), st.floats(0.0, 1.0, exclude_min=True,
                                                             exclude_max=True))
    cs = st.one_of(st.integers(0, n), st.just(n // 2))
    rows = draw(st.lists(st.tuples(st.integers(0, b), qs, cs), min_size=1, max_size=8))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return n, b, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mixed_rows())
def test_mu_hat_rows_are_the_one_row_curves(setting):
    n, b, rows = setting
    curves = []
    for r, q, c in rows:
        try:
            curves.append(mu_hat_curve(AnalyticParams(n=n, b=b, r=r, q=q, c=c)))
        except DomainError:
            with pytest.raises(DomainError):
                mu_hat_rows(n, b, *zip(*rows))
            return
    batch = mu_hat_rows(n, b, *zip(*rows))
    assert batch.shape == (len(rows), n)
    assert batch.tobytes() == np.stack(curves).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_params())
def test_curve_hires_within_positions(params):
    curve = threshold_curve(params)
    assert -TOL <= curve.e_hires <= params.b + TOL
    g_b = np.asarray(curve.g_b[params.c + 1 :])
    assert np.all((g_b >= 0.0) & (g_b <= 1.0))
    assert np.all(np.diff(np.asarray(curve.lam)) >= -TOL)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda b: st.tuples(
    st.integers(b, 40), st.just(b), st.one_of(st.just(b), st.integers(0, b)))))
def test_scan_is_the_curve_at_every_cutoff(setting):
    # the scan and the one-column call are one model, bit for bit, in both
    # regimes (r = b is drawn about half the time)
    n, b, r = setting
    scan = _regret_scans([(n, b, r)])[0]
    assert scan.shape == (n + 1,)
    for c in range(n + 1):
        curve = threshold_curve(AnalyticParams(n=n, b=b, r=r, q=0.5, c=c))
        assert scan[c] == curve.expected_regret(), c


@st.composite
def mixed_settings(draw):
    """(n, b, r) settings in no order, each with its own n and b, r from 0
    to b - 1 or r = b, some repeated."""
    def setting(b):
        return st.tuples(st.integers(b, 40), st.just(b),
                         st.one_of(st.just(b), st.integers(0, b - 1)))

    found = draw(st.lists(st.integers(1, 8).flatmap(setting), min_size=1, max_size=8))
    found += draw(st.lists(st.sampled_from(found), max_size=3))
    return draw(st.permutations(found))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mixed_settings())
def test_many_settings_scan_is_each_settings_scan(found):
    # one recursion pass over every setting's cutoffs gives each setting's
    # own scan, bit for bit
    scans = _regret_scans(found)
    assert len(scans) == len(found)
    for setting, scan in zip(found, scans):
        assert scan.tobytes() == _regret_scans([setting])[0].tobytes(), setting


# settings whose raw argmin, before CUTOFF_CORRECTION, is 0, 1 or 2: the
# solver then reads column 0
RAW_ARGMIN = {
    0: [(3, 2, 1), (12, 8, 0), (46, 30, 0), (40, 30, 1)],
    1: [(5, 2, 0), (6, 3, 2), (33, 30, 29), (30, 30, 6)],
    2: [(9, 6, 3), (10, 1, 0), (32, 30, 5), (35, 30, 29)],
}


@lru_cache(maxsize=None)
def reference_scan(n, b, r):
    return np.array(analytic_reference.scan(n, b, r))


def test_pinned_settings_have_their_argmins():
    for raw, found in RAW_ARGMIN.items():
        for n, b, r in found:
            assert r < b and np.argmin(reference_scan(n, b, r)) == raw, (n, b, r)


@st.composite
def solver_settings(draw):
    """Mixed (n, b, r) lists for the solver: settings with r < b or r = b,
    the pinned argmin cases, some repeated, in no order."""
    def setting(b):
        return st.tuples(st.integers(b, 48), st.just(b),
                         st.one_of(st.just(b), st.integers(0, b - 1)))

    pinned = st.sampled_from([s for found in RAW_ARGMIN.values() for s in found])
    found = draw(st.lists(st.one_of(st.integers(1, 12).flatmap(setting), pinned),
                          min_size=1, max_size=6))
    found += draw(st.lists(st.sampled_from(found), max_size=2))
    return draw(st.permutations(found))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(solver_settings())
def test_scans_are_the_reference(found):
    # every r < b learning phase's regret is the plain-float reference's
    for (n, b, r), scan in zip(found, _regret_scans(found)):
        if r < b:
            assert scan[: n - r + 1].tobytes() == reference_scan(n, b, r).tobytes(), (n, b, r)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(solver_settings())
def test_solver_is_the_reference(found):
    # the solver retires columns early, yet returns the full scan's cutoff
    # and regret: at r < b the reference's, at r = b the closed form's
    with mock.patch.object(analytics, "_solved", OrderedDict()), \
            mock.patch.object(analytics, "_lookups", Counter()):
        solved = analytics._optimal_cutoffs(found)
    for (n, b, r), (c_star, value) in zip(found, solved):
        if r < b:
            scan = reference_scan(n, b, r)
            want = max(int(np.argmin(scan)) - analytics.CUTOFF_CORRECTION, 0)
        else:
            scan = _regret_scans([(n, b, r)])[0]
            want = int(np.argmin(scan))
        assert (c_star, np.float64(value).tobytes()) == (want, scan[want].tobytes()), (n, b, r)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 25).flatmap(lambda b: st.tuples(
           st.integers(b, 119), st.just(b), st.integers(0, b - 1))),
       st.floats(0.01, 0.99, exclude_min=True, exclude_max=True), st.data())
def test_threshold_curve_steps_are_the_reference(setting, q, data):
    # at r < b, every step's gamma_j, p_j, lam_j and g_j(b) of the engine's
    # one-column pass is the plain-float reference's, at any quality
    n, b, r = setting
    c = data.draw(st.integers(0, n), label="c")
    curve = threshold_curve(AnalyticParams(n=n, b=b, r=r, q=q, c=c))
    ran = min(c, n - r)  # the learning phase that c runs
    steps, _, _ = analytic_reference.column(n, b, r, ran, q)
    zeros = [(0.0,) * 4] * (ran + 1)
    for got, want in zip((curve.gamma_j, curve.p, curve.lam, curve.g_b), zip(*zeros, *steps)):
        assert np.array(got).tobytes() == np.array(want).tobytes(), (n, b, r, q, c)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mixed_rows())
def test_mu_hat_rows_intensities_are_the_reference(setting):
    # the r < b rows share one pass, whatever their r, q and c; every step's
    # intensity lam_j that mu_hat_rows reads is the plain-float reference's
    n, b, rows = setting
    passes, seen = [], []
    recursion = analytics._recursion

    def spy(n_, b_, r, q, c, after_step, *rest):
        def both(s, gj, pj, lam_s, gjb):
            seen.append((s, lam_s.copy()))
            after_step(s, gj, pj, lam_s, gjb)

        passes.append(list(zip(c.tolist(), r.tolist(), q.tolist())))
        return recursion(n_, b_, r, q, c, both, *rest)

    with mock.patch.object(analytics, "_recursion", spy):
        try:
            mu_hat_rows(n, b, *zip(*rows))
        except DomainError:  # raised after the pass: a row's event is impossible
            pass
    # the learning phase that c runs, the rows in ascending order of it
    columns = sorted(((min(c, n - r), r, q) for r, q, c in rows if r < b), key=lambda x: x[0])
    assert passes == [columns]
    lams = [[lam for _, _, lam, _ in analytic_reference.column(n, b, r, c, q)[0]]
            for c, r, q in columns]
    assert [s for s, _ in seen] == list(range(max((n - c for c, _, _ in columns), default=0)))
    for s, got in seen:
        want = [lam[s] for lam in lams if s < len(lam)]
        assert got.tobytes() == np.array(want).tobytes(), (n, b, s)


def test_a_round_index_scans_its_cold_settings_in_one_pass(monkeypatch):
    monkeypatch.setattr(analytics, "_solved", OrderedDict())
    monkeypatch.setattr(analytics, "_lookups", Counter())
    columns = []
    recursion = analytics._recursion
    monkeypatch.setattr(analytics, "_recursion",
                        lambda n, b, r, q, c, *rest: columns.append(c.size)
                        or recursion(n, b, r, q, c, *rest))
    # similar settings (n_s, r): (40, 0), (40, 1), (57, 1), (40, 1) again,
    # (22, 2) and a degenerate one (q = 1), which scans nothing; a setting
    # scans its n_s - r + 1 learning phases
    r, q = [0, 1, 1, 1, 2, 0], [0.5, 0.5, 0.3, 0.5, 0.7, 1.0]
    first = policy_spec("csm", 40, 4, r, q)
    assert columns == [41 + 40 + 57 + 21]
    assert analytics.optimal_cutoff.cache_info()[:2] == (1, 4)  # hits, misses
    again = policy_spec("csm", 40, 4, r, q)
    assert columns == [159] and again.cutoff.tolist() == first.cutoff.tolist()
    assert analytics.optimal_cutoff.cache_info()[:2] == (1 + 5, 4)
    # only the settings not yet solved are scanned: (40, 0) is, (40, 3) is not
    policy_spec("csm", 40, 4, [0, 3], [0.5, 0.5])
    assert columns == [159, 38]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.integers(-3, 45), st.integers(0, 45))
def test_solver_rejects_settings_outside_the_domain(n, b, r):
    assume(r > b or b < 1 or b > n)
    with pytest.raises(DomainError):
        optimal_cutoff(n, b, r)
