"""Closed-form quantities for the cutoff policy under medium reference quality.

The per-step recursion tracks the expected rank-based acceptance threshold
gamma_j, acceptance probabilities p_j = (gamma_j - 1)/(n + b), and the Poisson
survival factors g_j(x) = P(accepted count before step j < x).  From these it
builds the expected number of hires and the expected regret, whose argmin over
the cutoff is the optimal learning-phase length.

With every referent resigned (r = b) the policy never leaves its learned
threshold, so the hire count has an exact law (beta-binomial) and the curve is
built from it instead of the recursion.

Quality enters only through gamma_0, the expected rank of the worst referent;
settings of arbitrary quality are handled by translating to a gamma_0-similar
setting with medium quality (resolve_cutoff).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import betaln, gammainc, gammaincc, gammaln, xlogy

from seqselect.core import (
    ContractError,
    DomainError,
    check_quality,
    check_setting,
    learning_cutoff,
)

#: steps subtracted from the raw argmin of the recursion (r < b only).  It is
#: calibrated, not derived: it makes the recursion reproduce the source cutoffs
#: of the worked examples, 9 at (31, 15, 0) (the published quality-0.8
#: translation, 31 -> 9 -> 22) and 19 at (48, 5, 0) (behind c* = 38 at
#: q = 0.75).  The simulated optima there are 9 and 16.  The r = b curve has
#: its own count law and is used as is.
CUTOFF_CORRECTION = 2


def gamma0(q: float, n: int, b: int) -> float:
    """Expected rank of the worst referent for reference quality q."""
    return (1.0 - q) * 2.0 * b * (n + b - 1) / (b + 1) + 2.0 * b / (b + 1)


def expected_available_rank(l: int, q, n: int, b: int, r):
    """Expected rank of the l-th best available referent (1 <= l <= b - r),
    elementwise over q and r."""
    if not np.all((1 <= l) & (l <= np.subtract(b, r))):
        raise DomainError(f"need 1 <= l <= b - r, got l={l}, b={b}, r={r}")
    return gamma0(q, n, b) * (b + 1) * l / (b * (b - r + 1))


def expected_offline(n: int, b: int, r: int, q: float) -> float:
    """Expected minimal rank sum achievable by the offline oracle."""
    g0 = gamma0(q, n, b)
    return b * (b + 1) / 2.0 + r * b * b * (g0 + r) / (2.0 * g0 * g0)


def g_fn(count, lam):
    """P(Poisson(lam) < count), extended to real count, elementwise.

    Equals the Poisson CDF sum e^-lam * sum_{i<count} lam^i / i! at integer
    count; the regularized upper incomplete gamma function provides the smooth
    extension in between.  Gives 0 where count <= 0 (gammaincc(0, 0) is nan).
    """
    if not np.asarray(lam).min(initial=0.0) >= 0:  # nan fails too
        raise DomainError("lam must be nonnegative")
    # count 1 stands in elsewhere; the product zeroes it
    pos = np.greater(count, 0)
    return gammaincc(np.where(pos, count, 1), lam) * pos


def _g_due(count, lam, s):
    """g_fn under the recursion's branch rule: 1 while count exceeds the s
    steps completed since the cutoff."""
    return np.where(np.greater(count, s), 1.0, g_fn(count, lam))


def _poisson_pmf(k, lam):
    """P(Poisson(lam) = k) by scipy.stats.poisson's own expression, elementwise."""
    return np.exp(xlogy(k, lam) - gammaln(k + 1) - lam)


@dataclass(frozen=True)
class AnalyticParams:
    n: int
    b: int
    r: int
    q: float
    c: int

    def __post_init__(self):
        check_setting(self.n, self.b, self.r)
        learning_cutoff(self.n, self.r, self.c)
        check_quality(self.q)


@dataclass(frozen=True)
class AnalyticCurve:
    """Per-step closed forms for one (n, b, r, q, c) setting.

    Arrays are indexed by step j = 1..n (index 0 unused); entries for j <= c'
    are zero, where c' is the learning phase that c runs (no acceptance
    during it).  lam[j] is the cumulative acceptance intensity through step
    j.  referent_term is the rank cost of the positions no above-threshold
    candidate fills: kept referents when r < b, fill-forced candidates when
    r = b.
    """

    params: AnalyticParams
    gamma: float
    gamma_j: tuple
    p: tuple
    lam: tuple
    g_b: tuple
    e_hires: float
    e_offline: float
    candidate_term: float
    referent_term: float

    @property
    def lam_n(self) -> float:
        return self.lam[-1]

    def expected_regret(self) -> float:
        """Expected regret of the cutoff policy on the rank-sum scale
        (candidate term scaled by 1/(n+b), referent term and offline
        subtraction unscaled)."""
        return self.candidate_term + self.referent_term - self.e_offline


def threshold_curve(params: AnalyticParams) -> AnalyticCurve:
    """Forward recursion for the expected threshold rank and regret.

    For j = c'+1..n, with c' the learning phase that c runs, the threshold
    mixes the learning-phase rank gamma = b(b+n)/(b+c') (while fewer than
    Delta = r + E[n_rej] candidates are in) with the available-referent rank
    ladder; p_j = (gamma_j - 1)/(n+b) and the g factors come from g_fn with
    the step-index branch rule (value 1 while the count argument exceeds the
    number of completed selection steps).  At r = b the policy never
    switches, and _full_resignation replaces the recursion.  This is the
    one-column call of the functions _regret_scan runs over every cutoff.
    """
    n, b, r, q = params.n, params.b, params.r, params.q
    c = learning_cutoff(n, r, params.c)
    gam = b * (b + n) / (b + c)
    if r == b:
        e_hires, cand, ref = _full_resignation(n, b, c)
        m = n - c
        p_acc = b / (b + c + 1)
        low, _ = _threshold_count_law(b, c, m)
        columns = (gam, p_acc, p_acc * np.arange(1, m + 1), np.minimum(low[:m].sum(axis=1), 1.0))
    else:
        steps = []
        (e_hires,), (cand,), (ref,) = _recursion(
            n, b, r, q, np.array([c]), lambda s, *step: steps.append(np.concatenate(step)))
        columns = np.array(steps).reshape(-1, 4).T

    def per_step(values) -> tuple:
        arr = np.zeros(n + 1)
        arr[c + 1 :] = values
        return tuple(arr.tolist())

    gamma_j, p, lam, g_b = map(per_step, columns)
    return AnalyticCurve(
        params=params,
        gamma=gam,
        gamma_j=gamma_j,
        p=p,
        lam=lam,
        g_b=g_b,
        e_hires=float(e_hires),
        e_offline=expected_offline(n, b, r, q),
        candidate_term=float(cand),
        referent_term=float(ref),
    )


def _recursion(n: int, b: int, r, q, c, after_step=None):
    """The r < b recursion of threshold_curve over an array c of cutoffs in
    ascending order, one column each; r and q are numbers or one per column.

    The loop counts s, the steps completed since the cutoff (step
    j = c + 1 + s).  A column runs while c + s < n, so the live columns are
    a prefix: each step rebinds the state to that prefix view, and its
    in-place += writes through to the full per-column arrays.
    after_step(s, gamma_j, p_j, lam_j, g_j(b)), when given, sees each step's
    values over the live prefix.  Returns (e_hires, candidate_term,
    referent_term), elementwise over c.
    """
    gam = b * (b + n) / (b + c)
    delta = r + c * (gam - 1.0) / (n + b)
    ref_coef = expected_available_rank(1, q, n, b, r) + np.zeros(len(c))
    lam, hired, cand = (np.zeros(len(c)) for _ in range(3))
    totals = hired, cand
    for s in range(n - c.min(initial=n)):
        live = slice(np.searchsorted(c, n - s))
        gam, delta, coef, lam, hired, cand = (
            x[live] for x in (gam, delta, ref_coef, lam, hired, cand))
        gjb = _g_due(b, lam, s) if s >= b else np.ones(lam.size)  # spares gammaincc at s < b
        gjd = _g_due(delta, lam, s)
        gj = np.maximum(gam * gjd + coef * np.maximum(b - hired, 0.0) * (1.0 - gjd), 1.0)
        pj = (gj - 1.0) / (n + b)
        cand += gjb * gj * (gj - 1.0) / 2.0
        hired += pj * gjb  # sum of p_i g_i(b), i <= j
        lam += pj
        if after_step is not None:
            after_step(s, gj, pj, lam, gjb)
    hired, cand = totals
    e_hires = np.minimum(hired, b)  # the summed intensity can overshoot the cap
    referent = ref_coef / 2.0 * (b - e_hires) * (b + 1 - e_hires)
    return e_hires, cand / (n + b), referent


def _count_pmf(b: int, c, s):
    """P(K_s = i) for i = 0..b-1 along a last axis, elementwise over the
    cutoff c and the step count s (see _threshold_count_law)."""
    i = np.arange(b)
    rest = np.maximum(s - i, 0)
    log_low = (
        gammaln(s + 1) - gammaln(i + 1) - gammaln(rest + 1)
        + betaln(i + b, rest + c + 1) - betaln(b, c + 1)
    )
    return np.where(i <= s, np.exp(log_low), 0.0)


def _threshold_count_law(b: int, c: int, m: int):
    """Law of K_s, the number of the first s later candidates that beat y_b.

    At medium quality y_b is the b-th best of b + c i.i.d. uniform scores, so
    1 - y_b ~ Beta(b, c + 1) and K_s is beta-binomial(s, b, c + 1): given
    K_s = i, the next candidate beats y_b with chance (b + i)/(b + c + 1 + s).
    Returns (low, high) for s = 0..m: low[s, i] = P(K_s = i) for i < b and
    high[s] = P(K_s >= b).  No entry is a difference, so small probabilities
    keep their relative accuracy.
    """
    low = _count_pmf(b, c, np.arange(m + 1)[:, None])
    up = (2 * b - 1) / (b + c + 1.0 + np.arange(m))  # at i = b - 1
    high = np.concatenate(([0.0], np.cumsum(low[:-1, -1] * up)))
    return low, high


def _full_resignation(n: int, b: int, c):
    """(e_hires, candidate_term, referent_term) at r = b, elementwise over the
    policy's learning phase c <= n - b, where the cutoff policy never switches.

    A threshold is needed only while l < b hires are in, and the switch to a
    referent threshold needs l >= n_rej + r >= b, so y_b is the threshold to
    the end.  Each of the m = n - c later candidates beats y_b with
    probability b/(b + c + 1), and K, the number that do, has the law of
    _threshold_count_law; only its last row, P(K_m = k) for k < b, enters.  A
    run accepts min(K, b) of them and fills the (b - K)^+ other positions
    with fill-forced candidates below y_b.  Given K, an accepted candidate
    has expected rank (b + K)/2 and a forced one 1 + b + K + (n - K - 1)/2.
    The hire count and the forced-fill term are exact; the candidate term
    takes the accepted rank at E[K], as the recursion takes it at the
    expected threshold rank.  That choice is a calibration: the exact
    K-conditional rank puts the argmin of (48, 5, 5) at 13, off the anchor 14.
    """
    m = n - c
    p_acc = b / (b + c + 1)
    k = np.arange(b)
    # (b - K)^+ P(K = k); zero for k >= b
    short_pmf = (b - k) * _count_pmf(b, np.asarray(c)[..., None], np.asarray(m)[..., None])
    e_hires = b - short_pmf.sum(axis=-1)
    referent = (short_pmf * (1.0 + b + k + (n - k - 1) / 2.0)).sum(axis=-1)
    return e_hires, e_hires * (b + m * p_acc) / 2.0, referent


def expected_max_hires(curve: AnalyticCurve) -> float:
    """E[max(final hires, r)] under the Poisson hire-count model.

    The Poisson(lam_n) mass above b is lumped at b, matching the b-position
    cap; the max with r reflects the fill constraint (with r = b this is
    exactly b).
    """
    b, r = curve.params.b, curve.params.r
    lam_n = curve.lam_n
    ks = np.arange(b)
    pmf = _poisson_pmf(ks, lam_n)
    return float((np.maximum(ks, r) * pmf).sum() + max(b, r) * (1.0 - pmf.sum()))


def _regret_scan(n: int, b: int, r: int) -> np.ndarray:
    """Expected regret over every cutoff c in [0, n] at medium quality, one
    array pass over the learning phases they run (core.learning_cutoff)."""
    check_setting(n, b, r)
    runs = learning_cutoff(n, r, np.arange(n + 1))
    c = np.arange(runs[-1] + 1)
    e_hires, cand, ref = _full_resignation(n, b, c) if r == b else _recursion(n, b, r, 0.5, c)
    regret = cand + ref - expected_offline(n, b, r, 0.5)
    return regret[runs]


@lru_cache(maxsize=100_000)
def optimal_cutoff(n: int, b: int, r: int) -> tuple:
    """Optimal learning-phase length at medium quality and its expected regret.

    Scans c in {0..n} exhaustively (ties toward smaller c).  For r < b the
    recursion's argmin is moved down by CUTOFF_CORRECTION; the r = b argmin is
    used as is.  Other qualities go through resolve_cutoff.
    """
    vals = _regret_scan(n, b, r)
    raw = int(np.argmin(vals))
    c_star = raw if r == b else max(raw - CUTOFF_CORRECTION, 0)
    return c_star, float(vals[c_star])


@dataclass(frozen=True)
class TranslationResult:
    n_source: int
    c_source: int
    c_target: int
    degenerate: bool = False


def resolve_cutoff(n: int, b: int, r: int, q: float) -> TranslationResult:
    """The cutoff policy's cutoff at reference quality q, via the
    gamma_0-similar medium-quality setting.

    The similar setting has n_s = floor((n + b - 1)(1 - q)/(1 - 1/2) - b + 1),
    which matches gamma_0 exactly; its optimal cutoff is scaled back by the
    same similarity factor (n + b - 1)/(n_s + b - 1) and floored.  At q = 1/2
    this is the identity: n_s = n and the factor is 1.  Every q is accepted:
    q below 1e-9 (a reference set at the bottom of the pool) is read as 1e-9,
    and q >= 1 gives n_s < b, a degenerate similar setting whose cutoff is 0
    (the reference set already beats the field).
    """
    n_s = math.floor((n + b - 1) * (1.0 - max(q, 1e-9)) / 0.5 - b + 1)
    if n_s < b:
        return TranslationResult(n_source=n_s, c_source=0, c_target=0, degenerate=True)
    c_s = optimal_cutoff(n_s, b, r)[0]
    c_t = math.floor(c_s * (n + b - 1) / (n_s + b - 1))
    return TranslationResult(n_source=n_s, c_source=c_s, c_target=min(c_t, n))


def translate_cutoff(n_t: int, b: int, q_t: float, r: int) -> TranslationResult:
    """resolve_cutoff for a setting inside the model's domain (0 < q_t < 1),
    with a warning when the similar setting is degenerate."""
    check_quality(q_t)
    check_setting(n_t, b, r)
    res = resolve_cutoff(n_t, b, r, q_t)
    if res.degenerate:
        warnings.warn(
            f"degenerate similar setting (n_s={res.n_source} < b={b}); returning cutoff 0",
            stacklevel=2,
        )
    return res


def mu_hat_curve(params: AnalyticParams) -> np.ndarray:
    """Expected accepted-candidate count per step given no failure occurs.

    mu_hat[j-1] = E[min(N_j, b) | no failure] for j = 1..n, where N_j counts
    the candidates that beat the threshold by step j.  Until r hires are in,
    the threshold is y_b and only fill-forced hires fall below it, so a run is
    failure-free exactly when N_n >= r.  Hence

        mu_hat_j = sum_{i < b} i P(N_j = i) P(N_n >= r | N_j = i)
                   + b P(N_j >= b),  divided by P(N_n >= r).

    With r = b, N is the count of _threshold_count_law, P(N_n >= b | N_j = i)
    follows its urn backwards, and the curve is exact with mu_hat_n = b.  With
    r < b, N_j is Poisson with the intensity lam_j of the recursion; at
    r = 0 the event is sure and mu_hat_j = E[min(N_j, b)].  Like
    threshold_curve it runs at the learning phase that c runs.  Raises
    DomainError when the event has probability zero; ContractError when the
    result leaves [0, b] or decreases.
    """
    return mu_hat_rows(params.n, params.b, [params.r], [params.q], [params.c])[0]


def mu_hat_rows(n: int, b: int, r, q, c) -> np.ndarray:
    """mu_hat_curve of the settings (n, b, r[t], q[t], c[t]), one per row of
    a (len(c), n) array.  The r < b rows share one pass of _recursion, their
    columns sorted by cutoff; the r = b rows follow the count law one at a
    time.  Raises as mu_hat_curve would on any of the rows.
    """
    for row in zip(r, q, c):
        AnalyticParams(n, b, *row)
    r, q = np.asarray(r, dtype=int), np.asarray(q, dtype=float)
    c = learning_cutoff(n, r, np.asarray(c, dtype=int))
    num, p_ok = np.zeros((len(c), n)), np.ones(len(c))
    i = np.arange(b)
    # P(K_m >= b | K_s = i) depends on the u = m - s steps left alone, as the
    # chance (b + i)/(b + c + 1 + s) is (b + i)/(b + n + 1 - u); 0 at u = 0
    left = np.zeros((n + 1 - c[r == b].min(initial=n), b))
    for u in range(1, len(left)):
        up = (b + i) / (b + n + 1.0 - u)
        left[u] = up * np.append(left[u - 1, 1:], 1.0) + (1.0 - up) * left[u - 1]
    for t in np.flatnonzero(r == b):
        m = n - c[t]
        low, high = _threshold_count_law(b, c[t], m)
        p_ok[t] = left[m, 0]
        num[t, c[t]:] = ((i * low * left[m::-1]).sum(axis=1) + b * high)[1:]
    rows = np.flatnonzero(r < b)
    rows = rows[np.argsort(c[rows], kind="stable")]  # _recursion's column order
    lam = np.zeros((rows.size, n))

    def keep(s, gj, pj, lam_s, gjb):
        lam[np.arange(lam_s.size), c[rows[: lam_s.size]] + s] = lam_s

    _recursion(n, b, r[rows], q[rows], c[rows], keep)
    lam_n = lam[:, -1]
    need = (r[rows, None] - i)[:, None, :]  # further hires that N_n >= r still needs
    reach = np.where(
        need > 0, gammainc(np.maximum(need, 1), (lam_n[:, None] - lam)[..., None]), 1.0)
    p_ok[rows] = np.where(r[rows] > 0, gammainc(r[rows], lam_n), 1.0)
    low = _poisson_pmf(i, lam[..., None])
    num[rows] = (i * low * reach).sum(axis=-1) + b * gammainc(b, lam)
    if np.any((r > 0) & (p_ok <= 1e-12)):
        raise DomainError("conditioning event has probability zero")
    out = num / p_ok[:, None]
    tol = 1e-9 * b
    if np.any((out < -tol) | (out > b + tol)) or np.any(np.diff(out) < -tol):
        raise ContractError("mu_hat left [0, b] or decreased")
    return out


def cutoff_table(n_values, b_values, r_values) -> list:
    """The cutoff table at medium quality: (n, b, r, c_star, expected_regret)
    for each (n, b, r) of the grid with r <= b <= n, and DomainError when
    there is none."""
    if any(b < 1 for b in b_values):
        raise DomainError(f"b values must be >= 1, got {tuple(b_values)}")
    grid = [(n, b, r) for n in n_values for b in b_values for r in r_values if r <= b <= n]
    if not grid:
        raise DomainError("the (n, b, r) grid has no point with r <= b <= n")
    return [(n, b, r, *optimal_cutoff(n, b, r)) for n, b, r in grid]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyze command prints for one setting."""

    n: int
    b: int
    r: int
    q: float
    gamma_0: float
    e_offline: float
    c_star: int
    gamma_at_c: float
    e_hires: float
    e_regret: float
    e_regret_per_item: float
    n_source: int
    c_source: int
    cutoff_given: bool = False


def analyze_setting(n: int, b: int, r: int, q: float, c: Optional[int] = None) -> AnalysisReport:
    """Optimal cutoff plus the closed-form summary for one setting.

    Every quality goes through the gamma_0-similar translation, which is the
    identity at medium quality.  The regret summary is the similar source
    curve at its own optimum, or at min(c, n_source) for a given c.  The hire
    forecast is the source curve at cutoff min(c_star, n_source), where
    c_star is the target's cutoff (c_target, or the given c) taken as a
    source cutoff without rescaling.  It describes the source setting, not
    the target's expected hire count; the two agree at medium quality.  A
    degenerate similar setting forecasts r hires and zero regret.
    """
    if c is not None:
        learning_cutoff(n, r, c)
    tr = translate_cutoff(n, b, q, r)
    n_src = tr.n_source
    c_star = tr.c_target if c is None else c
    c_src = tr.c_source if c is None or tr.degenerate else min(c, n_src)
    if tr.degenerate:  # nothing to learn from, referents decide
        e_hires = float(r)
        e_reg = 0.0
        gamma_at_c = float(b)
    else:
        reg_curve = threshold_curve(AnalyticParams(n=n_src, b=b, r=r, q=0.5, c=c_src))
        hire_curve = threshold_curve(
            AnalyticParams(n=n_src, b=b, r=r, q=0.5, c=min(c_star, n_src))
        )
        e_hires = expected_max_hires(hire_curve)
        e_reg = reg_curve.expected_regret()
        gamma_at_c = hire_curve.gamma
    return AnalysisReport(
        n=n, b=b, r=r, q=q,
        gamma_0=gamma0(q, n, b),
        e_offline=expected_offline(n, b, r, q),
        c_star=c_star,
        gamma_at_c=gamma_at_c,
        e_hires=e_hires,
        e_regret=e_reg,
        e_regret_per_item=e_reg / b,
        n_source=n_src,
        c_source=c_src,
        cutoff_given=c is not None,
    )
