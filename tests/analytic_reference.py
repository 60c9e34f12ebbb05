"""An independent reference for the r < b regret recursion.

One cutoff column at a time, in plain Python floats, written from
threshold_curve's documented law rather than from the array engine: the
learning-phase rank gamma, Delta = r + c (gamma - 1)/(n + b), the referent
coefficient (the expected rank of the best available referent), and per step
the two g factors under the step-index branch rule, gamma_j, p_j and the
candidate, hire and referent terms.  The per-step values are given at any
quality, the regret at medium quality.  Each operation is done in the
engine's order, so the two agree bit for bit; scipy's scalar gammaincc is
the only library call.
"""

from scipy.special import gammaincc

Q = 0.5  # medium quality: the scan's and the solver's


def gamma0(q: float, n: int, b: int) -> float:
    """Expected rank of the worst referent at quality q."""
    return (1.0 - q) * 2.0 * b * (n + b - 1) / (b + 1) + 2.0 * b / (b + 1)


def offline(n: int, b: int, r: int) -> float:
    """The offline oracle's expected rank sum (expected_offline)."""
    g0 = gamma0(Q, n, b)
    return b * (b + 1) / 2.0 + r * b * b * (g0 + r) / (2.0 * g0 * g0)


def g(count: float, s: int, lam: float) -> float:
    """P(Poisson(lam) < count) under the branch rule: 1 while count exceeds
    the s steps completed since the cutoff, 0 for a count <= 0."""
    if count > s:
        return 1.0
    if count <= 0:
        return 0.0
    return float(gammaincc(count, lam))


def referent_coefficient(n: int, b: int, r: int, q: float) -> float:
    """The expected rank of the best available referent at quality q."""
    return gamma0(q, n, b) * (b + 1) * 1 / (b * (b - r + 1))


def column(n: int, b: int, r: int, c: int, q: float = Q) -> tuple:
    """The recursion of learning phase c <= n - r at quality q: one
    (gamma_j, p_j, lam_j, g_j(b)) per step j = c + 1..n, lam_j the intensity
    through step j, and the final (hired, candidate sum)."""
    assert 0 <= r < b <= n and 0 <= c <= n - r
    gam = b * (b + n) / (b + c)
    delta = r + c * (gam - 1.0) / (n + b)
    ref_coef = referent_coefficient(n, b, r, q)
    lam = hired = cand = 0.0
    steps = []
    for s in range(n - c):
        gb, gd = g(b, s, lam), g(delta, s, lam)
        gj = max(gam * gd + ref_coef * max(b - hired, 0.0) * (1.0 - gd), 1.0)
        pj = (gj - 1.0) / (n + b)
        cand += gb * gj * (gj - 1.0) / 2.0
        hired += pj * gb
        lam += pj
        steps.append((gj, pj, lam, gb))
    return steps, hired, cand


def regret(n: int, b: int, r: int, c: int) -> float:
    """Expected regret of the cutoff policy at learning phase c <= n - r."""
    _, hired, cand = column(n, b, r, c)
    ref_coef = referent_coefficient(n, b, r, Q)
    e_hires = min(hired, b)
    referent = ref_coef / 2.0 * (b - e_hires) * (b + 1 - e_hires)
    return cand / (n + b) + referent - offline(n, b, r)


def scan(n: int, b: int, r: int) -> list:
    """regret at every learning phase c in [0, n - r]."""
    return [regret(n, b, r, c) for c in range(n - r + 1)]
