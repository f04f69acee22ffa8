"""Weight capping and subset sampling for the variable-play learner.

The learner (``vpbandit.game.Exp3MVPLearner``) keeps one positive weight per
arm.  It caps the largest weights with ``cap_threshold`` so that no
selection marginal exceeds 1, and samples a subset of arms with exactly
those marginals by dependent rounding (``dep_round``).

All randomness comes from an explicitly passed ``numpy.random.Generator``;
there is no global RNG use anywhere in this module.
"""

import math

import numpy as np

from .errors import (
    InvalidMarginalsError,
    InvalidPlayCountError,
    InvalidTargetError,
    NumericPathologyError,
)

MARGINAL_SUM_TOL = 1e-9

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional speedup
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def deco(f):
            return f

        return deco if not (args and callable(args[0])) else args[0]


# ---------------------------------------------------------------------------
# weight capping


def cap_threshold(weights, target):
    """Find the cap value kappa and the set of arms at or above it.

    kappa solves  kappa / (sum_capped kappa + sum_rest w_i) = target,
    where the capped set is {i : w_i >= kappa}.  Scans cap-set sizes in
    decreasing weight order and accepts the unique consistent size.

    Returns ``(kappa, capped_indices)`` with indices into the original order.
    """
    if not (0.0 < target < 1.0):
        raise InvalidTargetError(f"target must be in (0, 1), got {target}")
    w = np.asarray(weights, dtype=float)
    order = np.argsort(-w, kind="stable")
    ws = w[order]
    n = ws.size
    # suffix[m] = sum of ws[m:]
    suffix = np.concatenate([np.cumsum(ws[::-1])[::-1], [0.0]])
    for m in range(1, n + 1):
        if m * target >= 1.0:
            break
        kappa = target * suffix[m] / (1.0 - m * target)
        below = ws[m] if m < n else -math.inf
        if ws[m - 1] >= kappa > below:
            capped = np.sort(order[:m])
            return kappa, capped
    raise NumericPathologyError(
        "no consistent cap size found; check the capping precondition and weights"
    )


# ---------------------------------------------------------------------------
# dependent rounding

_SNAP = 1e-11


@njit(cache=True)
def _next_fractional(p, start):
    i = start
    while i < p.shape[0] and (p[i] <= 0.0 or p[i] >= 1.0):
        i += 1
    return i


@njit(cache=True)
def _depround_kernel(p, u):
    """Pair-fixing loop; mutates p to a 0/1 vector with the same sum."""
    n = p.shape[0]
    for k in range(n):
        if p[k] < _SNAP:
            p[k] = 0.0
        elif p[k] > 1.0 - _SNAP:
            p[k] = 1.0
    i = _next_fractional(p, 0)
    j = _next_fractional(p, i + 1) if i < n else n
    k = 0
    while i < n and j < n and k < u.shape[0]:
        rho = min(1.0 - p[i], p[j])
        zeta = min(p[i], 1.0 - p[j])
        if u[k] * (rho + zeta) < zeta:
            p[i] += rho
            p[j] -= rho
        else:
            p[i] -= zeta
            p[j] += zeta
        k += 1
        if p[i] < _SNAP:
            p[i] = 0.0
        elif p[i] > 1.0 - _SNAP:
            p[i] = 1.0
        if p[j] < _SNAP:
            p[j] = 0.0
        elif p[j] > 1.0 - _SNAP:
            p[j] = 1.0
        i_frac = 0.0 < p[i] < 1.0
        j_frac = 0.0 < p[j] < 1.0
        if i_frac and j_frac:
            continue  # numerically possible only in pathological cases
        if i_frac:
            j = _next_fractional(p, j + 1)
        elif j_frac:
            i = j
            j = _next_fractional(p, j + 1)
        else:
            i = _next_fractional(p, j + 1)
            j = _next_fractional(p, i + 1) if i < n else n
    # at most one fractional entry can survive (floating-point drift); round it
    for k in range(n):
        if 0.0 < p[k] < 1.0:
            p[k] = 1.0 if p[k] >= 0.5 else 0.0


def dep_round(m, probs, rng, validate=True):
    """Sample exactly ``m`` distinct arm indices with the given marginals.

    ``probs`` must lie in [0, 1] and sum to ``m``.  Each arm lands in the
    output with probability exactly ``probs[i]``; arms at 1 are always
    included and arms at 0 never.  Pairs are always the two lowest-indexed
    fractional entries, so the draw is a deterministic function of the
    supplied generator.

    ``validate=False`` skips the input checks for callers that constructed
    the marginals themselves (the learner's inner loop).
    """
    p = np.array(probs, dtype=float)
    n = p.size
    if validate:
        if m >= n:
            raise InvalidPlayCountError(f"m must be < {n}, got {m}")
        if abs(float(p.sum()) - m) > MARGINAL_SUM_TOL:
            raise InvalidMarginalsError(f"marginals sum to {p.sum()!r}, expected {m}")
        if np.any(p < -MARGINAL_SUM_TOL) or np.any(p > 1.0 + MARGINAL_SUM_TOL):
            raise InvalidMarginalsError("marginals must lie in [0, 1]")
    _depround_kernel(p, rng.random(n - 1))
    out = np.flatnonzero(p == 1.0)
    if out.size != m:
        raise InvalidMarginalsError(
            f"dependent rounding produced {out.size} arms instead of {m}"
        )
    return out


def dep_round_many(m, probs, draws, rng):
    """Repeated ``dep_round`` draws as a (draws, N) 0/1 matrix.

    Runs the same pair-fixing kernel on a batch of uniform rows, consuming
    randomness exactly as ``draws`` sequential calls would.
    """
    p = np.asarray(probs, dtype=float)
    if abs(float(p.sum()) - m) > MARGINAL_SUM_TOL:
        raise InvalidMarginalsError(f"marginals sum to {p.sum()!r}, expected {m}")
    u = rng.random((draws, p.size - 1))
    out = np.empty((draws, p.size))
    _depround_batch(p, u, out)
    counts = out.sum(axis=1)
    if np.any(counts != m):
        raise InvalidMarginalsError("dependent rounding produced a wrong-size set")
    return out


@njit(cache=True)
def _depround_batch(p, u, out):
    for r in range(u.shape[0]):
        row = p.copy()
        _depround_kernel(row, u[r])
        out[r] = row
