"""Weight capping and subset sampling for the variable-play learner.

The learner (``vpbandit.game.Exp3MVPLearner``) keeps one positive weight per
arm.  It caps the largest weights with ``cap_threshold`` so that no
selection marginal exceeds 1, and samples a subset of arms with exactly
those marginals by systematic sampling (``dep_round``; the name comes from dependent
rounding, which meets the same contract).

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
# subset sampling


def _checked(m, probs):
    p = np.asarray(probs, dtype=float)
    n = p.size
    if not 1 <= m < n:
        raise InvalidPlayCountError(f"m must satisfy 1 <= m < {n}, got {m}")
    if not abs(float(p.sum()) - m) <= MARGINAL_SUM_TOL:
        raise InvalidMarginalsError(f"marginals sum to {p.sum()!r}, expected {m}")
    if not np.all((p >= -MARGINAL_SUM_TOL) & (p <= 1.0 + MARGINAL_SUM_TOL)):
        raise InvalidMarginalsError("marginals must lie in [0, 1]")
    return p


def _systematic(m, p, u):
    """Arms hit by the points ``(u + k) * total / m``, k = 0..m-1.

    Arm i owns the interval [c[i-1], c[i]) of the cumulative marginals c,
    and the points are spread over the actual total c[-1], so float drift in
    the marginal sum cannot move them.  The last arm with mass also owns the
    total itself, where the top point lands when ``u + m - 1`` rounds up to
    m.  ``u`` is a scalar or a column of uniforms (one draw per row); a draw
    that is not m distinct arms raises, it is never repaired.
    """
    c = np.cumsum(p)
    total = c[-1]
    last = np.searchsorted(c, total)  # the last arm with a nonempty interval
    idx = np.searchsorted(c[:last], (u + np.arange(m)) * (total / m), side="right")
    if idx.shape[-1] != m or (idx[..., 1:] == idx[..., :-1]).any():
        raise InvalidMarginalsError(f"systematic sampling did not draw {m} distinct arms")
    return idx


def dep_round(m, probs, rng, validate=True):
    """Sample exactly ``m`` distinct arm indices with the given marginals.

    Systematic sampling (Madow 1949; Tille, Sampling Algorithms, 2006,
    ch. 7): one uniform ``u`` places m points a spacing of total / m apart,
    and each point picks the arm whose cumulative-marginal interval holds
    it.  ``probs`` must lie in [0, 1] and sum to ``m``, so no interval is
    longer than the spacing: the m arms are distinct, each lands in the
    output with probability exactly ``probs[i]``, an arm at 1 spans a whole
    spacing and is always included, and an arm at 0 has an empty interval
    and never is.  The draw uses exactly one double of ``rng`` and returns
    the indices in increasing order.

    ``validate=False`` skips the input checks for callers that constructed
    the marginals themselves (the learner's inner loop); the output check
    always runs.
    """
    p = _checked(m, probs) if validate else np.asarray(probs, dtype=float)
    return _systematic(m, p, rng.random())


def dep_round_many(m, probs, draws, rng):
    """``draws`` independent ``dep_round`` draws as a (draws, N) 0/1 matrix.

    One vectorized call that consumes ``rng`` exactly as ``draws``
    sequential calls would, so row k holds the k-th sequential draw.
    """
    p = _checked(m, probs)
    out = np.zeros((draws, p.size))
    np.put_along_axis(out, _systematic(m, p, rng.random((draws, 1))), 1.0, axis=1)
    return out
