"""Weight capping and subset sampling for the variable-play learner.

The learner (``vpbandit.game.Exp3MVPLearner``) keeps one positive weight per
arm.  It caps the largest weights with ``cap_threshold`` so that no
selection marginal exceeds 1, and samples a subset of arms with exactly
those marginals by systematic sampling (``dep_round``; the name comes from dependent
rounding, which meets the same contract).

The module draws no random numbers: the sampler takes its one uniform as an
argument, and the caller draws it from its own generator.
"""

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

from .errors import InvalidConfigError, NumericPathologyError

MARGINAL_SUM_TOL = 1e-9


# ---------------------------------------------------------------------------
# weight capping


def cap_threshold(weights, target):
    """Find the cap value kappa.

    kappa solves  kappa / (sum_capped kappa + sum_rest w_i) = target,
    where the capped set is {i : w_i >= kappa}.  Scans cap-set sizes in
    decreasing weight order and accepts the unique consistent size m, the
    one with exactly m weights at or above kappa, so the capped arms are
    ``weights >= kappa``.

    One ascending sort ``s`` and its running sums ``acc`` give both: the
    m-th largest weight is ``s[n - m]`` and the sum of all but the m
    largest is ``acc[n - 1 - m]``, the same doubles, added in the same
    order, as a descending sort's reversed cumulative sum.  A list, such
    as the learner's weights up to ``SMALL_PLAN_ARMS`` arms, must hold
    Python floats; it is sorted by ``sorted`` and summed by
    ``itertools.accumulate``, since numpy's fixed cost per call would
    dominate a few numbers.  Anything else is read as a float64 array,
    sorted and summed by numpy, and only the entries the scan can read
    become Python floats.  On positive finite weights both forms scan the
    same doubles, so they return the same kappa bits and raise alike.
    """
    if not (0.0 < target < 1.0):
        raise InvalidConfigError(f"target must be in (0, 1), got {target}")
    n = len(weights)
    # the scan stops before m * target >= 1, so it never reads a cap size past top
    top = n if 1.0 / target >= n else math.ceil(1.0 / target)
    if isinstance(weights, list):
        s = sorted(weights)
        acc = list(accumulate(s))
    else:
        a = np.array(weights, dtype=float)
        a.sort()
        lo = max(n - 1 - top, 0)  # the scan reads no entry below lo
        s = a[lo:].tolist()
        acc = np.add.accumulate(a)[lo:].tolist()
        n -= lo
    for m in range(1, top + 1):
        if m * target >= 1.0:
            break
        # at m = n every weight is capped: no rest sum, no weight below kappa
        kappa = target * (acc[n - 1 - m] if m < n else 0.0) / (1.0 - m * target)
        if s[n - m] >= kappa > (s[n - 1 - m] if m < n else -math.inf):
            return kappa
    raise NumericPathologyError(
        "no consistent cap size found; check the capping precondition and weights"
    )


# ---------------------------------------------------------------------------
# subset sampling


def _checked(m, probs):
    p = np.asarray(probs, dtype=float)
    n = p.size
    if not 1 <= m < n:
        raise InvalidConfigError(f"m must satisfy 1 <= m < {n}, got {m}")
    if not abs(float(p.sum()) - m) <= MARGINAL_SUM_TOL:
        raise InvalidConfigError(f"marginals sum to {p.sum()!r}, expected {m}")
    if not np.all((p >= -MARGINAL_SUM_TOL) & (p <= 1.0 + MARGINAL_SUM_TOL)):
        raise InvalidConfigError("marginals must lie in [0, 1]")
    return p


def dep_round(m, probs, u, cumulative=None, capped=()):
    """Sample exactly ``m`` distinct arm indices with the given marginals.

    Systematic sampling (Madow 1949; Tille, Sampling Algorithms, 2006,
    ch. 7).  The k arms at exactly 1.0 are certainty units, taken outright
    (Tille, ch. 7; Cochran, Sampling Techniques, 1977, ch. 9A).  One uniform
    ``u`` in [0, 1) places the other m - k points a spacing of total /
    (m - k) apart on the running sums of the marginals with the certainty
    arms counted as 0, and each point picks the arm whose interval holds
    it.  ``probs`` must lie in [0, 1] and sum to ``m``, so no interval is
    longer than the spacing: the arms are distinct, each lands in the output
    with probability exactly ``probs[i]`` when ``u`` is uniform, and an arm
    at 0 has an empty interval and never is.  On every arm's running sums an
    arm at 1.0 would span a whole spacing, and rounding could put a point on
    its boundary and draw it twice or not at all; away from such boundaries
    the two rules draw the same arms.  The caller draws ``u``; the draw is a
    function of it alone.  Returns the indices as a list of ints in
    increasing order.

    Arm i owns the interval [c[i-1], c[i]) of the running sums c, and the
    points are spread over the actual total c[-1], so float drift in the
    marginal sum cannot move them.  The last arm with mass also owns the
    total itself, where the top point lands when ``u + m - k - 1`` rounds
    up to m - k.  ``c`` is nondecreasing, so each bisection finds the index
    that ``searchsorted`` would.  A draw that is not distinct arms raises;
    it is never repaired.

    Without ``cumulative``, the inputs are checked: ``u`` must lie in
    [0, 1) and ``probs`` as above, or ``InvalidConfigError`` is raised.
    ``cumulative`` is those running sums, or any sequence of the same
    doubles, such as the learner's cached plan (a tuple of floats or a
    read-only memoryview), and ``capped`` the arms at 1.0 in increasing
    order, passed by a caller that built and checked the marginals itself;
    the input checks and the sums are then skipped.  The output check
    always runs.
    """
    if cumulative is None:
        if not 0.0 <= u < 1.0:
            raise InvalidConfigError(f"u must be in [0, 1), got {u!r}")
        p = _checked(m, probs)
        sure = p == 1.0
        capped = sure.nonzero()[0].tolist()
        cumulative = memoryview(np.where(sure, 0.0, p).cumsum())
    c = cumulative
    rest = m - len(capped)  # the points to place
    drawn = []
    if rest:
        n = len(c)
        total = c[n - 1]
        step = total / rest
        for j in range(rest):
            drawn.append(bisect_right(c, (u + j) * step))
        if drawn[-1] == n:  # the top point is on or past the total
            last = bisect_left(c, total)  # the last arm with a nonempty interval
            drawn = [bisect_right(c, (u + j) * step, 0, last) for j in range(rest)]
        if len(set(drawn)) != rest:
            raise NumericPathologyError(f"systematic sampling did not draw {rest} distinct arms")
    if capped:
        drawn += capped
        drawn.sort()
    return drawn
