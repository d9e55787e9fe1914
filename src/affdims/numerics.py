"""Log-sum-exp and least-squares line fits on numpy alone.

Both follow scipy's own arithmetic step by step (`scipy.special.logsumexp`
and the slope and stderr of `scipy.stats.linregress`, as of scipy 1.17),
so results are bitwise equal to scipy's while importing the package
loads no scipy module.

The log-sum-exp has one core, `_logsumexp_into`, which works in the
caller's buffers and overwrites them; the solver's level tables run it on
scratch they hold, so a level sum allocates nothing the size of a level.
`logsumexp` is that core on a copy of its input.
"""

import numpy as np


def logsumexp(a):
    """log(sum(exp(a))) of a nonempty array, without overflow; a is left
    unchanged.

    The maximum a_max and its m ties are split off: with s the sum of
    exp(a - a_max) over the other terms, divided by m unless it is 0, the
    result is log1p(s) + log(m) + a_max.  Where a_max is not finite (all
    terms -inf, an inf or a NaN) the direct log(sum(exp(a))) is returned.
    """
    a = np.array(a, dtype=np.float64)
    return _logsumexp_into(a, np.empty(a.shape, dtype=bool))


def _logsumexp_into(a, ties):
    """`logsumexp` of the float64 array a, overwriting a and ties.

    ties is a bool array of a's shape; it receives the maximum's ties.
    With a finite maximum the split form is always finite, so only a
    non-finite maximum takes the direct form, read from a before any
    write.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        if not np.isfinite(a_max):
            return float(np.log(np.exp(a, out=a).sum()))
        np.equal(a, a_max, out=ties)
        m = float(np.count_nonzero(ties))
        np.subtract(a, a_max, out=a)
        np.copyto(a, -np.inf, where=ties)
        s = np.exp(a, out=a).sum()
        if s != 0:
            s = s / m
        return float(np.log1p(s) + np.log(m) + a_max)


def _exp(x):
    """np.exp(x) as a float, inf with no warning past the float range."""
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def fit_line(x, y):
    """(slope, stderr of the slope) of the least-squares line of y on x.

    x must take at least two distinct values.  With n = 2 points the
    stderr is 0; otherwise it is sqrt((1 - r^2) * ssy / ssx / (n - 2)),
    with the correlation r clipped to [-1, 1] and NaN when y is constant.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    n = len(x)
    if n == 2:
        return float(slope), 0.0
    return float(slope), float(np.sqrt((1 - r**2) * ssym / ssxm / (n - 2)))
