"""Log-sum-exp and least-squares line fits on numpy alone.

Both follow scipy's own arithmetic step by step (`scipy.special.logsumexp`
and the slope and stderr of `scipy.stats.linregress`, as of scipy 1.17),
so results are bitwise equal to scipy's while importing the package
loads no scipy module.
"""

import numpy as np


def logsumexp(a):
    """log(sum(exp(a))) of a nonempty 1-D array, without overflow.

    The maximum a_max and its m ties are split off: with s the sum of
    exp(a - a_max) over the other terms, divided by m unless it is 0, the
    result is log1p(s) + log(m) + a_max.  Where that is not finite (all
    terms -inf, an inf or a NaN) the direct log(sum(exp(a))) is returned.
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        ties = a == a_max
        m = ties.sum(dtype=np.float64)
        d = np.subtract(a, a_max)
        d[ties] = -np.inf
        s = np.exp(d, out=d).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


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
