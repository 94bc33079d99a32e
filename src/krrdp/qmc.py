"""Randomized quasi-Monte Carlo shocks: digitally shifted Sobol points through Φ⁻¹.

``sobol_shocks`` gives every continuation average in ``bellman`` its shocks:
the stage targets' inner averages, the x0 evaluation and the lower bound's
nested continuations. Each row of averages gets the same first Sobol points,
each row its own uniform random digital shift, so every row's average is
unbiased, rows are independent, and the shifts are the only draw from the
generator (Glasserman, Monte Carlo Methods in Financial Engineering, 2004,
sec. 5.4). A row's points are not independent of one another, so a row's
error is measured across independent shifts, not from its own spread.
Numpy only: ``scipy.stats`` and ``scipy.special`` stay out of the package.
"""

import functools

import numpy as np

# (primitive polynomial, initial direction integers m_1..m_s) of Sobol
# dimensions 2..21, Joe & Kuo's "new-joe-kuo-6.21201" set (SIAM J. Sci. Comput.
# 30, 2008), as scipy ships it in scipy/stats/_sobol_direction_numbers.npz.
# Dimension 1 is the van der Corput sequence, every m_j = 1.
_DIRECTIONS = (
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
)

# The largest asset count d a Sobol point set here has coordinates for.
MAX_DIM = len(_DIRECTIONS) + 1
BITS = 32
# Shock values written per block, so a block's integer and float temporaries
# are 128 KiB each, whatever the number of rows and points. On the call_d2
# row's lower bound, 2**16 raised peak RSS 1.4 MB more than 2**13 or 2**14,
# at the same median time.
SHOCK_BLOCK = 2**14

# Wichura's AS241 (Appl. Statist. 37, 1988) coefficients, highest power first:
# |u - 1/2| <= 0.425, then the tail with r = sqrt(-log(min(u, 1 - u))) <= 5,
# then r > 5. These are the standard library's NormalDist.inv_cdf's.
_CENTRAL = (
    (2.50908092873012267270e+3, 3.34305755835881281050e+4, 6.72657709270087008530e+4,
     4.59219539315498714570e+4, 1.37316937655094611250e+4, 1.97159095030655144270e+3,
     1.33141667891784377450e+2, 3.38713287279636660800e+0),
    (5.22649527885285456100e+3, 2.87290857357219426740e+4, 3.93078958000927106100e+4,
     2.12137943015865958670e+4, 5.39419602142475110770e+3, 6.87187007492057908300e+2,
     4.23133307016009112520e+1, 1.0),
)
_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _horner(coefs, r):
    acc = coefs[0] * r
    for c in coefs[1:-1]:
        acc += c
        acc *= r
    acc += coefs[-1]
    return acc


def _rational(coefs, r):
    return _horner(coefs[0], r) / _horner(coefs[1], r)


def normal_quantile(u):
    """Φ⁻¹(u) elementwise, for u strictly inside (0, 1), by AS241.

    The standard library's ``NormalDist().inv_cdf`` vectorized, with its
    evaluation order: AS241 is accurate to about 1e-16 relative. The central
    rational function is evaluated everywhere (its denominator has no zero on
    |u - 1/2| <= 1/2) and overwritten on the tails.
    """
    u = np.asarray(u, dtype=np.float64)
    q = u - 0.5
    r = 0.180625 - q * q
    x = _horner(_CENTRAL[0], r)
    x *= q
    x /= _horner(_CENTRAL[1], r)
    tail = np.flatnonzero(np.abs(q) > 0.425)  # indices: a boolean gather costs 4x more
    if tail.size:
        qt, ut = q.take(tail), u.take(tail)
        r = np.sqrt(-np.log(np.where(qt <= 0.0, ut, 1.0 - ut)))
        xt = _rational(_NEAR, r - 1.6)  # finite at any r: both polynomials are positive there
        far = r > 5.0
        if far.any():
            xt[far] = _rational(_FAR, r[far] - 5.0)
        np.put(x, tail, np.copysign(xt, qt))
    return x


def _directions(d):
    """(BITS, d) uint32: row b holds each dimension's direction number v_b = m_b 2^(31 - b)."""
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"Sobol points have at most {MAX_DIM} dimensions; got d = {d}")
    return _direction_table()[:, :d]


@functools.lru_cache(maxsize=None)
def _direction_table():
    columns = [[1] * BITS]
    for poly, init in _DIRECTIONS:
        s, m = len(init), list(init)
        for j in range(s, BITS):  # Bratley & Fox (ACM TOMS 14, 1988), sec. 2
            new = m[j - s] ^ (m[j - s] << s)
            for i in range(1, s):
                if poly >> (s - i) & 1:
                    new ^= m[j - i] << i
            m.append(new)
        columns.append(m)
    scale = np.arange(BITS - 1, -1, -1, dtype=np.uint64)[:, None]
    return (np.array(columns, dtype=np.uint64).T << scale).astype(np.uint32)


@functools.lru_cache(maxsize=8)
def sobol_points(count, d):
    """The first ``count`` points of the unscrambled d-dimensional Sobol sequence.

    A read-only (count, d) uint32 array of the points times 2^32, in the
    Gray-code order of ``scipy.stats.qmc.Sobol(d, scramble=False, bits=32)``:
    point i is the XOR of the direction numbers v_b of the bits b set in
    i ^ (i >> 1), so points [2^b, 2^(b+1)) are points [0, 2^b) XOR
    v_b ^ v_(b-1). Cached per (count, d).
    """
    V = _directions(d)
    P = np.zeros((count, d), dtype=np.uint32)
    filled, b = 1, 0
    while filled < count:
        take = min(filled, count - filled)
        np.bitwise_xor(P[:take], V[b] ^ V[b - 1] if b else V[0], out=P[filled:filled + take])
        filled, b = filled + take, b + 1
    P.flags.writeable = False
    return P


def _point(i, d):
    """Point i of the sequence as (d,) uint32: the XOR of v_b over the bits b of i ^ (i >> 1)."""
    gray = i ^ (i >> 1)
    return np.bitwise_xor.reduce(_directions(d)[[b for b in range(BITS) if gray >> b & 1]])


def sobol_shocks(rng, n, M, d):
    """One shock of each antithetic pair for n M-point averages: shape (n, ceil(M/2), d).

    Row i holds the first h = ceil(M/2) Sobol points p_j, each XORed with
    the row's shift s_i and mapped to z_ij = Φ⁻¹((p_j XOR s_i + 1/2) 2^-32).
    The (n, d) shifts are uniform 32-bit integers and the only draw from
    ``rng``. Each shifted point is uniform on the midpoints of the 2^32 cells
    of (0, 1), so each row's average is unbiased, and a power-of-two h keeps
    every coordinate's 2^k-point blocks stratified; another M is legal, only
    less balanced. The shocks are written in blocks of at most SHOCK_BLOCK
    values: whole rows while their h points fit, else runs of w points of one
    row, w a power of two. Run k is the cached first w points XOR point k w,
    since the Gray code, and so the point, of k w + i is that of k w XOR that
    of i for i < w. No array but the result grows with n M.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    h = (M + 1) // 2
    width = h if h * d <= SHOCK_BLOCK else 1 << (SHOCK_BLOCK // d).bit_length() - 1
    base = sobol_points(width, d)
    shift = rng.integers(0, 2**BITS, (n, d), dtype=np.uint64)
    Z = np.empty((n, h, d))
    rows = max(1, SHOCK_BLOCK // (width * d))
    for lo in range(0, h, width):
        points = base[:h - lo] ^ _point(lo, d) if lo else base
        for i in range(0, n, rows):
            u = np.add(points ^ shift[i:i + rows, None], 0.5)
            u *= 2.0**-BITS
            Z[i:i + rows, lo:lo + len(points)] = normal_quantile(u)
    return Z
