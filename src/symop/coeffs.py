"""Structure coefficients: symmetric group characters, Littlewood-Richardson
coefficients, and Kronecker coefficients.

Characters are computed one entry at a time by the Murnaghan-Nakayama
rule (Macdonald I.7): chi^lam(rho) is the sum, over the border strips xi
of length rho_1 removable from lam, of (-1)^height(xi) chi^{lam - xi}
at (rho_2, rho_3, ...).  Those strips depend only on (lam, rho_1), not
on the rest of rho, so they are memoized apart from the characters, all
but the strips of length 1 (the removable corners), which are read off
lam at each use.  LR coefficients are
counted by direct enumeration of lattice fillings, shared with the
tableau module.  Everything is memoized; all functions are pure.  Each
miss of a memo table is charged to the work meter (`_work`).
"""

from fractions import Fraction
from functools import cache
from math import factorial

from . import _work
from . import partitions as pt


@cache
def _strips(lam, r):
    """The border strips of length r removable from lam, as pairs (lam
    minus the strip, (-1)^height).

    On the beta-numbers b_i = lam_i + l - 1 - i (l = len(lam), strictly
    decreasing) a strip moves one b_i down by r to a free place.  It
    passes over one b_j for each row of the strip below its top row, so
    their number is its height."""
    ell = len(lam)
    _work.charge(1 + ell // 8)
    beta = [x + ell - 1 - i for i, x in enumerate(lam)]
    free = set(beta)
    out = []
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in free:
            continue
        j = i + 1
        while j < ell and beta[j] > nb:
            j += 1
        new = beta[:i] + beta[i + 1:j] + [nb] + beta[j:]
        mu = tuple(x - (ell - 1 - k) for k, x in enumerate(new) if x > ell - 1 - k)
        out.append((pt._intern(mu), -1 if (j - 1 - i) % 2 else 1))
    return tuple(out)


def _corners(lam):
    """The border strips of length 1 removable from lam, its removable
    corners, in the form of `_strips`; all of height 0.  Read off lam
    directly rather than memoized: with rho = 1^n the recursion meets each
    shape with one rest only, so such a memo would never be hit."""
    out = []
    for i, x in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < x:
            mu = lam[:i] + (x - 1,) + lam[i + 1:] if x > 1 else lam[:i]
            out.append((pt._intern(mu), 1))
    return out


@cache
def mn_character(lam, rho):
    """Character chi^lam(rho) of the symmetric group, both partitions of n.

    Recursion: strip a border strip of length rho_1 from lam in every
    possible way (`_strips`, or `_corners` for length 1); the sign is
    (-1)^height.  At the last part the strip is all of lam, which is a
    border strip exactly when lam is a hook, of height len(lam) - 1, so
    that step reads lam alone: a column over every shape of a large degree
    then memoizes no strips.  The recursion passes interned canonical
    partitions, which skip validation.
    """
    lam = pt._canonical(lam)
    rho = pt._canonical(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: |{lam}| != |{rho}|")
    if not rho:
        return 1
    # a miss hashes and slices rho
    _work.charge(1 + len(rho) // 8)
    r, rest = rho[0], pt._intern(rho[1:])
    if not rest:
        if len(lam) > 1 and lam[1] > 1:
            return 0
        return -1 if len(lam) % 2 == 0 else 1
    strips = _corners(lam) if r == 1 else _strips(lam, r)
    return sum(sign * mn_character(mu, rest) for mu, sign in strips)


@cache
def class_sizes(n):
    """n!/z_rho, the number of permutations of cycle type rho, as a tuple
    aligned with partitions_of(n)."""
    n_fact = factorial(n)
    parts = pt.partitions_of(n)
    _work.charge(3 * len(parts))
    return tuple(n_fact // pt.z_factor(rho) for rho in parts)


_LR_CACHE = {}


def lr_coeff(nu, lam, mu):
    """Littlewood-Richardson coefficient c^nu_{lam,mu}.

    Counts SSYT of shape nu/lam and content mu whose reverse reading word
    is a lattice permutation.  Zero when the sizes do not add up or when
    lam is not contained in nu.
    """
    # Only canonical keys are stored, so a hit needs no validation; on a
    # miss, or an unhashable argument such as a list, validate and retry.
    key = (nu, lam, mu)
    try:
        hit = _LR_CACHE.get(key)
    except TypeError:
        hit = None
    if hit is None:
        key = tuple(map(pt.make_partition, key))
        hit = _LR_CACHE.get(key)
    if hit is not None:
        return hit
    nu, lam, mu = key
    if sum(nu) != sum(lam) + sum(mu) or not pt.contains(lam, nu):
        val = 0
    else:
        # deferred import: tableaux pulls in symfunc, which imports us
        from .tableaux import count_lr_fillings

        val = count_lr_fillings(pt.SkewShape(nu, lam), mu)
    _LR_CACHE[key] = val
    return val


@cache
def kron_coeff(lam, mu, nu):
    """Kronecker coefficient g_{lam,mu,nu} as a symmetric character sum.

    g = sum over classes rho of chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho,
    summed as integers times the class sizes n!/z_rho and divided by n!
    once; the sum is checked to be a nonnegative integer.  It reads each
    character from `mn_character` and sums class by class, apart from the
    dense character rows whose dot products the Kronecker table of
    `symfunc` takes, so the two routes check each other's sums.
    """
    lam = pt.make_partition(lam)
    mu = pt.make_partition(mu)
    nu = pt.make_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("kron_coeff needs three partitions of the same size")
    classes = pt.partitions_of(n)
    _work.charge(len(classes))
    total = 0
    for rho, size in zip(classes, class_sizes(n)):
        c = mn_character(lam, rho)
        if c:
            total += c * mn_character(mu, rho) * mn_character(nu, rho) * size
    g, rem = divmod(total, factorial(n))
    if rem or g < 0:
        raise ValueError(f"non-integral character sum for {lam},{mu},{nu}: "
                         f"{Fraction(total, factorial(n))}")
    return g
