"""Structure coefficients: symmetric group characters, Littlewood-Richardson
coefficients, and Kronecker coefficients.

Characters are computed by the Murnaghan-Nakayama border-strip recursion on
beta-numbers (first-column hook lengths).  LR coefficients are counted by
direct enumeration of lattice fillings, shared with the tableau module.
Everything is memoized; all functions are pure.
"""

from fractions import Fraction
from functools import cache

from . import partitions as pt


@cache
def mn_character(lam, rho):
    """Character chi^lam(rho) of the symmetric group, both partitions of n.

    Recursion: strip a border strip of length rho_1 from lam in every
    possible way; the sign is (-1)^height.
    """
    lam = pt.make_partition(lam)
    rho = pt.make_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: |{lam}| != |{rho}|")
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted(beta[:i] + beta[i + 1 :] + [nb], reverse=True)
        newlam = tuple(
            newbeta[j] - (ell - 1 - j) for j in range(ell) if newbeta[j] > ell - 1 - j
        )
        total += (-1) ** height * mn_character(newlam, rest)
    return total


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

    g = sum over classes rho of chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho.
    The sum is checked to be a nonnegative integer.
    """
    lam = pt.make_partition(lam)
    mu = pt.make_partition(mu)
    nu = pt.make_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("kron_coeff needs three partitions of the same size")
    total = Fraction(0)
    for rho in pt.partitions_of(n):
        c = mn_character(lam, rho)
        if not c:
            continue
        total += Fraction(
            c * mn_character(mu, rho) * mn_character(nu, rho), pt.z_factor(rho)
        )
    if total.denominator != 1 or total < 0:
        raise ValueError(f"non-integral character sum for {lam},{mu},{nu}: {total}")
    return int(total)
