"""Structure coefficients: symmetric group characters, Littlewood-Richardson
coefficients, and Kronecker coefficients.

Characters follow the Murnaghan-Nakayama rule (Macdonald I.7) both ways.
A single entry chi^lam(rho) removes border strips from lam: it is the
sum, over the border strips xi of length rho_1 removable from lam, of
(-1)^height(xi) chi^{lam - xi} at (rho_2, rho_3, ...) (`mn_character`).
Those strips depend only on (lam, rho_1), not on the rest of rho, so
they are memoized apart from the characters, all but the strips of
length 1 (the removable corners), which are read off lam at each use.
A whole column, chi at one class rho over every shape of |rho|, adds
border strips instead, since p_r s_mu = sum of +-s_lam over the strips
lam/mu of length r: the column of rho is the column of rho minus its
first part with a strip of length rho_1 added to each shape in every
way (`character_column`).  The column is the one layout of the table:
degree n's whole table is the tuple of its columns (`character_table`),
and a row is read off it by position.  The two routes share no code, so
each checks the other.  LR coefficients are counted by direct
enumeration of lattice fillings, shared with the tableau module.
All functions are pure.  Only what a caller reads again is memoized: the
strips, characters and columns, which the walks above meet many times,
and the per-degree tables; `lr_coeff` and `kron_coeff` keep no memo, as
the catalog's split tables ask for each coefficient once.  Each miss of
a memo table is charged to the work meter (`_work`).
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
    directly rather than memoized: with rho = 1^n the walk meets each
    shape with one rest only, so such a memo would never be hit."""
    out = []
    for i, x in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < x:
            mu = lam[:i] + (x - 1,) + lam[i + 1:] if x > 1 else lam[:i]
            out.append((pt._intern(mu), 1))
    return out


# The characters computed so far: _CHARACTERS[lam, rho] is chi^lam(rho),
# for canonical partitions lam and rho of the same size, rho not empty.
_CHARACTERS = {}


def mn_character(lam, rho):
    """Character chi^lam(rho) of the symmetric group, both partitions of n.

    Strip a border strip of length rho_1 from lam in every possible way
    (`_strips`, or `_corners` for length 1), with sign (-1)^height, and
    sum the characters of what is left at (rho_2, rho_3, ...).  At the
    last part the strip is all of lam, which is a border strip exactly
    when lam is a hook, of height len(lam) - 1, so that step reads lam
    alone: a column over every shape of a large degree then memoizes no
    strips.  The arguments are validated once; the pairs (shape, suffix of
    rho) below them are interned canonical partitions, walked depth first
    on an explicit stack, so a rho of any length meets the work budget,
    not the recursion limit.  Each pair computed is memoized and charged.
    """
    lam = pt._canonical(lam)
    rho = pt._canonical(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: |{lam}| != |{rho}|")
    if not rho:
        return 1
    memo = _CHARACTERS
    # frames [pair, suffix of its rho, its strips left, partial sum, sign
    # of the pair below it]; the first frame sums lam at rho alone
    stack = [[None, rho, iter(((lam, 1),)), 0, 0]]
    value = 0
    while True:
        frame = stack[-1]
        pair, rest, strips, total, sign = frame
        total += sign * value
        for mu, sign in strips:
            key = (mu, rest)
            value = memo.get(key)
            if value is None:
                break
            total += sign * value
        else:
            stack.pop()
            if not stack:
                return total
            memo[pair] = value = total
            continue
        frame[3:] = total, sign
        # a new pair: a miss hashes and slices rho
        lam, rho = key
        _work.charge(1 + len(rho) // 8)
        rest = pt._intern(rho[1:])
        if rest:
            strips = _corners(lam) if rho[0] == 1 else _strips(lam, rho[0])
            stack.append([key, rest, iter(strips), 0, 0])
            value = 0
        else:
            value = memo[key] = (
                0 if len(lam) > 1 and lam[1] > 1 else (-1) ** (len(lam) - 1))


@cache
def _positions(n):
    """Partition of n -> its index in partitions_of(n)."""
    return {lam: i for i, lam in enumerate(pt.partitions_of(n))}


@cache
def _added_strips(mu, r):
    """The border strips of length r addable to mu, as pairs (index of mu
    plus the strip in partitions_of(|mu| + r), (-1)^height).

    On the beta-numbers of mu over l = len(mu) + r rows (zero rows
    included, which leaves room for a strip of r rows) a strip moves one
    b_i up by r to a free place.  It passes over one b_j for each row of
    the strip below its top row, so their number is its height."""
    ell = len(mu) + r
    _work.charge(1 + ell // 8)
    beta = [x + ell - 1 - i for i, x in enumerate(mu)]
    beta += range(r - 1, -1, -1)
    taken = set(beta)
    where = _positions(sum(mu) + r)
    out = []
    for i, b in enumerate(beta):
        nb = b + r
        if nb in taken:
            continue
        k = i
        while k and beta[k - 1] < nb:
            k -= 1
        new = beta[:k] + [nb] + beta[k:i] + beta[i + 1:]
        lam = tuple(x - (ell - 1 - j) for j, x in enumerate(new) if x > ell - 1 - j)
        out.append((where[lam], -1 if (i - k) % 2 else 1))
    return tuple(out)


# The columns built so far: _COLUMNS[rho] is the column of the class rho.
_COLUMNS = {}


def character_column(rho):
    """The characters chi^lam(rho) at the class rho, as a tuple over the
    shapes lam of partitions_of(|rho|).

    The column of rho is built from the column of rho minus its first
    part r over the shapes mu of |rho| - r: each mu adds every border strip
    of length r (`_added_strips`), each with its sign.  The suffixes of rho
    are built shortest first, in a loop, and every one is memoized; each
    new column charges its length before it is allocated.
    """
    rho = pt._canonical(rho)
    col = _COLUMNS.get(rho)
    if col is not None:
        return col
    col, m = (1,), 0
    for i in range(len(rho) - 1, -1, -1):
        r = rho[i]
        suffix = pt._intern(rho[i:])
        nxt = _COLUMNS.get(suffix)
        if nxt is None:
            size = len(pt.partitions_of(m + r))
            _work.charge(size)
            acc = [0] * size
            for mu, c in zip(pt.partitions_of(m), col):
                if c:
                    for pos, sign in _added_strips(mu, r):
                        acc[pos] += sign * c
            nxt = _COLUMNS[suffix] = tuple(acc)
        col, m = nxt, m + r
    return col


@cache
def character_table(n):
    """Degree n's character table as the tuple of the columns of the
    classes of partitions_of(n), in that order: entry [j][i] is
    chi^lam(rho) for the i-th shape lam and the j-th class rho."""
    classes = pt.partitions_of(n)
    _work.charge(len(classes))
    return tuple(map(character_column, classes))


@cache
def class_sizes(n):
    """n!/z_rho, the number of permutations of cycle type rho, as a tuple
    aligned with partitions_of(n)."""
    n_fact = factorial(n)
    parts = pt.partitions_of(n)
    _work.charge(3 * len(parts))
    return tuple(n_fact // pt.z_factor(rho) for rho in parts)


def lr_coeff(nu, lam, mu):
    """Littlewood-Richardson coefficient c^nu_{lam,mu}.

    Counts SSYT of shape nu/lam and content mu whose reverse reading word
    is a lattice permutation.  Zero when the sizes do not add up or when
    lam is not contained in nu.  Any spelling of a partition is accepted;
    an interned partition, such as those of `partitions_of`, is not
    validated again.
    """
    nu, lam, mu = map(pt._canonical, (nu, lam, mu))
    if sum(nu) != sum(lam) + sum(mu) or not pt.contains(lam, nu):
        return 0
    # deferred import: tableaux pulls in symfunc, which imports us
    from .tableaux import count_lr_fillings

    return count_lr_fillings(pt.SkewShape._trusted(nu, lam), mu)


def kron_coeff(lam, mu, nu):
    """Kronecker coefficient g_{lam,mu,nu} as a symmetric character sum.

    g = sum over classes rho of chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho,
    summed as integers times the class sizes n!/z_rho and divided by n!
    once; the sum is checked to be a nonnegative integer.  It reads each
    character from `mn_character` and sums class by class, while the
    Kronecker table of `symfunc` sums the columns of `character_table`,
    so the two routes check each other.  Any spelling of a partition is
    accepted; each is validated and interned once, so that `mn_character`
    does not validate it per class.
    """
    lam, mu, nu = (pt._intern(pt._canonical(x)) for x in (lam, mu, nu))
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
