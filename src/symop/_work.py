"""A deterministic work meter.

The layers charge it where their work grows: every miss of a memo table,
every partition that an enumeration visits, every `tableaux._fill` call
and filling, the pairs of terms that a power or a step of an operator
word multiplies out, the dense entries of a truncated matrix, and the
image terms and row eliminations of a rank, each charge weighted so that
one unit costs about the same time everywhere.  A budget set by
`set_budget(units)` is spent by those charges, and the charge that
overdraws it raises WorkLimitExceeded, a ValueError, before the work it
pays for is done.  The rule for a charge is to come before anything
that an input integer sizes is allocated, so that a huge size is refused
by the budget instead of failing in the allocation; the cap tuple of a
family of partitions of size n, the one-column factor of e_k, every
reading order of a skew shape (`tableaux._order`) and each character
column follow it.  Where the
work after the allocation is sure to charge at least its size anyway,
`require` refuses the same computations without spending.
The charges depend only on the inputs and on which memo entries are
already filled, so a cold process spends the same units on every run.  With no budget set, the default, a charge only tests one
global, and a charge that takes work to size is skipped (`metered`).
"""

# units left in the current budget, and the budget itself; None for none
_left = None
_limit = None


class WorkLimitExceeded(ValueError):
    """The work of a computation overran its budget."""


def _exceeded():
    return WorkLimitExceeded(
        f"the computation exceeds the work budget of {_limit} units"
    )


def charge(units=1):
    """Spend units of the current budget, if one is set."""
    global _left
    if _left is not None:
        _left -= units
        if _left < 0:
            raise _exceeded()


def require(units):
    """Refuse, as `charge` does, when fewer than units are left in the
    current budget, without spending them."""
    if _left is not None and _left < units:
        raise _exceeded()


def metered():
    """Whether a budget is set, for work that is only worth counting then."""
    return _left is not None


def set_budget(units):
    """Meter the computations that follow with a budget of units, or leave
    them unmetered when units is None."""
    global _left, _limit
    _left = _limit = units
