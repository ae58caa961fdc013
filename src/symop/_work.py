"""A deterministic work meter.

The layers charge it where their work grows: every miss of a memo table,
every partition that an enumeration visits, every `tableaux._fill` call
and every filling it yields, each charge weighted so that one unit costs
about the same time everywhere.  A budget set by `set_budget(units)` is
spent by those charges, and the charge that overdraws it raises
WorkLimitExceeded, a ValueError, before the work it pays for is done.
The charges depend only on the inputs and on which memo entries are
already filled, so a cold process spends the same units on every run.
With no budget set, the default, a charge only tests one global.
"""

# units left in the current budget, and the budget itself; None for none
_left = None
_limit = None


class WorkLimitExceeded(ValueError):
    """The work of a computation overran its budget."""


def charge(units=1):
    """Spend units of the current budget, if one is set."""
    global _left
    if _left is not None:
        _left -= units
        if _left < 0:
            raise WorkLimitExceeded(
                f"the computation exceeds the work budget of {_limit} units"
            )


def set_budget(units):
    """Meter the computations that follow with a budget of units, or leave
    them unmetered when units is None."""
    global _left, _limit
    _left = _limit = units
