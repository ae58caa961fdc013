"""Verification reports shared by the identity suite and the tableau checks."""

from dataclasses import dataclass, field
from typing import Any


def _json_value(x):
    """x as JSON data: tuples and lists become lists, dicts get str keys,
    and a Fraction or any other non-JSON value becomes its string."""
    if isinstance(x, dict):
        return {str(k): _json_value(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_json_value(v) for v in x]
    if x is None or isinstance(x, (str, int, float)):
        return x
    return str(x)


@dataclass
class Failure:
    """One concrete counterexample: the parameters and both sides."""

    params: dict
    lhs: Any
    rhs: Any

    def describe(self):
        txt = f"params={self.params}: lhs = {self.lhs}; rhs = {self.rhs}"
        try:
            diff = self.lhs - self.rhs
            txt += f"; diff = {diff}"
        except TypeError:
            pass
        return txt


@dataclass
class VerificationReport:
    identity: str
    params: Any
    instances: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        if self.passed:
            return (
                f"{self.identity}: PASS "
                f"({self.instances} checks, {self.elapsed:.2f}s)"
            )
        lines = [
            f"{self.identity}: FAIL "
            f"({len(self.failures)} of {self.instances} checks failed)"
        ]
        for fail in self.failures[:3]:
            lines.append("  " + fail.describe())
        return "\n".join(lines)

    def to_json(self):
        return {
            "identity": self.identity,
            "params": _json_value(self.params),
            "instances": self.instances,
            "passed": self.passed,
            "failures": [f.describe() for f in self.failures],
            "elapsed": self.elapsed,
        }
