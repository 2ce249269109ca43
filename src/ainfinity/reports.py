"""Residual reports.

Checkers never raise on mathematical failure; they return the residual maps
so tests can assert exact zero and a failing run can point at the offending
basis tuple.
"""


class CheckReport:
    """Keyed collection of residual objects.  A residual answers
    `is_zero()`, `entry_count()` and `first_word()`: a `MultiMap`, a
    `CoalgebraOperator`, a nested report or a `BoolResidual`."""

    def __init__(self, name):
        self.name = name
        self.residuals = {}

    def add(self, key, residual):
        self.residuals[key] = residual

    @property
    def ok(self):
        return all(r.is_zero() for r in self.residuals.values())

    def is_zero(self):
        # reports nest: a report is itself a residual-like object
        return self.ok

    def failing(self):
        return sorted(k for k, r in self.residuals.items() if not r.is_zero())

    def entry_count(self, key=None):
        if key is None:
            return sum(self.entry_count(k) for k in self.residuals)
        return self.residuals[key].entry_count()

    def first_word(self):
        bad = self.failing()
        return bad[0] if bad else None

    def first_offender(self, key):
        return self.residuals[key].first_word()

    def renamed(self, name):
        """A report named `name` that shares this one's residuals."""
        report = CheckReport(name)
        report.residuals = self.residuals
        return report

    def lines(self):
        out = []
        for key in sorted(self.residuals):
            out.append("check.%s.%s.nonzero=%d" % (self.name, key, self.entry_count(key)))
        return out

    def detail_lines(self):
        out = []
        for key in self.failing():
            out.append("%s[%s]: %d nonzero entries, first offender %r"
                       % (self.name, key, self.entry_count(key), self.first_offender(key)))
        return out

    def __repr__(self):
        status = "ok" if self.ok else ("failing=%r" % self.failing())
        return "CheckReport(%s, %s)" % (self.name, status)


class BoolResidual:
    """Adapter so plain pass/fail facts can live in a CheckReport."""

    def __init__(self, passed, note=""):
        self.passed = passed
        self.note = note

    def is_zero(self):
        return self.passed

    def entry_count(self):
        return 0 if self.passed else 1

    def first_word(self):
        return self.note or None
