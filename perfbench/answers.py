"""Closed-form answers for every procedure the benchmark runs.

Each formula was derived by hand from the procedure's definition (README and
the shipped `.proc` sources), for n children and a d-day week, with the event
"all children are boys". None of them is read from the program: the benchmark
checks the program against these, never against `scenarios.expected_answer`
or a recorded output.

Each procedure maps to three functions of (n, d, p): the posterior of the
canonical event given the canonical statement, the canonical statement's mass
under the pre-filtered prior, and the reject mass of `marginal`.
"""

from __future__ import annotations

from fractions import Fraction as F


def _all_boys(n: int) -> F:
    return F(1, 2**n)


def _mixed_with_boy(n: int) -> F:
    # at least one boy and at least one girl
    return 1 - 2 * _all_boys(n)


def _some_day(n: int, d: int) -> F:
    # at least one of n children born on a fixed day
    return 1 - (1 - F(1, d)) ** n


def _some_boy_on_day(n: int, d: int) -> F:
    return 1 - (1 - F(1, 2 * d)) ** n


def _day_centred(n: int, d: int) -> F:
    """P(all boys | some boy was born on the target day) = 2^-n(1-(1-1/d)^n) / (1-(1-1/2d)^n)."""
    return _all_boys(n) * _some_day(n, d) / _some_boy_on_day(n, d)


def _graded(a: F, b: F):
    """All-boy families speak with weight a(p), mixed families with weight
    b(p), all-girl families never: the any-answer construction."""

    def mass(n, d, p):
        a_, b_ = a(p), b(p)
        return a_ * _all_boys(n) + b_ * _mixed_with_boy(n)

    def post(n, d, p):
        return a(p) * _all_boys(n) / mass(n, d, p)

    return post, mass, lambda n, d, p: 1 - mass(n, d, p)


_ANY_BUILTIN = _graded(lambda p: p, lambda p: (1 - p) / 2)
_ANY_PROC = _graded(lambda p: F(13, 27), lambda p: F(7, 27))

# procedure -> (posterior, statement mass, reject mass), each a function of (n, d, p)
FORMULAS = {
    "classic-selection": (
        lambda n, d, p: F(1, 2**n - 1),
        lambda n, d, p: F(1),
        lambda n, d, p: F(0),
    ),
    "classic-coinflip": (
        lambda n, d, p: F(1, 2 ** (n - 1)),
        lambda n, d, p: F(1, 2),
        lambda n, d, p: F(0),
    ),
    "brag": (
        lambda n, d, p: F(0),
        lambda n, d, p: _mixed_with_boy(n),
        lambda n, d, p: _all_boys(n),
    ),
    "deemphasize": (
        lambda n, d, p: F(1),
        lambda n, d, p: _all_boys(n),
        lambda n, d, p: _all_boys(n),
    ),
    "gn-dn": (
        lambda n, d, p: F(1, 2 ** (n - 1)),
        lambda n, d, p: F(1, 2 * d),
        lambda n, d, p: F(0),
    ),
    "bc-dn": (
        lambda n, d, p: F(1, 2**n - 1),
        lambda n, d, p: F(1, d),
        lambda n, d, p: F(0),
    ),
    "bc-tc": (
        lambda n, d, p: _day_centred(n, d),
        lambda n, d, p: F(1),
        lambda n, d, p: F(0),
    ),
    "gn-tc": (
        lambda n, d, p: F(1, 2 ** (n - 1)),
        lambda n, d, p: F(1, 2),
        lambda n, d, p: F(0),
    ),
    "yesno": (
        lambda n, d, p: _day_centred(n, d),
        lambda n, d, p: _some_boy_on_day(n, d),
        lambda n, d, p: F(0),
    ),
    "any-answer": _ANY_BUILTIN,
    # the shipped any_answer.proc hard-codes the flips 13/27 and 7/27
    "any-answer.proc": _ANY_PROC,
    # perfbench/procs/nested_primes.proc: four nested prime-denominator flips
    # ahead of gn-dn's "pick c; say claim(sex(c))"; the flip weight cancels
    "nested-primes": (
        lambda n, d, p: F(1, 2 ** (n - 1)),
        None,
        None,
    ),
}


def posterior(proc: str, n: int, d: int, p: F = F(1, 2)) -> F:
    return FORMULAS[proc][0](n, d, p)


def statement_mass(proc: str, n: int, d: int, p: F = F(1, 2)) -> F:
    return FORMULAS[proc][1](n, d, p)


def reject_mass(proc: str, n: int, d: int, p: F = F(1, 2)) -> F:
    return FORMULAS[proc][2](n, d, p)


def week_formula(d: int) -> F:
    """bc-tc at n=2: (2d-1)/(4d-1)."""
    return F(2 * d - 1, 4 * d - 1)
