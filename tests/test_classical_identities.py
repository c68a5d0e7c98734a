"""Classical identities at random signed-monomial parameters, engine against engine.

Each draw takes one identity of Gasper & Rahman, *Basic Hypergeometric
Series* (2nd ed., 2004), with base Q = q^k for a drawn step k = 1-3, at
parameters ±q^e drawn so that every parameter either side names is a
monomial with a nonnegative exponent, or zero:

* the q-binomial theorem (1.3.2): 2phi1(a, 0; 0; Q, z) = (az; Q)_inf / (z; Q)_inf;
* Heine's transformations (1.4.1), (1.4.5) and (1.4.6), each 2phi1 against a
  product times another 2phi1;
* the q-Gauss sum (1.5.1): 2phi1(a, b; c; Q, c/ab) = (c/a, c/b; Q)_inf / (c, c/ab; Q)_inf;
* the Jacobi triple product (1.6.1) at its two theta series,
  1 + 2 sum (±1)^n q^(n^2) = (q^2; q^2)_inf (∓q; q^2)_inf^2.

The 2phi1 sides take `phi21`'s hand loop, the products one exponent vector
(`recipes` folds a `Mul` of `Poch`s), and the theta series is `Theta`'s own
list, compared with the product both on the vector and as lone
`poch_infinite` products multiplied as series.  So each comparison crosses
two evaluators, at orders drawn from 300-400, where a slot width, a top
exponent or the sign of a large integer can go wrong unseen at the naive
oracles' n = 24.

Heine's last transformation keeps c as a 2phi1 denominator parameter on
both sides, so its draws may take c = -q^0, which puts the non-unit 2 in a
denominator: such a draw must raise `SeriesError` on every side, and is
counted and listed, never dropped.  Any other draw must give equal series.

Tier-1 checks 12 draws of each 2phi1 identity at orders 300-400 and both
theta series at the squares 324, 361 and 400.  Run as a script,
``PYTHONPATH=src python tests/test_classical_identities.py DRAWS LOW HIGH
SEED`` checks DRAWS draws of each 2phi1 identity at orders LOW-HIGH and the
theta series at each square there, lists each draw that raises, and exits 1
on any difference.
"""

import math
import random
import sys
import time
from typing import Callable, NamedTuple

from qplab.qengine import Parameter, Poch, poch_infinite
from qplab.recipes import Mul, Phi21, Pow, Theta, evaluate
from qplab.series import SeriesError

ZERO = Parameter.zero()


class Draw(NamedTuple):
    text: str
    sides: tuple[tuple[str, Callable], ...]  # (route, the series through the draw's order)
    non_unit: bool  # a denominator holds -q^0, so every side must raise


def monomial(rng: random.Random, least: int, most: int) -> Parameter:
    return Parameter.monomial(rng.randint(least, most), rng.choice((-1, 1)))


def times(p: Parameter, r: Parameter) -> Parameter:
    return ZERO if p.is_zero or r.is_zero else Parameter(p.sign * r.sign, p.exponent + r.exponent)


def over(p: Parameter, r: Parameter) -> Parameter:
    """p / r for a nonzero r; the draws keep the exponent nonnegative."""
    return ZERO if p.is_zero else Parameter(p.sign * r.sign, p.exponent - r.exponent)


def products(step: int, numerator, denominator) -> tuple:
    """The factors prod (p; Q)_inf over the numerator / prod (p; Q)_inf over the denominator."""
    return (*(Poch(p, step) for p in numerator), *(Pow(Poch(p, step), -1) for p in denominator))


def engine_sides(lhs, rhs, order: int) -> tuple:
    return (("2phi1", lambda: evaluate(lhs, order)), ("product", lambda: evaluate(rhs, order)))


def q_binomial(rng, k, order) -> Draw:
    a = ZERO if rng.random() < 0.2 else monomial(rng, 0, 6)
    z = monomial(rng, 1, 6)
    lhs = Phi21(a, ZERO, ZERO, k, z)
    rhs = Mul(products(k, [times(a, z)], [z]))
    return Draw(f"q-binomial a={a!r} z={z!r}", engine_sides(lhs, rhs, order), False)


def heine_1(rng, k, order) -> Draw:
    # (b, az; Q)_inf / (c, z; Q)_inf * 2phi1(c/b, z; az; Q, b), with c = 0 or c/b = r
    a = ZERO if rng.random() < 0.2 else monomial(rng, 0, 5)
    b, z = monomial(rng, 1, 5), monomial(rng, 1, 5)
    c = ZERO if rng.random() < 0.2 else times(b, monomial(rng, 0, 4))
    lhs = Phi21(a, b, c, k, z)
    az = times(a, z)
    rhs = Mul((*products(k, [b, az], [c, z]), Phi21(over(c, b), z, az, k, b)))
    return Draw(f"heine-1 a={a!r} b={b!r} c={c!r} z={z!r}", engine_sides(lhs, rhs, order), False)


def heine_2(rng, k, order) -> Draw:
    # (c/b, bz; Q)_inf / (c, z; Q)_inf * 2phi1(abz/c, b; bz; Q, c/b), with c/b = r
    b, r, z = monomial(rng, 0, 5), monomial(rng, 1, 4), monomial(rng, 1, 5)
    c = times(b, r)
    # abz/c = az/r needs a's exponent at least r's less z's
    a = ZERO if rng.random() < 0.2 else monomial(rng, max(0, r.exponent - z.exponent), 6)
    lhs = Phi21(a, b, c, k, z)
    bz = times(b, z)
    rhs = Mul((*products(k, [r, bz], [c, z]), Phi21(over(times(a, z), r), b, bz, k, r)))
    return Draw(f"heine-2 a={a!r} b={b!r} c={c!r} z={z!r}", engine_sides(lhs, rhs, order), False)


def heine_3(rng, k, order) -> Draw:
    # (abz/c; Q)_inf / (z; Q)_inf * 2phi1(c/a, c/b; c; Q, abz/c)
    c = monomial(rng, 0, 5)
    if c == Parameter.monomial(0):  # (q^0; Q)_n vanishes, and phi21 refuses it
        c = Parameter.monomial(0, -1)
    a, b = monomial(rng, 0, c.exponent), monomial(rng, 0, c.exponent)
    least = max(1, c.exponent - a.exponent - b.exponent + 1)
    z = monomial(rng, least, least + 4)
    lhs = Phi21(a, b, c, k, z)
    w = over(times(times(a, b), z), c)
    rhs = Mul((*products(k, [w], [z]), Phi21(over(c, a), over(c, b), c, k, w)))
    non_unit = c == Parameter.monomial(0, -1)
    return Draw(f"heine-3 a={a!r} b={b!r} c={c!r} z={z!r}", engine_sides(lhs, rhs, order), non_unit)


def q_gauss(rng, k, order) -> Draw:
    a, b = monomial(rng, 0, 4), monomial(rng, 0, 4)
    c = monomial(rng, a.exponent + b.exponent + 1, a.exponent + b.exponent + 6)
    z = over(c, times(a, b))
    lhs = Phi21(a, b, c, k, z)
    rhs = Mul(products(k, [over(c, a), over(c, b)], [c, z]))
    return Draw(f"q-gauss a={a!r} b={b!r} c={c!r}", engine_sides(lhs, rhs, order), False)


IDENTITIES = (q_binomial, heine_1, heine_2, heine_3, q_gauss)


def jacobi(alternating: bool, order: int) -> Draw:
    odd = Parameter.monomial(1, 1 if alternating else -1)
    even = Parameter.monomial(2)
    rhs = Mul(products(2, [even, odd, odd], []))

    def kernels():
        odd_part = poch_infinite(odd, 2, order)
        return poch_infinite(even, 2, order) * odd_part * odd_part

    sides = (
        ("theta", lambda: evaluate(Theta(alternating), order)),
        ("product", lambda: evaluate(rhs, order)),
        ("poch_infinite", kernels),
    )
    return Draw(f"jacobi alternating={alternating}", sides, False)


def draws(count: int, low: int, high: int, seed: int) -> list[Draw]:
    """`count` draws of each 2phi1 identity at orders low..high, both theta series at each square there."""
    rng = random.Random(seed)
    out = []
    for identity in IDENTITIES:
        for _ in range(count):
            k, order = rng.randint(1, 3), rng.randint(low, high)
            draw = identity(rng, k, order)
            out.append(draw._replace(text=f"{draw.text}, step {k}, order {order}"))
    # the theta series' last term lands on a square order, where a missed top term shows
    for root in range(math.isqrt(high) + 1):
        for alternating in (False, True) if root * root >= low else ():
            draw = jacobi(alternating, root * root)
            out.append(draw._replace(text=f"{draw.text}, order {root * root}"))
    return out


def check(drawn: list[Draw]) -> tuple[list[str], list[str]]:
    """(each draw that raised, each wrong outcome).

    A draw must give equal series on every side, or, when it puts a
    non-unit in a denominator, raise SeriesError on every side.
    """
    raised, wrong = [], []
    for draw in drawn:
        results = []
        for route, side in draw.sides:
            try:
                results.append((route, side()))
            except SeriesError as exc:
                results.append((route, exc))
        errors = {route: r for route, r in results if isinstance(r, SeriesError)}
        if errors:
            raised.append(f"{draw.text}: SeriesError on {', '.join(errors)}: {next(iter(errors.values()))}")
        if draw.non_unit:
            if len(errors) != len(results):
                wrong.append(f"{draw.text}: a non-unit denominator did not raise on every side")
        elif errors:
            wrong.append(f"{draw.text}: raised on {', '.join(errors)}")
        elif any(r != results[0][1] for _, r in results[1:]):
            wrong.append(f"{draw.text}: " + " != ".join(route for route, _ in results))
    return raised, wrong


def test_classical_identities_hold_at_random_parameters(seed):
    drawn = draws(12, 300, 400, seed)
    raised, wrong = check(drawn)
    assert wrong == []
    assert len(raised) == sum(draw.non_unit for draw in drawn)


def test_a_non_unit_denominator_raises_on_every_side():
    # the first heine-3 draw that takes c = -q^0
    draw = next(d for seed in range(100) if (d := heine_3(random.Random(seed), 2, 300)).non_unit)
    raised, wrong = check([draw])
    assert wrong == [] and len(raised) == 1 and "SeriesError on 2phi1, product" in raised[0]


if __name__ == "__main__":
    count, low, high, seed = map(int, sys.argv[1:5])
    drawn = draws(count, low, high, seed)
    start = time.perf_counter()
    raised, wrong = check(drawn)
    took = time.perf_counter() - start
    print(f"{len(drawn)} draws at orders {low}-{high}, seed {seed}: {len(wrong)} wrong, "
          f"{len(raised)} raised SeriesError ({took:.2f} s)")
    for line in raised:
        print(f"  raised: {line}")
    for line in wrong:
        print(f"  wrong: {line}")
    sys.exit(1 if wrong else 0)
