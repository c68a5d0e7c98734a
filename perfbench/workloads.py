"""The benchmark's operations and, for each, a reference value computed by a
route the operation does not use.

An operation is one call into a public qplab entry point.  Every call goes
through a module attribute (``registry.verify``, ``cli.main``...) at call
time, so the tracer's wrappers see it.  ``digest`` reduces an output to a
short string and ``reference`` produces the string a correct output must
give; the worker compares the two outside the timed region.

Inputs depend only on the workload name, the seed and the scale (1 for the
measured passes, 0.5 for the half-order passes of the traced run).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from qplab import cli, family_gf, mocktheta, partitions, qengine, registry

CATALOG_DEEP_ORDER = 120
COUNTS_SERIES_ORDER = 120
COUNTS_ENUM_N = 20
COUNTS_OVERPARTITION_N = 400
COUNTS_ADY_N = 200
COEFFS_ORDER = 1200
COEFFS_TARGETS = ("omega", "psi", "nu", "nu-neg", "theta")
#: known defect: both recursive counts raise RecursionError from n = 500
PROBE_N = 600


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    reference: Callable[[], str]
    kind: str = "call"  # "cli" ops print; their output size is counted


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def series_digest(series) -> str:
    return _hash(",".join(map(str, series.coeffs)))


def _csv(coeffs) -> str:
    return "n,coefficient\n" + "".join(f"{n},{c}\n" for n, c in enumerate(coeffs))


def _run_cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _verdict(status: str, mismatch) -> str:
    if mismatch is None:
        return status
    n, lhs, rhs = mismatch
    return f"{status} n={n} lhs={lhs} rhs={rhs}"


def _control_verdict() -> str:
    return _verdict(registry.STATUS_MISMATCH, (2, 2, 1))


# ----------------------------------------------------------------------
# catalog workloads: the reference is the catalog's known verdicts

def _catalog_deep(rng: random.Random, scale: float) -> list[Op]:
    order = round(CATALOG_DEEP_ORDER * scale)
    ops = []
    for case in registry.CATALOG:
        def run(case_id=case.id):
            return registry.verify(case_id, order)

        def digest(report):
            m = report.mismatch
            return _verdict(report.status, m and (m.index, m.lhs, m.rhs))

        def reference(case_id=case.id):
            if case_id == registry.NEGATIVE_CONTROL_ID:
                return _control_verdict()
            return registry.STATUS_PASS

        ops.append(Op(f"verify {case.id} {order}", run, digest, reference))
    return ops


def _verify_all_digest(result) -> str:
    code, text = result
    docs = json.loads(text)
    passed = sum(d["status"] == registry.STATUS_PASS for d in docs)
    control = "absent"
    bad = []
    for d in docs:
        if d["id"] == registry.NEGATIVE_CONTROL_ID:
            m = d["mismatch"]
            control = _verdict(d["status"], m and (m["n"], m["lhs"], m["rhs"]))
        elif d["status"] != registry.STATUS_PASS:
            bad.append(d["id"])
    return f"exit={code} cases={len(docs)} pass={passed} control={control} bad={','.join(bad)}"


def _verify_all_reference() -> str:
    n = len(registry.CATALOG)
    return f"exit=0 cases={n} pass={n - 1} control={_control_verdict()} bad="


def _catalog_default(rng: random.Random, scale: float) -> list[Op]:
    argv = ["verify", "--all", "--json"]
    return [Op("cli " + " ".join(argv), lambda: _run_cli(argv), _verify_all_digest,
               _verify_all_reference, kind="cli")]


# ----------------------------------------------------------------------
# counts-deep: partitions, checked against the q-engine and mock thetas

@lru_cache(maxsize=None)
def _gf(name: str, signed: bool, order: int):
    return family_gf.family_gf_series(name, signed, order)


@lru_cache(maxsize=None)
def _overpartition_products(odd_only: bool, order: int):
    """(-q;q^k)_inf / (q;q^k)_inf with k = 2 for odd parts, else 1."""
    step = 2 if odd_only else 1
    num = qengine.poch_infinite(qengine.Parameter.monomial(1, -1), step, order)
    den = qengine.poch_infinite(qengine.Parameter.monomial(1, 1), step, order)
    return num * den.invert()


def _ady_reference(n: int, distinct: bool) -> str:
    # count_ady(n, False) is the q^n coefficient of q*omega(q);
    # count_ady(n, True, True) that of nu(-q)
    if distinct:
        return str(mocktheta.nu(n, -1).coeff(n))
    return str(mocktheta.omega(n - 1).coeff(n - 1) if n else 0)


def _family_series_op(name: str, order: int, mode: str) -> Op:
    spec = partitions.FAMILIES[name]

    def run():
        return partitions.family_series(spec, order, mode, budget=order)

    signed = mode != partitions.WEIGHT_NONE
    return Op(f"family_series {name} {order} {mode}", run, series_digest,
              lambda: series_digest(_gf(name, signed, order)))


def _enumerate_op(name: str, n: int) -> Op:
    spec = partitions.FAMILIES[name]
    return Op(f"enumerate_family {name} {n}",
              lambda: partitions.enumerate_family(spec, n),
              lambda listed: f"listed={len(listed)}",
              lambda: f"listed={_gf(name, False, n).coeff(n)}")


def _statistics_op(name: str, n: int) -> Op:
    spec = partitions.FAMILIES[name]

    def reference():
        x = [0, 0, 0, 0]
        for p in partitions.enumerate_family(spec, n):
            x[p.count(parity=partitions.EVEN) % 2] += 1
            x[2 + len(p.parts) % 2] += 1
        return ",".join(map(str, x))

    return Op(f"statistic_counts {name} {n}",
              lambda: partitions.statistic_counts(spec, n),
              lambda counts: ",".join(map(str, counts)), reference)


def _overpartitions_op(n: int, odd_only: bool) -> Op:
    return Op(f"count_overpartitions {n} odd_only={odd_only}",
              lambda: partitions.count_overpartitions(n, odd_only), str,
              lambda: str(_overpartition_products(odd_only, n).coeff(n)))


def _ady_op(n: int, distinct: bool) -> Op:
    def run():
        if distinct:
            return partitions.count_ady(n, True, True)
        return partitions.count_ady(n, False)

    return Op(f"count_ady {n} distinct={distinct}", run, str,
              lambda: _ady_reference(n, distinct))


def _counts_deep(rng: random.Random, scale: float) -> list[Op]:
    order = round(COUNTS_SERIES_ORDER * scale)
    enum_n = round(COUNTS_ENUM_N * scale)
    over_n = round(COUNTS_OVERPARTITION_N * scale)
    ady_n = round(COUNTS_ADY_N * scale)
    ops = []
    for name, spec in partitions.FAMILIES.items():
        for mode in (partitions.WEIGHT_NONE, spec.weight):
            ops.append(_family_series_op(name, order, mode))
    for name in partitions.FAMILIES:
        ops.append(_enumerate_op(name, enum_n))
        ops.append(_statistics_op(name, enum_n))
    # the largest n comes first at a fixed size, so the lru caches these
    # counts share make the seeded draws below cost about the same on
    # every seed
    for odd_only in (False, True):
        ops.append(_overpartitions_op(over_n, odd_only))
    for _ in range(4):
        ops.append(_overpartitions_op(rng.randrange(over_n // 2, over_n), rng.random() < 0.5))
    for distinct in (False, True):
        ops.append(_ady_op(ady_n, distinct))
    for _ in range(4):
        ops.append(_ady_op(rng.randrange(ady_n // 2, ady_n), rng.random() < 0.5))
    return ops


def probes(workload: str) -> list[Op]:
    """Operations run after the timed ones to show a known defect."""
    if workload != "counts-deep":
        return []
    return [_overpartitions_op(PROBE_N, False), _ady_op(PROBE_N, False)]


# ----------------------------------------------------------------------
# coeffs-deep: CLI coefficient tables on long dense operands

def _target_series(target: str, order: int):
    """Each mock theta table by another route than the one the CLI takes."""
    if target == "omega":
        series = mocktheta.omega_fine(order)
    elif target == "psi":
        series = mocktheta.psi_fine(order)
    elif target == "nu":
        series = mocktheta.nu_ady(order).negate_variable()
    elif target == "nu-neg":
        series = mocktheta.nu_ady(order)
    else:
        # Jacobi triple product: 1 + 2 sum q^(n^2) = (q^2;q^2) (-q;q^2)^2
        p = qengine.poch_infinite
        m = qengine.Parameter.monomial
        odd = p(m(1, -1), 2, order)
        series = p(m(2), 2, order) * odd * odd
    return series


#: per rational target: (exponent, power) of two numerator factors and the
#: denominator.  The seed picks each sign and moves each power by up to 4%;
#: the exponents stay put, since they set how dense the operands are and so
#: most of the cost, which should not depend on the seed.
RATIONAL_SHAPES = (
    ((1, 1200), (2, 800), (3, 50)),
    ((3, 1500), (1, 500), (2, 100)),
)


def _random_factor(rng: random.Random, exponent: int, power: int) -> tuple[int, int, int]:
    """(sign, exponent, power) of the factor (1 + sign*q^exponent)^power."""
    jitter = power // 25
    return rng.choice((1, -1)), exponent, rng.randint(power - jitter, power + jitter)


def _factor_text(sign: int, exponent: int, power: int) -> str:
    var = "q" if exponent == 1 else f"q^{exponent}"
    return f"(1{'+' if sign > 0 else '-'}{var})^{power}"


def _binomial_series(sign: int, exponent: int, power: int, order: int) -> list[int]:
    """(1 + sign*q^exponent)^power by the binomial theorem; power may be negative."""
    out = [0] * (order + 1)
    for j in range(order // exponent + 1):
        if power >= 0:
            if j > power:
                break
            c = math.comb(power, j) * sign**j
        else:
            c = math.comb(-power + j - 1, j) * (-sign) ** j
        out[j * exponent] = c
    return out


def _naive_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * len(a)
    nz = [(j, c) for j, c in enumerate(b) if c]
    for i, x in enumerate(a):
        if x:
            for j, y in nz:
                if i + j >= len(out):
                    break
                out[i + j] += x * y
    return out


def _rational_op(rng: random.Random, shape, order: int) -> Op:
    *num, den = (_random_factor(rng, e, k) for e, k in shape)
    expr = "*".join(_factor_text(*f) for f in num) + "/" + _factor_text(*den)

    def reference():
        out = _binomial_series(*num[0], order)
        out = _naive_mul(out, _binomial_series(*num[1], order))
        s, e, k = den
        out = _naive_mul(out, _binomial_series(s, e, -k, order))
        return _hash(f"exit=0\n{_csv(out)}")

    return _coeffs_op(f"rational:{expr}", order, reference)


def _coeffs_op(target: str, order: int, reference: Callable[[], str]) -> Op:
    argv = ["coeffs", "--target", target, "--order", str(order), "--csv"]
    return Op("cli coeffs " + target, lambda: _run_cli(argv),
              lambda result: _hash(f"exit={result[0]}\n{result[1]}"), reference, kind="cli")


def _coeffs_deep(rng: random.Random, scale: float) -> list[Op]:
    order = round(COEFFS_ORDER * scale)
    ops = [
        _coeffs_op(t, order, lambda t=t: _hash(f"exit=0\n{_csv(_target_series(t, order).coeffs)}"))
        for t in COEFFS_TARGETS
    ]
    ops += [_rational_op(rng, shape, order) for shape in RATIONAL_SHAPES]
    return ops


_BUILDERS = {
    "catalog-deep": _catalog_deep,
    "catalog-default": _catalog_default,
    "counts-deep": _counts_deep,
    "coeffs-deep": _coeffs_deep,
}


def operations(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The ops of one pass; the same workload, seed and scale give the same ops."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"), scale)
