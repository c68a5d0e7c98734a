"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and self-contained: plain coefficient
lists, schoolbook loops, and literal transcriptions of the family
constraints.  Tests compare the package against these, never the other way
around.
"""

from collections import Counter
from functools import lru_cache

# ----------------------------------------------------------------------
# naive polynomial arithmetic on coefficient lists


def p_one(n):
    return [1] + [0] * n


def p_mono(e, n, c=1):
    out = [0] * (n + 1)
    if e <= n:
        out[e] = c
    return out


def p_add(a, b):
    return [x + y for x, y in zip(a, b)]


def p_mul(a, b):
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    nonzero_b = [(j, y) for j, y in enumerate(b[: n + 1]) if y]
    for i in range(n + 1):
        if a[i]:
            for j, y in nonzero_b:
                if i + j > n:
                    break
                out[i + j] += a[i] * y
    return out


def p_inv(a):
    assert a[0] in (1, -1)
    out = [0] * len(a)
    out[0] = a[0]
    for m in range(1, len(a)):
        acc = sum(a[j] * out[m - j] for j in range(1, m + 1) if a[j])
        out[m] = -a[0] * acc
    return out


def p_binom(sign, e, n):
    # 1 - sign*q^e
    out = p_one(n)
    if e <= n:
        out[e] -= sign
    return out


def p_poch_fin(sign, e, step, m, n):
    out = p_one(n)
    for j in range(m):
        ee = e + step * j
        if ee > n:
            break
        out = p_mul(out, p_binom(sign, ee, n))
    return out


def p_poch_inf(sign, e, step, n):
    out = p_one(n)
    j = 0
    while e + step * j <= n:
        out = p_mul(out, p_binom(sign, e + step * j, n))
        j += 1
    return out


# ----------------------------------------------------------------------
# basic hypergeometric and smallest-part sums, every term rebuilt from scratch
#
# A parameter is a pair (sign, exponent) standing for sign*q^exponent, with
# sign 0 for the zero parameter.  Both sums return None where a denominator
# of some term has a constant term other than +-1, i.e. is not invertible.


def _p_poch_param(p, step, m, n):
    sign, e = p
    return p_one(n) if sign == 0 else p_poch_fin(sign, e, step, m, n)


def phi21_series(a, b, c, step, z, n):
    """sum_k (a;Q)_k (b;Q)_k / ((Q;Q)_k (c;Q)_k) z^k with Q = q^step."""
    out = [0] * (n + 1)
    k = 0
    while k * z[1] <= n:
        num = p_mul(_p_poch_param(a, step, k, n), _p_poch_param(b, step, k, n))
        den = p_mul(p_poch_fin(1, step, step, k, n), _p_poch_param(c, step, k, n))
        if den[0] not in (1, -1):
            return None
        term = p_mul(p_mono(k * z[1], n, z[0] ** k), p_mul(num, p_inv(den)))
        out = p_add(out, term)
        k += 1
    return out


def smallest_part_product(factors, k, n):
    """prod factors(k) through q^n, or None where a denominator's constant term is not +-1.

    Each factor is (sign, slope, offset, step, length, denominator) for
    (sign*q^(slope*k + offset); q^step)_length, inverted when denominator is
    true; length is "n" (meaning k), "n+1", "inf" or a fixed integer.
    """
    out = p_one(n)
    for sign, slope, offset, step, length, denominator in factors:
        e = slope * k + offset
        if length == "inf":
            f = p_poch_inf(sign, e, step, n)
        else:
            f = p_poch_fin(sign, e, step, {"n": k, "n+1": k + 1}.get(length, length), n)
        if denominator:
            if f[0] not in (1, -1):
                return None
            f = p_inv(f)
        out = p_mul(out, f)
    return out


def smallest_part_sum(prefix_slope, prefix_offset, factors, alternating, n):
    """sum_k (+-1)^k q^(prefix_slope*k + prefix_offset) prod factors(k).

    The factors are those of smallest_part_product.
    """
    out = [0] * (n + 1)
    k = 0
    while prefix_slope * k + prefix_offset <= n:
        product = smallest_part_product(factors, k, n)
        if product is None:
            return None
        term = p_mono(prefix_slope * k + prefix_offset, n, -1 if alternating and k % 2 else 1)
        out = p_add(out, p_mul(term, product))
        k += 1
    return out


# ----------------------------------------------------------------------
# mock theta defining sums, summed term by term


def omega_series(n):
    out = [0] * (n + 1)
    k = 0
    while 2 * k * k + 2 * k <= n:
        inv_sq = p_inv(p_poch_fin(1, 1, 2, k + 1, n))
        out = p_add(out, p_mul(p_mono(2 * k * k + 2 * k, n), p_mul(inv_sq, inv_sq)))
        k += 1
    return out


def psi_series(n):
    out = [0] * (n + 1)
    k = 1
    while k * k <= n:
        out = p_add(out, p_mul(p_mono(k * k, n), p_inv(p_poch_fin(1, 1, 2, k, n))))
        k += 1
    return out


def nu_series(n, sign=1):
    # sign=+1: sum (-q)^k (q;q^2)_k; sign=-1: sum q^k (-q;q^2)_k
    out = [0] * (n + 1)
    for k in range(n + 1):
        c = (-1) ** k if sign == 1 else 1
        out = p_add(out, p_mul(p_mono(k, n, c), p_poch_fin(sign, 1, 2, k, n)))
    return out


# ----------------------------------------------------------------------
# exhaustive partition machinery


def plain_partitions(n, max_part=None):
    """All integer partitions of n as descending lists."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield []
        return
    for v in range(min(n, max_part), 0, -1):
        for rest in plain_partitions(n - v, v):
            yield [v] + rest


def all_two_color_partitions(n):
    """Every two-color partition of n as a list of (value, color) pairs."""
    for values in plain_partitions(n):
        counts = Counter(values)
        vals = sorted(counts)

        def assign(i):
            if i == len(vals):
                yield []
                return
            v = vals[i]
            for blues in range(counts[v] + 1):
                for rest in assign(i + 1):
                    yield [(v, "b")] * blues + [(v, "g")] * (counts[v] - blues) + rest

        yield from assign(0)


def family_predicate(parts, name):
    """Literal transcription of each family's membership constraints."""
    values = [v for v, _ in parts]
    blue = [v for v, c in parts if c == "b"]
    green = [v for v, c in parts if c == "g"]
    blue_odd = [v for v in blue if v % 2]
    blue_even = [v for v in blue if v % 2 == 0]
    green_even = [v for v in green if v % 2 == 0]
    green_odd = [v for v in green if v % 2]

    def distinct(xs):
        return len(xs) == len(set(xs))

    if name == "E":
        return distinct(blue) and distinct(green) and not green_even
    if name == "F":
        return not green_even
    if not parts:
        return False
    s = min(values)
    if s % 2 == 0:
        return False
    if name == "Tomega":
        return not green_even and distinct(blue_even) and s in blue
    if name == "Tpsi":
        return (
            not green_even and distinct(blue_even) and distinct(blue_odd) and s in blue
        )
    if name == "Tnu":
        return not green_odd and distinct(blue_even) and distinct(green_even)
    if name == "A":
        return (
            s in blue
            and distinct(blue_even)
            and distinct(green_even)
            and all(v >= s + 3 for v in blue_even)
        )
    if name == "B":
        return (
            blue.count(s) == 1
            and distinct(blue_even)
            and distinct(green_even)
            and all(v >= s + 2 for v in blue_odd if v != s)
            and all(v >= s + 4 for v in blue_even)
        )
    if name == "C":
        return (
            s in blue
            and s in green
            and distinct(blue_even)
            and distinct(green_even)
            and all(v >= s + 5 for v in blue_even)
        )
    raise ValueError(name)


def spec_member(parts, anchor, cells):
    """Membership in any family spec, written from the FamilySpec and Cell docstrings.

    `anchor` lists the colors holding the odd smallest part, one copy each
    (empty when the family has no smallest-part rule); `cells` maps each
    allowed (color, parity) to (distinct, offset).  Past the anchor copies,
    every part lies in its cell, at or above smallest + offset when the
    family is anchored, and a distinct cell holds each value at most once.
    """
    rest = Counter(parts)
    smallest = None
    if anchor:
        if not parts:
            return False
        smallest = min(v for v, _ in parts)
        if smallest % 2 == 0:
            return False
        for color in anchor:
            if rest[(smallest, color)] == 0:
                return False
            rest[(smallest, color)] -= 1
    for (v, color), copies in rest.items():
        if copies == 0:
            continue
        cell = cells.get((color, "odd" if v % 2 else "even"))
        if cell is None:
            return False
        distinct, offset = cell
        if (distinct and copies > 1) or (smallest is not None and v < smallest + offset):
            return False
    return True


def filter_family(n, name):
    """Family members of n found by filtering the full two-color list."""
    if n == 0:
        return [[]] if family_predicate([], name) else []
    return [p for p in all_two_color_partitions(n) if family_predicate(p, name)]


def weight(parts, mode):
    if mode == "none":
        return 1
    if mode == "even_parts":
        return -1 if sum(1 for v, _ in parts if v % 2 == 0) % 2 else 1
    if mode == "even_blue_parts":
        return -1 if sum(1 for v, c in parts if v % 2 == 0 and c == "b") % 2 else 1
    if mode == "all_parts":
        return -1 if len(parts) % 2 else 1
    raise ValueError(mode)


@lru_cache(maxsize=None)
def overpartition_count(n, odd_only=False):
    """Count overpartitions by summing 2^(distinct part sizes)."""
    total = 0
    for values in plain_partitions(n):
        if odd_only and any(v % 2 == 0 for v in values):
            continue
        total += 2 ** len(set(values))
    return total


def bounded_odd_partitions(n, distinct):
    """Nonempty partitions of n whose odd parts stay below twice the smallest."""
    out = []
    for values in plain_partitions(n):
        if distinct and len(values) != len(set(values)):
            continue
        s = min(values)
        if all(v < 2 * s for v in values if v % 2):
            out.append(values)
    return out
