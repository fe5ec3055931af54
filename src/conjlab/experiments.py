"""Scripted reproductions of the quantitative claims: the unbounded inner
derivation on the Heisenberg group, the 2^(1/q) norm-limit behaviour, and
the forward/backward conjugation-distance tables.

Every experiment computes its numbers along two independent routes where
one exists, and hard-fails on disagreement; each returns plain values,
which the command formats.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import accumulate

from .derivations import Potential, hit_column
from .errors import InternalConsistencyError, UsageError
from .graph import conj_distance
from .groups import DEFAULT_NODE_BUDGET, GroupModel, Heisenberg
from .ring import exact_pow_fits, exact_str, float_norm, lp_norm, lq_pow_exact


# ---------------------------------------------------------------------------
# Unbounded inner derivation on H3


def run_appendix(m_max: int, n_max: int) -> list:
    """Coefficients of d(a_m), a_m = sum of Ax^k for |k| <= m, at the
    targets Ax^-n Ap A1^-n, read from the potential's table through the
    character identity d(g)[u] = phi(u g^-1) - phi(g^-1 u) and re-derived
    from the closed harmonic formula; the two routes must agree exactly.
    One row (m, [(n, coefficient)], norm_lower_bound, ratio_lower_bound)
    for each m <= m_max: the bound sqrt(m) * (1/2 + ... + 1/m) on the norm,
    and that bound over sqrt(2m + 1)."""
    if m_max < 1 or n_max < 1:
        raise UsageError(f"m_max and n_max must be >= 1, got {m_max} and {n_max}")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and _harmonic_denominator_digits(m_max + 1) > limit:
        raise UsageError("a rational value is too large to print")  # as exact_str
    h3 = Heisenberg()
    phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=m_max + n_max)
    harm = list(accumulate((Fraction(1, j) for j in range(1, m_max + n_max + 1)),
                           initial=Fraction(0)))  # harmonic prefix sums

    def coefficient(m, n):  # sum of 1/(k+n), k != 0 from max(-n+1, -m) to m
        return harm[m + n] - harm[max(1, n - m) - 1] - Fraction(1, n)

    exact_str(coefficient(m_max, 1))  # every format prints it: refuse before the loop

    den, (payloads, scaled) = phi._scaled_columns
    table = dict(zip(payloads, scaled))  # D phi, in ints
    targets = [(1, -n, -n) for n in range(1, n_max + 1)]
    acc = [0] * n_max  # running D d(a_m) at the targets; a_0 = e, d(e) = 0
    rows = []
    for m in range(1, m_max + 1):
        for gi in ((0, -m, 0), (0, m, 0)):  # g^-1 for g = Ax^m, Ax^-m
            right = h3.mul_all(targets, gi)
            left = h3.mul_all(targets, gi, left=True)
            for i, (u_gi, gi_u) in enumerate(zip(right, left)):
                acc[i] += table.get(u_gi, 0) - table.get(gi_u, 0)
        coeff_table = []
        for n in range(1, n_max + 1):
            direct = coefficient(m, n)
            if acc[n - 1] * direct.denominator != direct.numerator * den:
                raise InternalConsistencyError(
                    f"appendix coefficient mismatch at m={m}, n={n}: "
                    f"engine {Fraction(acc[n - 1], den)} vs formula {direct}"
                )
            coeff_table.append((n, direct))
        lower = math.sqrt(m) * float(harm[m] - 1)
        rows.append((m, coeff_table, lower, lower / math.sqrt(2 * m + 1)))
    return rows


def _harmonic_denominator_digits(n: int) -> float:
    """A lower bound on the decimal digits of the denominator of
    H(n) - 1 = 1/2 + ... + 1/n, n >= 2, from n alone.  With k = n // 2, each prime
    in (k, 2k] divides exactly one of 1..n, so it divides that denominator,
    and by Erdos's proof of Bertrand's postulate their product is at least
    4^(k/3) / ((2k + 1) (2k)^sqrt(2k))."""
    k = min(n // 2, 10**300)  # the bound grows with k; this keeps it a float
    return (k / 3 * math.log10(4) - math.log10(2 * k + 1)
            - math.sqrt(2 * k) * math.log10(2 * k))


# ---------------------------------------------------------------------------
# Norm limit under a diverging conjugation sequence


def run_limit_experiment(phi: Potential, a, q, k_max: int) -> tuple:
    """Evaluate ||d(a_k)||_q for a_k = a^k, the conjugator `a` a payload:
    (||phi||_q, samples, separation_index), a sample being (k, norm, its
    q-th power as a Fraction where q is an integer, else None).

    For finite-support potentials on infinite components, the samples
    become exactly 2^(1/q) ||phi||_q once the support and its conjugate
    separate; `separation_index` is the first k from which they stay
    disjoint through k_max.
    """
    if not phi.is_exact():
        raise UsageError("a closed-form potential is not finitely supported")
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max}")
    if not q >= 1:  # NaN too
        raise UsageError(f"q must be >= 1, got {float(q)}")
    model = phi.model
    payloads, values = phi._columns
    q_int = int(q) if float(q).is_integer() else None
    finite = [model.encode_payload(p) for p in payloads if model.class_is_finite(p)]
    if finite:
        raise UsageError(
            f"potential support element {min(finite)} lies in a finite conjugation component")
    by_hits = {}  # the samples by hit set; a_k^-1's hits are a_k's, transposed
    samples = []
    separation_index = None
    a_k = model.identity_payload()
    hits_of = model.conj_hits(payloads)
    for k in range(1, k_max + 1):
        a_k = model.mul_payload(a_k, a)
        hits = frozenset(hits_of(a_k, model.inv_payload(a_k)))
        sample = by_hits.get(hits)
        if sample is None:
            column = [c for c in hit_column(values, hits) if c]
            sample = by_hits[hits] = (
                lp_norm(column, float(q)),
                None if q_int is None else lq_pow_exact(column, q_int))
        samples.append((k, *sample))
        separation_index = (separation_index or k) if not hits else None
    power_sum = None
    if q_int is not None and exact_pow_fits(values, q_int):
        def power_sum():
            return float(sum((abs(v) ** q_int for v in values), Fraction(0)))
    return float_norm(values, float(q), power_sum), samples, separation_index


# ---------------------------------------------------------------------------
# Forward vs backward conjugation distances


def run_inverse_sequence_check(
    model: GroupModel,
    up,
    a,
    k_max: int,
    budget: int,
    tail,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list:
    """Rows (k, rho(u, a_k u a_k^-1), rho(u, a_k^-1 u a_k)) of budgeted
    distances, each an int or AtLeast, for a_k = a^k * tail, with u, a and
    tail payloads; the tail lets sequences like x^k y be probed.  Each
    distance gets its own `node_budget`."""
    mul, step = model.mul_payload, model.conj_step
    rows = []
    power = model.identity_payload()
    for k in range(1, k_max + 1):
        power = mul(power, a)
        a_k = mul(power, tail)
        a_ki = model.inv_payload(a_k)
        fwd = conj_distance(model, up, step(up, a_k, a_ki), budget, node_budget)
        bwd = conj_distance(model, up, step(up, a_ki, a_k), budget, node_budget)
        rows.append((k, fwd, bwd))
    return rows
