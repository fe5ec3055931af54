"""Scripted reproductions of the quantitative claims: the unbounded inner
derivation on the Heisenberg group, the 2^(1/q) norm-limit behaviour, and
the forward/backward conjugation-distance tables.

Every report computes its numbers along two independent routes where one
exists, and hard-fails on disagreement.
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


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def format_table(headers, rows) -> str:
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Unbounded inner derivation on H3


class AppendixRow:
    def __init__(self, m: int, coeff_table: list, norm_lower_bound: float,
                 ratio_lower_bound: float):
        self.m = m
        self.coeff_table = coeff_table  # (n, Fraction)
        self.norm_lower_bound = norm_lower_bound  # sqrt(m) * sum_{j=2}^m 1/j
        self.ratio_lower_bound = ratio_lower_bound  # norm_lower_bound / sqrt(2m+1)


class AppendixReport:
    def __init__(self, m_values: list, n_max: int, rows: list):
        self.m_values, self.n_max, self.rows = m_values, n_max, rows

    def to_json(self) -> dict:
        return {
            "m_values": self.m_values,
            "n_max": self.n_max,
            "rows": [
                {
                    "m": row.m,
                    "coeffs": [[n, exact_str(v)] for n, v in row.coeff_table],
                    "norm_lower_bound": fmt_float(row.norm_lower_bound),
                    "ratio_lower_bound": fmt_float(row.ratio_lower_bound),
                }
                for row in self.rows
            ],
        }

    def to_table(self) -> str:
        rows = [
            (
                row.m,
                exact_str(row.coeff_table[0][1]) if row.coeff_table else "-",
                fmt_float(row.norm_lower_bound),
                fmt_float(row.ratio_lower_bound),
            )
            for row in self.rows
        ]
        return format_table(
            ["m", "coeff(n=1)", "norm_lower_bound", "ratio_lower_bound"], rows
        )


def run_appendix(m_max: int, n_max: int) -> AppendixReport:
    """Coefficients of d(a_m), a_m = sum of Ax^k for |k| <= m, at the
    targets Ax^-n Ap A1^-n, read from the potential's table through the
    character identity d(g)[u] = phi(u g^-1) - phi(g^-1 u) and re-derived
    from the closed harmonic formula; the two routes must agree exactly."""
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
        rows.append(
            AppendixRow(m, coeff_table, lower, lower / math.sqrt(2 * m + 1))
        )
    return AppendixReport(list(range(1, m_max + 1)), n_max, rows)


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


class LimitReport:
    def __init__(self, q: float, potential_norm: float, samples: list,
                 separation_index: int | None):
        self.q, self.potential_norm = q, potential_norm
        self.samples = samples  # (k, norm: float, exact_pow: Fraction | None)
        self.separation_index = separation_index

    def to_json(self) -> dict:
        return {
            "q": fmt_float(float(self.q)),
            "potential_norm": fmt_float(self.potential_norm),
            "samples": [
                [k, fmt_float(norm), None if pw is None else exact_str(pw)]
                for k, norm, pw in self.samples
            ],
            "separation_index": self.separation_index,
        }

    def to_table(self) -> str:
        rows = [
            (k, fmt_float(norm), "-" if pw is None else exact_str(pw))
            for k, norm, pw in self.samples
        ]
        return format_table(["k", "norm", "norm^q (exact)"], rows)


def run_limit_experiment(phi: Potential, a, q, k_max: int) -> LimitReport:
    """Evaluate ||d(a_k)||_q for a_k = a^k, the conjugator `a` a payload.

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
    for p in payloads:
        if model.class_is_finite(p):
            raise UsageError(
                f"potential support element {model.encode_payload(p)} lies in a finite "
                "conjugation component"
            )
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
    potential_norm = float_norm(values, float(q), power_sum)
    return LimitReport(float(q), potential_norm, samples, separation_index)


# ---------------------------------------------------------------------------
# Forward vs backward conjugation distances


class InverseSequenceReport:
    def __init__(self, rows: list):
        self.rows = rows  # (k, forward, backward) with int | AtLeast entries

    def to_json(self) -> dict:
        def cell(d):
            return d if isinstance(d, int) else str(d)

        return {"rows": [[k, cell(f), cell(b)] for k, f, b in self.rows]}

    def to_table(self) -> str:
        return format_table(
            ["k", "rho(u, a^k u a^-k)", "rho(u, a^-k u a^k)"], self.rows
        )


def run_inverse_sequence_check(
    model: GroupModel,
    up,
    a,
    k_max: int,
    budget: int,
    tail=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> InverseSequenceReport:
    """Budgeted rho(u, a_k u a_k^-1) and rho(u, a_k^-1 u a_k) for
    a_k = a^k * tail, with u, a and tail (by default e) payloads; the tail
    lets sequences like x^k y be probed.  Each distance gets its own
    `node_budget`."""
    if tail is None:
        tail = model.identity_payload()
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
    return InverseSequenceReport(rows)
