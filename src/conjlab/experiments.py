"""Scripted reproductions of the quantitative claims: the unbounded inner
derivation on the Heisenberg group, the 2^(1/q) norm-limit behaviour, and
the forward/backward conjugation-distance tables.

Every report computes its numbers along two independent routes where one
exists, and hard-fails on disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .derivations import Derivation, Potential
from .errors import InternalConsistencyError, UsageError
from .graph import conj_distance
from .groups import DEFAULT_NODE_BUDGET, GroupElement, GroupModel, Heisenberg
from .ring import exact_pow_fits, exact_str, float_norm


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


@dataclass
class AppendixRow:
    m: int
    coeff_table: list  # (n, Fraction)
    norm_lower_bound: float  # sqrt(m) * sum_{j=2}^m 1/j
    ratio_lower_bound: float  # norm_lower_bound / sqrt(2m+1)


@dataclass
class AppendixReport:
    m_values: list
    n_max: int
    rows: list

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


def closed_form_coefficient(m: int, n: int) -> Fraction:
    """Exact coefficient at Ax^-n Ap A1^-n in the image of the symmetric
    window sum of Ax powers: sum over window exponents k != 0 from
    max(-n+1, -m) to m of 1/(k+n)."""
    return sum((Fraction(1, k + n) for k in range(max(-n + 1, -m), m + 1) if k), Fraction(0))


def run_appendix(m_max: int, n_max: int) -> AppendixReport:
    """Coefficients of d(a_m), a_m = sum of Ax^k for |k| <= m, at the
    targets Ax^-n Ap A1^-n, read from the potential's table through the
    character identity d(g)[u] = phi(u g^-1) - phi(g^-1 u) and re-derived
    from the closed harmonic formula; the two routes must agree exactly."""
    if m_max < 1 or n_max < 1:
        raise UsageError("run_appendix needs m_max, n_max >= 1")
    h3 = Heisenberg()
    phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=m_max + n_max)
    harm = list(accumulate((Fraction(1, j) for j in range(1, m_max + n_max + 1)),
                           initial=Fraction(0)))  # harmonic prefix sums

    def coefficient(m, n):  # closed_form_coefficient(m, n) through the prefix sums
        return harm[m + n] - harm[max(1, n - m) - 1] - Fraction(1, n)

    exact_str(coefficient(m_max, 1))  # every format prints it: refuse before the loop

    den, (payloads, scaled, _) = phi._scaled_columns
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


# ---------------------------------------------------------------------------
# Norm limit under a diverging conjugation sequence


@dataclass
class LimitReport:
    q: float
    potential_norm: float
    samples: list  # (k, norm: float, exact_pow: Fraction | None)
    separation_index: int | None

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


def run_limit_experiment(
    phi: Potential, conjugator_word, q, k_max: int
) -> LimitReport:
    """Evaluate ||d(a_k)||_q for a_k = conjugator^k.

    For finite-support potentials on infinite components, the samples
    become exactly 2^(1/q) ||phi||_q once the support and its conjugate
    separate; `separation_index` is the first k from which they stay
    disjoint through k_max.
    """
    if not phi.is_exact():
        raise UsageError("run_limit_experiment needs a finite-support potential")
    if k_max < 1:
        raise UsageError("run_limit_experiment needs k_max >= 1")
    if not q >= 1:  # NaN too; checked here, as an empty support takes no norm
        raise UsageError(f"lp_norm needs p >= 1, got {float(q)}")
    model = phi.model
    supp = phi.support()
    q_int = int(q) if float(q).is_integer() else None
    if not supp:
        exact = None if q_int is None else Fraction(0)
        return LimitReport(q, 0.0, [(k, 0.0, exact) for k in range(1, k_max + 1)], 1)
    for g in supp:
        if model.class_is_finite(g.payload):
            raise UsageError(
                f"potential support element {g.encode()} lies in a finite "
                "conjugation component"
            )
    a = model.normal_form(conjugator_word)
    d = Derivation(phi)
    samples = []
    disjoint = []
    a_k = model.identity()
    supp_set = set(supp)
    for k in range(1, k_max + 1):
        a_k = a_k * a
        a_k_inv = a_k.inverse()
        image = d.apply(a_k)
        norm = image.lp_norm(float(q))
        exact = image.lq_pow_exact(q_int) if q_int is not None else None
        samples.append((k, norm, exact))
        pulled = {model.conjugate(a_k_inv, s) for s in supp}
        disjoint.append(not (pulled & supp_set))
    separation_index = None
    for k in range(k_max, 0, -1):
        if not disjoint[k - 1]:
            break
        separation_index = k
    values = [phi.value(g) for g in supp]
    power_sum = None
    if q_int is not None and exact_pow_fits(values, q_int):
        def power_sum():
            return float(phi.lq_pow(q_int))
    potential_norm = float_norm(values, float(q), power_sum)
    return LimitReport(float(q), potential_norm, samples, separation_index)


# ---------------------------------------------------------------------------
# Forward vs backward conjugation distances


@dataclass
class InverseSequenceReport:
    rows: list  # (k, forward, backward) with int | AtLeast entries

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
    u: GroupElement,
    conjugator_word,
    k_max: int,
    budget: int,
    tail_word=(),
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> InverseSequenceReport:
    """Budgeted rho(u, a_k u a_k^-1) and rho(u, a_k^-1 u a_k) for
    a_k = conjugator^k * tail; the tail lets sequences like x^k y be
    probed.  Each distance gets its own `node_budget`."""
    a = model.normal_form(conjugator_word)
    tail = model.normal_form(tail_word)
    rows = []
    power = model.identity()
    for k in range(1, k_max + 1):
        power = power * a
        a_k = power * tail
        fwd = conj_distance(model, u, model.conjugate(a_k, u), budget, node_budget)
        bwd = conj_distance(model, u, model.conjugate(a_k.inverse(), u), budget, node_budget)
        rows.append((k, fwd, bwd))
    return InverseSequenceReport(rows)
