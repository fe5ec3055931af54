import json
import math
import sys
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from conjlab import derivations as dv
from conjlab import experiments as ex
from conjlab import (
    AtLeast,
    FreeGroup,
    Heisenberg,
    InternalConsistencyError,
    Potential,
    UsageError,
    get_model,
    parse_word,
    run_appendix,
    run_inverse_sequence_check,
    run_limit_experiment,
)
from conjlab.cli import fmt_float, main
from conjlab.groups import random_payload

from conftest import closed_form_coefficient
from test_corpus import MODELS as CORPUS_MODELS


def stdout_of(capsys, argv) -> str:
    """What `main(argv)` prints, after it exits 0."""
    assert main(argv) == 0
    return capsys.readouterr().out

# ---------------------------------------------------------------------------
# Window-sum coefficient table


class TestAppendix:
    def test_small_coefficients_by_hand(self):
        # m=2, n=1: k ranges over {-2,-1,1,2}\{0} with k >= 0:
        # 1/(k+1) summed over k in {1, 2} plus k=-2 excluded (k+n=-1? no:
        # window starts at max(-n+1, -m) = 0), so 1/2 + 1/3 = 5/6
        assert closed_form_coefficient(2, 1) == Fraction(5, 6)
        assert closed_form_coefficient(1, 1) == Fraction(1, 2)
        assert closed_form_coefficient(1, 2) == 1 + Fraction(1, 3)

    def test_harmonic_identity_when_window_covers(self):
        # for n <= m+1 the sum telescopes to H_{m+n} - H_{n-m-1} - 1/n
        def harmonic(n):
            return sum(Fraction(1, j) for j in range(1, n + 1))

        for m in range(1, 7):
            for n in range(1, m + 2):
                want = harmonic(m + n) - harmonic(max(n - m - 1, 0)) - Fraction(1, n)
                assert closed_form_coefficient(m, n) == want

    def test_report_rows(self):
        rows = run_appendix(4, 3)
        assert [m for m, _, _, _ in rows] == [1, 2, 3, 4]
        m, coeff_table, norm_lower_bound, ratio_lower_bound = rows[1]
        assert m == 2
        assert dict(coeff_table)[1] == Fraction(5, 6)
        # norm lower bound sqrt(m) * (H_m - 1)
        assert norm_lower_bound == pytest.approx(
            math.sqrt(2) * 0.5, rel=1e-12
        )
        assert ratio_lower_bound == pytest.approx(
            math.sqrt(2) * 0.5 / math.sqrt(5), rel=1e-12
        )

    def test_degenerate_first_row(self):
        (_, _, norm_lower_bound, ratio_lower_bound), = run_appendix(1, 1)
        assert norm_lower_bound == 0.0
        assert ratio_lower_bound == 0.0

    def test_ratio_strictly_increasing(self):
        ratios = [ratio for _, _, _, ratio in run_appendix(16, 2)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_prefix_sums_match_the_closed_form(self):
        # every coefficient is checked against H[m+n] - H[max(1,n-m)-1] - 1/n
        # and reported; it equals the O(m) window sum
        for m, coeff_table, _, _ in run_appendix(40, 40):
            assert coeff_table == [
                (n, closed_form_coefficient(m, n)) for n in range(1, 41)
            ]

    def test_lookups_equal_the_derivation_kernel(self, h3):
        # the coefficients read by character lookup are the running sums of
        # the termwise kernel over Ax^k, |k| <= m, at the targets
        m_max, n_max = 64, 4
        rows = run_appendix(m_max, n_max)
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=m_max + n_max)
        acc = {}
        for m, coeff_table, _, _ in rows:
            for gp in ((0, m, 0), (0, -m, 0)):
                phi.add_derivation(gp, acc)
            for n, coeff in coeff_table:
                assert acc.get((1, -n, -n), 0) == coeff

    def test_engine_mismatch_raises(self, monkeypatch):
        # a harmonic rule truncated one term early changes the coefficient
        # at m = m_max, n = n_max, and only there; the engine's columns list
        # the rule's support, so the fault is planted there too
        value, support = dv._harmonic_value, dv._harmonic_support
        monkeypatch.setattr(dv, "_harmonic_value", lambda p, k: value(p, k - 1))
        monkeypatch.setattr(dv, "_harmonic_support", lambda k: support(k - 1))
        with pytest.raises(InternalConsistencyError, match="m=5, n=3"):
            run_appendix(5, 3)

    @pytest.mark.parametrize("table", [{}, {(2, 0, 0): "-7/12", (1, 3, 3): "5/9"}])
    def test_scaled_terms_are_integer_numerators(self, h3, table):
        # D phi is an integer for D the lcm of the support's denominators,
        # term for term in the order of the Fraction columns
        phi = Potential(h3, {p: Fraction(v) for p, v in table.items()},
                        closed_form="appendix_harmonic", trunc_k=30)
        den, (payloads, scaled) = phi._scaled_columns
        assert den == math.lcm(*range(1, 31), 12, 9)
        assert payloads == phi._columns[0] and len(payloads) == 30 + len(table)
        for n, v in zip(scaled, phi._columns[1], strict=True):
            assert type(n) is int and n == den * v

    def test_scaled_term_mismatch_raises(self, monkeypatch):
        # one numerator off by one moves every coefficient it reaches, and
        # the prefix-sum cross-check catches it
        scaled_columns = Potential._scaled_columns.func

        def one_wrong(phi):
            den, (payloads, scaled) = scaled_columns(phi)
            return den, (payloads, (scaled[0] + 1, *scaled[1:]))

        monkeypatch.setattr(Potential, "_scaled_columns", property(one_wrong))
        with pytest.raises(InternalConsistencyError, match="m=1, n=2"):
            run_appendix(3, 3)

    def test_accumulator_holds_only_the_targets(self):
        # the terms g s = (1, m - k, -k) never cancel: kept, they grow the
        # accumulator to ~2 m_max (m_max + n_max) ints, over 20 MB at m_max = 256
        tracemalloc.start()
        try:
            run_appendix(256, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6

    @pytest.mark.parametrize("n_max", [1, 4])
    def test_unprintable_coefficient_refused_before_the_loop(self, monkeypatch, n_max):
        # with 640 digits, H(1501) - 1, the n = 1 coefficient of row 1500,
        # cannot be printed; the refusal comes before any row is computed
        def no_loop(*args, **kwargs):
            raise AssertionError("the loop ran")

        monkeypatch.setattr(Heisenberg, "mul_all", no_loop)
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(UsageError, match="^a rational value is too large to print$"):
                run_appendix(1500, n_max)
        finally:
            sys.set_int_max_str_digits(digits)

    @pytest.mark.parametrize("n", [2, 10, 1000, 2049, 3000])
    def test_denominator_digit_bound_is_below_the_true_count(self, n):
        harmonic = sum((Fraction(1, j) for j in range(2, n + 1)), Fraction(0))
        assert ex._harmonic_denominator_digits(n) < len(str(harmonic.denominator))

    def test_denominator_digit_bound_passes_the_default_limit_at_53841(self):
        bound = ex._harmonic_denominator_digits
        assert bound(53840 + 1) <= 4300 < bound(53841 + 1)

    @pytest.mark.parametrize("limit, refused", [(4300, True), (0, False)])
    def test_digit_bound_refuses_before_any_sum(self, monkeypatch, limit, refused):
        # a bound past every limit refuses at once, unless there is none
        monkeypatch.setattr(ex, "_harmonic_denominator_digits", lambda n: math.inf)
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            if refused:
                with pytest.raises(UsageError, match="^a rational value is too large to print$"):
                    run_appendix(3, 2)
            else:
                assert run_appendix(3, 2)[1][1][0] == (1, Fraction(5, 6))
        finally:
            sys.set_int_max_str_digits(digits)

    def test_bad_arguments(self):
        with pytest.raises(UsageError):
            run_appendix(0, 1)
        with pytest.raises(UsageError):
            run_appendix(2, 0)

    def test_json_serialisable(self, capsys):
        data = json.loads(stdout_of(capsys, ["appendix", "--m-max", "3", "--n-max", "2",
                                             "--format", "json"]))
        assert data["rows"][2]["m"] == 3
        assert data["rows"][1]["coeffs"][0] == [1, "5/6"]

    def test_table_render(self, capsys):
        text = stdout_of(capsys, ["appendix", "--m-max", "2", "--n-max", "1"])
        lines = text.splitlines()
        assert lines[0].split() == ["m", "coeff(n=1)", "norm_lower_bound", "ratio_lower_bound"]
        assert "5/6" in lines[3]


# ---------------------------------------------------------------------------
# Norm limit under a diverging conjugator


def two_point_potential(h3):
    # phi = Ap + (1/2) Ap A1^-1
    return Potential(
        h3,
        {(1, 0, 0): 1, (1, 0, -1): Fraction(1, 2)},
    )


def brute_separation(model, table, a, k_max):
    """The first k from which the support and its conjugate by a^-k stay
    disjoint through k_max, from a^-k s a^k by the group law; or None."""
    mul, index, a_k = model.mul_payload, None, model.identity_payload()
    for k in range(1, k_max + 1):
        a_k = mul(a_k, a)
        pulled = {mul(mul(model.inv_payload(a_k), s), a_k) for s in table}
        index = (index or k) if pulled.isdisjoint(table) else None
    return index


class TestLimit:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_two_point_limit(self, h3, q):
        phi = two_point_potential(h3)
        potential_norm, samples, separation_index = run_limit_experiment(
            phi, parse_word(h3, "Ax"), q, k_max=6)
        assert separation_index == 2
        # once separated, norm^q = 2 * (1 + 2^-q) exactly
        want_pow = Fraction(2) * (1 + Fraction(1, 2**q))
        for k, norm, exact in samples:
            if k >= 2:
                assert exact == want_pow
                assert norm == pytest.approx(float(want_pow) ** (1 / q), rel=1e-12)
        assert potential_norm == pytest.approx(
            float(1 + Fraction(1, 2**q)) ** (1 / q), rel=1e-12
        )
        # the limit factors as 2^(1/q) * ||phi||_q
        assert samples[-1][1] == pytest.approx(
            2 ** (1 / q) * potential_norm, rel=1e-12
        )

    def test_delta_potential(self, h3):
        phi = Potential(h3, {(1, 0, 0): 1})
        potential_norm, samples, separation_index = run_limit_experiment(
            phi, parse_word(h3, "Ax"), 2, k_max=4)
        assert separation_index == 1
        assert potential_norm == 1.0
        for _, norm, exact in samples:
            assert exact == 2
            assert norm == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_finite_component_rejected(self, h3):
        # the identity's conjugation component is a single point
        phi = Potential(h3, {h3.identity_payload(): 1})
        with pytest.raises(UsageError):
            run_limit_experiment(phi, parse_word(h3, "Ax"), 2, k_max=3)

    def test_truncated_potential_rejected(self, h3):
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=5)
        with pytest.raises(UsageError):
            run_limit_experiment(phi, parse_word(h3, "Ax"), 2, k_max=3)

    def test_empty_potential(self, h3):
        potential_norm, samples, _ = run_limit_experiment(
            Potential(h3, {}), parse_word(h3, "Ax"), 2, 3)
        assert potential_norm == 0.0
        assert samples == [(k, 0.0, 0) for k in (1, 2, 3)]

    def test_empty_potential_non_integer_q(self, h3):
        # as for any other potential, the exact column is printed for
        # integral q only
        _, samples, _ = run_limit_experiment(Potential(h3, {}), parse_word(h3, "Ax"), 2.5, 2)
        assert samples == [(1, 0.0, None), (2, 0.0, None)]

    @pytest.mark.parametrize("name", CORPUS_MODELS)
    def test_separation_index_matches_brute_force(self, name):
        # the support and {a^-k s a^k} by the group law, against the hit
        # finder that `run_limit_experiment` asks
        model, rng = get_model(name), Random(name)
        for _ in range(12):
            table = {}
            while len(table) < rng.randint(1, 6):
                s = random_payload(model, rng, 4)
                if not model.class_is_finite(s):
                    table[s] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            a = random_payload(model, rng, 3)
            k_max = rng.randint(1, 6)
            _, _, separation_index = run_limit_experiment(Potential(model, table), a, 2, k_max)
            assert separation_index == brute_separation(model, table, a, k_max)

    @pytest.mark.parametrize("table, word, index", [
        # A1 is central: every (i, i) is a hit, so the two never separate
        ({(1, 0, 0): 1, (0, 1, 2): 3}, "A1", None),
        # Ap.Ax lies on the line of the fibre (1, 1): it is fixed whole
        ({(1, 1, 0): 1, (2, 2, 5): 2, (1, 0, 0): 1}, "Ap.Ax", None),
        # Ax^k moves (1, 0, c) to (1, 0, c + k): a hit at k = 2 only
        ({(1, 0, 0): 1, (1, 0, 2): 1}, "Ax", 3),
        # hits at k = 1, 2 and 3, none from k = 4 on
        ({(1, 0, 0): 1, (1, 0, 1): 1, (1, 0, 3): 1, (2, 1, 9): 1}, "Ax", 4),
    ])
    def test_h3_separation_by_fibre(self, h3, table, word, index):
        a = parse_word(h3, word)
        phi = Potential(h3, table)
        assert run_limit_experiment(phi, a, 2, 6)[2] == index
        assert brute_separation(h3, table, a, 6) == index

    def test_non_integer_q(self, h3):
        phi = two_point_potential(h3)
        _, samples, _ = run_limit_experiment(phi, parse_word(h3, "Ax"), 2.5, k_max=3)
        k, norm, exact = samples[-1]
        assert exact is None
        want = (2 * (1 + 2**-2.5)) ** (1 / 2.5)
        assert norm == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Forward vs backward conjugation distances


class TestInverseSequence:
    def test_h3_symmetric(self, h3):
        # conjugating Ap by Ax^k moves it k steps either way
        rows = run_inverse_sequence_check(
            h3, (1, 0, 0), parse_word(h3, "Ax"), k_max=5, budget=12, tail=h3.identity_payload()
        )
        for k, fwd, bwd in rows:
            assert fwd == k and bwd == k

    def test_fixed_point(self, h3):
        rows = run_inverse_sequence_check(
            h3, h3.identity_payload(), parse_word(h3, "Ax"), k_max=3, budget=6,
            tail=h3.identity_payload(),
        )
        assert all(f == 0 and b == 0 for _, f, b in rows)

    def test_free_group_asymmetry(self):
        # a_k = x^k y conjugating u = x: forward distance k+1, backward 1
        f2 = FreeGroup(2)
        rows = run_inverse_sequence_check(
            f2,
            f2.decode_payload("x1"),
            parse_word(f2, "x1"),
            k_max=4,
            budget=10,
            tail=parse_word(f2, "x2"),
        )
        for k, fwd, bwd in rows:
            assert fwd == k + 1
            assert bwd == 1

    def test_budget_sentinel(self, h3):
        rows = run_inverse_sequence_check(
            h3, (1, 0, 0), parse_word(h3, "Ax"), k_max=5, budget=3, tail=h3.identity_payload()
        )
        assert rows[4][1] == AtLeast(3)

    def test_json_cells(self, capsys):
        data = json.loads(stdout_of(capsys, [
            "inverse-seq", "--model", "h3", "--u", "H3(1,0,0)", "--conjugator", "Ax",
            "--k-max", "4", "--budget", "3", "--format", "json"]))
        assert data["rows"][0] == [1, 1, 1]
        assert data["rows"][3] == [4, "≥3", "≥3"]


def test_fmt_float_stable():
    assert fmt_float(1.0) == "1"
    assert fmt_float(2 ** 0.5) == "1.41421356237"
