import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conjlab
from conjlab import cli
from conjlab import derivations as dv
from conjlab.cli import main

from conftest import delta, oracle_stdout


@pytest.fixture
def two_point_potential(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(
        json.dumps(
            {
                "model": "h3",
                "table": [["H3(1,0,0)", "1"], ["H3(1,0,-1)", "1/2"]],
                "closed_form": None,
                "truncation": 100,
            }
        )
    )
    return str(path)


@pytest.fixture
def harmonic_potential(tmp_path):
    path = tmp_path / "harm.json"
    path.write_text(
        json.dumps(
            {
                "model": "h3",
                "table": [],
                "closed_form": "appendix_harmonic",
                "truncation": 20,
            }
        )
    )
    return str(path)


@pytest.fixture
def sup_three_potential(tmp_path):
    # d(Ax) has coefficients -3, 5/2 and 1/2
    path = tmp_path / "phi3.json"
    path.write_text(
        json.dumps(
            {
                "model": "h3",
                "table": [["H3(1,0,0)", "3"], ["H3(1,0,1)", "1/2"]],
                "closed_form": None,
                "truncation": 100,
            }
        )
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_exit(capsys, argv):
    """Exit code and stderr of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


class TestGraph:
    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys,
            ["graph", "--model", "h3", "--base", "H3(1,0,0)", "--radius", "2",
             "--suppress-loops"],
        )
        assert code == 0
        assert '"H3(1,0,0)" -> "H3(1,0,-1)" [label="Ax"];' in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            ["graph", "--model", "h3", "--base", "H3(1,0,0)", "--radius", "1",
             "--format", "json", "--suppress-loops"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["base"] == "H3(1,0,0)"
        assert data["complete"] is True
        assert sorted(data["vertices"]) == ["H3(1,0,-1)", "H3(1,0,0)", "H3(1,0,1)"]
        assert all(e[0] != e[2] for e in data["edges"])

    def test_deterministic(self, capsys):
        argv = ["graph", "--model", "dinf", "--base", "a", "--radius", "3"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_bad_encoding_exits_2(self, capsys):
        code, _, err = run(
            capsys, ["graph", "--model", "h3", "--base", "nope", "--radius", "1"]
        )
        assert code == 2
        assert "error" in err

    def test_negative_radius_exits_2(self, capsys):
        code, err = usage_exit(
            capsys, ["graph", "--model", "h3", "--base", "e", "--radius", "-1"])
        assert code == 2 and "--radius" in err

    def test_unknown_model_exits_2(self, capsys):
        code, _, _ = run(
            capsys, ["graph", "--model", "zzz", "--base", "e", "--radius", "1"]
        )
        assert code == 2


class TestBC:
    def test_plateau(self, capsys):
        code, out, _ = run(
            capsys,
            ["bc", "--model", "h3", "--k", "H3(1,0,0)", "--k", "H3(1,0,1)",
             "--cayley-radius", "4", "--diam-budget", "16"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "Plateau(1)"
        assert data["K"] == ["H3(1,0,0)", "H3(1,0,1)"]

    def test_growing(self, capsys):
        code, out, _ = run(
            capsys,
            ["bc", "--model", "h3semi", "--k", "H3(1,0,0)", "--k", "H3(0,1,0)",
             "--cayley-radius", "4", "--diam-budget", "16"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Growing"


class TestDerive:
    def test_finite_potential(self, capsys, two_point_potential):
        code, out, _ = run(
            capsys,
            ["derive", "--potential", two_point_potential,
             "--element", "H3(0,2,0)"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["exact"] is True
        # separated regime: norm^2 = 2 * (1 + 1/4) = 5/2
        assert data["norm_p"] == "1.58113883008"
        assert len(data["image"]) == 4

    def test_truncated_flagged(self, capsys, harmonic_potential):
        code, out, _ = run(
            capsys,
            ["derive", "--potential", harmonic_potential,
             "--element", "H3(0,1,0)"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["exact"] is False
        assert data["truncation"] == 20

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["derive", "--potential", str(tmp_path / "nope.json"),
             "--element", "e"],
        )
        assert code == 2

    def test_out_of_memory_exits_3(self, capsys, monkeypatch, harmonic_potential):
        # a truncated support too large to list, as at truncation 10^9
        def out_of_memory(trunc_k):
            raise MemoryError

        monkeypatch.setitem(dv.CLOSED_FORMS["appendix_harmonic"], "support", out_of_memory)
        code, out, err = run(
            capsys,
            ["derive", "--potential", harmonic_potential, "--element", "H3(1,0,0)"],
        )
        assert (code, out) == (3, "")
        assert err == "resource budget exceeded: out of memory\n"


class TestLeibniz:
    def test_zero_violations(self, capsys, two_point_potential):
        code, out, _ = run(
            capsys,
            ["leibniz", "--potential", two_point_potential, "--samples", "50"],
        )
        assert code == 0
        assert out.strip() == "0 violations in 50 samples (max residual 0)"

    def test_violations_counted_exactly(self, capsys, monkeypatch, two_point_potential):
        # a residual too small for a float l1 norm is still a violation
        def tiny_residual(d, g, h):
            return delta(g, Fraction(1, 10**400))

        monkeypatch.setattr(dv, "leibniz_residual", tiny_residual)
        code, out, _ = run(
            capsys,
            ["leibniz", "--potential", two_point_potential, "--samples", "5"],
        )
        assert code == 0
        assert out.strip() == "5 violations in 5 samples (max residual 0)"


class TestCharacter:
    def test_value(self, capsys, two_point_potential):
        # chi(h, g) with h = Ap A1^k, g = Ax^k picks out phi(h g^-1)
        code, out, _ = run(
            capsys,
            ["character", "--potential", two_point_potential,
             "--u", "H3(1,2,2)", "--v", "H3(0,2,0)"],
        )
        assert code == 0
        assert json.loads(out)["value"] == "1"

    def test_zero_on_loop(self, capsys, two_point_potential):
        code, out, _ = run(
            capsys,
            ["character", "--potential", two_point_potential,
             "--u", "H3(0,2,0)", "--v", "H3(0,1,0)"],
        )
        assert code == 0
        assert json.loads(out)["value"] == "0"


class TestQuasiInner:
    def test_potential_passes(self, capsys, two_point_potential):
        code, out, _ = run(
            capsys,
            ["quasi-inner", "--potential", two_point_potential,
             "--samples", "40"],
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"ok": True, "loops": 40}


class TestStabilise:
    def test_rows(self, capsys, two_point_potential):
        code, out, _ = run(
            capsys,
            ["stabilise", "--potential", two_point_potential,
             "--base", "H3(1,0,0)", "--radius", "4", "--radii", "0,1,2"],
        )
        assert code == 0
        data = json.loads(out)
        # the 1/2 mass sits one conjugation step from the base
        assert data["rows"] == [[0, "1/2"], [1, "0"], [2, "0"]]

    def test_decreasing_radii_exit_2(self, capsys, two_point_potential, monkeypatch):
        # refused before the component is explored
        def refuse(*args, **kwargs):
            raise AssertionError("explored the component")

        monkeypatch.setattr(cli.cg, "explore_component", refuse)
        code, _, _ = run(
            capsys,
            ["stabilise", "--potential", two_point_potential,
             "--base", "H3(1,0,0)", "--radius", "4", "--radii", "2,1"],
        )
        assert code == 2

    def test_builds_no_element_per_vertex(self, capsys, two_point_potential, monkeypatch):
        # the probe reads the ball's payloads: a ball of 17 vertices builds
        # no more GroupElements than one of 5
        built = []
        init = conjlab.GroupElement.__init__

        def counting_init(self, model, payload):
            built.append(payload)
            init(self, model, payload)

        monkeypatch.setattr(conjlab.GroupElement, "__init__", counting_init)
        counts = []
        for radius in ("2", "8"):
            built.clear()
            code, out, _ = run(
                capsys,
                ["stabilise", "--potential", two_point_potential,
                 "--base", "H3(1,0,0)", "--radius", radius, "--radii", "0,1"],
            )
            assert code == 0 and json.loads(out)["rows"] == [[0, "1/2"], [1, "0"]]
            counts.append(len(built))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("radii", ["2,2", "0,1,1"])
    def test_repeated_radii_exit_2(self, capsys, two_point_potential, radii):
        # a repeated radius would print its row twice
        code, out, err = run(
            capsys,
            ["stabilise", "--potential", two_point_potential,
             "--base", "H3(1,0,0)", "--radius", "4", "--radii", radii],
        )
        assert (code, out) == (2, "")
        assert err == "error: --radii must be increasing\n"

    @pytest.mark.parametrize("option, value", [("--radii", "1,x"), ("--radius", "-1")])
    def test_bad_radius_exits_2(self, capsys, two_point_potential, option, value):
        argv = {"--potential": two_point_potential, "--base": "H3(1,0,0)",
                "--radius": "4", "--radii": "0,1", option: value}
        code, err = usage_exit(
            capsys, ["stabilise"] + [tok for kv in argv.items() for tok in kv])
        assert code == 2 and option in err

    def test_negative_radii_exit_2(self, capsys, two_point_potential):
        code, err = usage_exit(capsys, ["stabilise", "--potential", two_point_potential,
                                        "--base", "H3(1,0,0)", "--radius", "4",
                                        "--radii=-1,0"])
        assert code == 2
        assert err.endswith("error: argument --radii: must be >= 0, got -1\n")


class TestBoundProbe:
    def test_two_point(self, capsys, two_point_potential):
        code, out, _ = run(
            capsys,
            ["bound-probe", "--potential", two_point_potential,
             "--radius", "2"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["max_norm"] == "1.58113883008"


class TestNormExponent:
    def test_derive_p_inf_is_sup(self, capsys, sup_three_potential):
        code, out, _ = run(
            capsys,
            ["derive", "--potential", sup_three_potential,
             "--element", "H3(0,1,0)", "-p", "inf"],
        )
        assert code == 0
        assert json.loads(out)["norm_p"] == "3"

    def test_bound_probe_p_inf_is_sup(self, capsys, sup_three_potential):
        code, out, _ = run(
            capsys,
            ["bound-probe", "--potential", sup_three_potential,
             "--radius", "1", "-p", "inf"],
        )
        assert code == 0
        assert json.loads(out)["max_norm"] == "3"

    @pytest.mark.parametrize("argv", [
        ["derive", "--element", "H3(0,1,0)"],
        ["bound-probe", "--radius", "1"],
    ])
    def test_p_nan_exits_2(self, capsys, sup_three_potential, argv):
        code, out, err = run(
            capsys, argv + ["--potential", sup_three_potential, "-p", "nan"])
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestNormRange:
    @pytest.fixture
    def potential(self, tmp_path):
        def write(value):
            path = tmp_path / "phi.json"
            path.write_text(json.dumps(
                {"model": "h3", "table": [["H3(1,0,0)", value]]}))
            return str(path)
        return write

    @pytest.mark.parametrize("value, norm", [
        ("1", "1.41421356237"),
        ("1e200", "1.41421356237e+200"),
        ("1e-200", "1.41421356237e-200"),
        ("1e-170", "1.41421356237e-170"),
    ])
    def test_derive_norm_fits_a_float(self, capsys, potential, value, norm):
        # d(Ay) = phi(Ax) (Ax.Ay - Ay.Ax): two terms +-value
        code, out, _ = run(capsys, ["derive", "--potential", potential(value),
                                    "--element", "H3(0,1,0)"])
        assert code == 0
        assert json.loads(out)["norm_p"] == norm

    @pytest.mark.parametrize("p", ["2", "inf"])
    def test_derive_norm_beyond_float_range_exits_2(self, capsys, potential, p):
        code, out, err = run(capsys, ["derive", "--potential", potential("1e400"),
                                      "--element", "H3(0,1,0)", "-p", p])
        assert code == 2 and out == ""
        assert err == "error: norm exceeds the float range\n"

    @pytest.mark.parametrize("value, p, norm", [
        ("1e200", "2", "1.41421356237e+200"),
        ("1e-200", "2", "1.41421356237e-200"),
        ("1e-200", "4", "1.189207115e-200"),
    ])
    def test_bound_probe_norm_fits_a_float(self, capsys, potential, value, p, norm):
        # every conjugator off the centraliser of Ap has two terms +-value
        code, out, _ = run(capsys, ["bound-probe", "--potential", potential(value),
                                    "--radius", "1", "-p", p])
        assert code == 0
        assert json.loads(out) == {"argmax": "H3(0,-1,0)", "max_norm": norm,
                                   "p": p, "radius": 1}

    def test_bound_probe_norm_beyond_float_range_exits_2(self, capsys, potential):
        code, out, err = run(capsys, ["bound-probe", "--potential", potential("1e400"),
                                      "--radius", "1"])
        assert code == 2 and out == ""
        assert err == "error: norm exceeds the float range\n"

    def test_bound_probe_refuses_a_huge_value_before_squaring_it(self, capsys, potential,
                                                               monkeypatch):
        # squaring 1e2000000 exactly takes seconds; its bit lengths show at
        # once that no float holds the norm
        mul = Fraction.__mul__

        def small_mul(a, b):
            for x in (a, b):
                if isinstance(x, Fraction) and max(x.numerator.bit_length(),
                                                   x.denominator.bit_length()) > 10**5:
                    raise AssertionError("a Fraction product of over 10^5 bits")
            return mul(a, b)

        path = potential("1e2000000")
        monkeypatch.setattr(Fraction, "__mul__", small_mul)
        code, out, err = run(capsys, ["bound-probe", "--potential", path, "--radius", "1"])
        assert code == 2 and out == ""
        assert err == "error: norm exceeds the float range\n"

    @pytest.mark.parametrize("argv", [
        ["derive", "--element", "H3(0,1,0)"],
        ["character", "--u", "H3(1,1,0)", "--v", "H3(0,1,0)"],
    ])
    def test_rational_too_large_to_print_exits_2(self, capsys, potential, argv):
        # 1e5000 is read exactly, and has more digits than Python prints
        code, out, err = run(capsys, argv + ["--potential", potential("1e5000")])
        assert code == 2 and out == ""
        assert err == "error: a rational value is too large to print\n"

    def test_bound_probe_adds_powers_left_to_right(self, capsys, tmp_path):
        # two norms tie up to rounding; `sum` from Python 3.12 on rounds
        # them otherwise and would print argmax "a"
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"model": "dinf", "table": [
            ["ab", "1/2"], ["b", "1"], ["a", "-1"], ["e", "2/3"]]}))
        code, out, _ = run(capsys, ["bound-probe", "--potential", str(path),
                                    "--radius", "1", "-p", "1.5"])
        assert code == 0
        assert json.loads(out) == {"argmax": "b", "max_norm": "1.9423921959",
                                   "p": "1.5", "radius": 1}

    @pytest.mark.parametrize("value, q, potential_norm, sample", [
        ("1e200", "2.5", "1e+200", [1, "1.31950791077e+200", None]),
        ("1e200", "2", "1e+200", [1, "1.41421356237e+200", str(2 * 10**400)]),
        ("1e-200", "2", "1e-200", [1, "1.41421356237e-200", f"1/{5 * 10**399}"]),
    ])
    def test_limit_norms_fit_a_float(self, capsys, potential, value, q,
                                     potential_norm, sample):
        code, out, _ = run(capsys, ["limit", "--potential", potential(value),
                                    "--conjugator", "Ax", "--q", q, "--k-max", "1",
                                    "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["potential_norm"] == potential_norm
        assert data["samples"] == [sample]


class TestAppendix:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, ["appendix", "--m-max", "3", "--n-max", "2",
                     "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["rows"][1]["coeffs"][0] == [1, "5/6"]

    def test_table(self, capsys):
        code, out, _ = run(capsys, ["appendix", "--m-max", "2", "--n-max", "1"])
        assert code == 0
        assert "ratio_lower_bound" in out.splitlines()[0]

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_unprintable_coefficient_exits_2(self, capsys, fmt):
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = run(capsys, ["appendix", "--m-max", "1500", "--format", fmt])
        finally:
            sys.set_int_max_str_digits(digits)
        assert result == (2, "", "error: a rational value is too large to print\n")


class TestLimit:
    @pytest.mark.parametrize("q, exact", [("2.5", None), ("2", "0")])
    def test_empty_potential(self, capsys, tmp_path, q, exact):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"model": "h3", "table": []}))
        code, out, _ = run(capsys, ["limit", "--potential", str(path), "--conjugator",
                                    "Ax", "--q", q, "--k-max", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["samples"] == [[1, "0", exact], [2, "0", exact]]

    @pytest.mark.parametrize("q", ["0.5", "nan", "-1"])
    def test_empty_potential_checks_q(self, capsys, tmp_path, q):
        # the same refusal as a one-entry table gives
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"model": "h3", "table": []}))
        code, out, err = run(capsys, ["limit", "--potential", str(path), "--conjugator",
                                      "Ax", "--q", q, "--format", "json"])
        assert (code, out) == (2, "")
        assert err == f"error: lp_norm needs p >= 1, got {float(q)}\n"

    def test_json(self, capsys, two_point_potential):
        code, out, _ = run(
            capsys,
            ["limit", "--potential", two_point_potential, "--conjugator", "Ax",
             "--q", "2", "--k-max", "4", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["separation_index"] == 2
        assert data["samples"][3] == [4, "1.58113883008", "5/2"]

    def test_q_inf_reports_the_sup_norm(self, capsys, sup_three_potential):
        code, out, _ = run(
            capsys,
            ["limit", "--potential", sup_three_potential, "--conjugator", "Ax",
             "--q", "inf", "--k-max", "3", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["potential_norm"] == "3"
        assert [s[1] for s in data["samples"]] == ["3", "3", "3"]

    def test_q_14000_prints_the_exact_column(self, capsys, two_point_potential):
        # 2 + 2/2^14000: 4215 digits on each side of the slash
        code, out, _ = run(
            capsys,
            ["limit", "--potential", two_point_potential, "--conjugator", "Ax",
             "--q", "14000", "--k-max", "3", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["potential_norm"] == "1"
        exact = str(2 + Fraction(2, 2**14000))
        assert data["samples"][1:] == [[2, "1.00004951174", exact],
                                       [3, "1.00004951174", exact]]

    def test_q_at_the_print_limit(self, capsys, two_point_potential):
        # 2 + 2/2^q = (2^q + 1)/2^(q-1): 4300 digits, Python's default limit
        code, out, _ = run(
            capsys,
            ["limit", "--potential", two_point_potential, "--conjugator", "Ax",
             "--q", "14284", "--k-max", "2", "--format", "json"],
        )
        assert code == 0
        exact = json.loads(out)["samples"][1][2]
        assert exact == str(2 + Fraction(2, 2**14284))
        assert len(exact.split("/")[0]) == 4300

    @pytest.mark.parametrize("q", ["14290", "20000", "1e12"])
    def test_q_too_large_to_print_exits_2(self, capsys, two_point_potential, q):
        # 14290 and 20000 are computed and found too long to print; 1e12 is
        # refused before any power is taken, so it returns at once
        code, out, err = run(
            capsys,
            ["limit", "--potential", two_point_potential, "--conjugator", "Ax",
             "--q", q, "--k-max", "1"],
        )
        assert code == 2 and out == ""
        assert err == f"error: q = {int(float(q))} is too large to print the exact q-th powers\n"

    @pytest.mark.parametrize("q", ["20000", "1e12"])
    def test_central_conjugator_any_q(self, capsys, two_point_potential, q):
        # d(A1^k) = 0 prints an exact 0 for every q; the potential's norm is
        # then taken in float, as its exact q-th power sum would not print
        code, out, _ = run(
            capsys,
            ["limit", "--potential", two_point_potential, "--conjugator", "A1",
             "--q", q, "--k-max", "1", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["potential_norm"] == "1"
        assert data["samples"] == [[1, "0", "0"]]

    def test_finite_component_exits_2(self, capsys, tmp_path):
        path = tmp_path / "ident.json"
        path.write_text(json.dumps({"model": "h3", "table": [["H3(0,0,0)", "1"]]}))
        code, _, err = run(
            capsys,
            ["limit", "--potential", str(path), "--conjugator", "Ax"],
        )
        assert code == 2
        assert "finite" in err


class TestInverseSeq:
    def test_h3_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["inverse-seq", "--model", "h3", "--u", "H3(1,0,0)",
             "--conjugator", "Ax", "--k-max", "3", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["rows"] == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]

    def test_free_tail(self, capsys):
        code, out, _ = run(
            capsys,
            ["inverse-seq", "--model", "free2", "--u", "x1",
             "--conjugator", "x1", "--tail", "x2", "--k-max", "3",
             "--budget", "8", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["rows"] == [[1, 2, 1], [2, 3, 1], [3, 4, 1]]

    @pytest.mark.parametrize("model, u, words, rows", [
        ("h3*dinf", "(H3(1,0,0)|a)", ["--conjugator", "l.Ax"], [[1, 1, 1], [2, 2, 2]]),
        ("h3*dinf", "(H3(1,0,0)|a)", ["--conjugator", "l.Ax", "--tail", "r.b"],
         [[1, 2, 2], [2, 3, 3]]),
        ("h3*dinf*free2", "(H3(1,0,0)|(a|x1))", ["--conjugator", "r.r.x2^-1.l.Ax"],
         [[1, 2, 2], [2, 4, 4]]),
    ])
    def test_product_generator_ids(self, capsys, model, u, words, rows):
        code, out, _ = run(capsys, ["inverse-seq", "--model", model, "--u", u, *words,
                                    "--k-max", "2", "--budget", "6", "--format", "json"])
        assert code == 0
        assert json.loads(out)["rows"] == rows

    ARGV = ["inverse-seq", "--model", "free2", "--u", "x1", "--conjugator", "x2",
            "--k-max", "3", "--budget", "8", "--format", "json"]

    def test_budget_env_gives_lower_bounds(self, capsys, monkeypatch):
        code, out, _ = run(capsys, self.ARGV)
        assert json.loads(out)["rows"] == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]
        monkeypatch.setenv("CONJLAB_DEFAULT_BUDGET", "5")
        code, out, _ = run(capsys, self.ARGV)
        assert code == 0
        assert json.loads(out)["rows"] == [[1, 1, 1], [2, "≥2", 2], [3, "≥2", "≥2"]]

    def test_budget_nodes_option(self, capsys, monkeypatch):
        monkeypatch.setenv("CONJLAB_DEFAULT_BUDGET", "5")
        code, out, _ = run(capsys, self.ARGV + ["--budget-nodes", "100"])
        assert code == 0
        assert json.loads(out)["rows"] == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]
        code, err = usage_exit(capsys, self.ARGV + ["--budget-nodes", "-1"])
        assert code == 2 and "--budget-nodes" in err


class TestPlumbing:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_budget_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CONJLAB_DEFAULT_BUDGET", "many")
        code, _, err = run(
            capsys, ["graph", "--model", "h3", "--base", "e", "--radius", "1"]
        )
        assert code == 2
        assert "CONJLAB_DEFAULT_BUDGET" in err

    def test_negative_budget_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CONJLAB_DEFAULT_BUDGET", "-5")
        code, _, err = run(
            capsys, ["graph", "--model", "h3", "--base", "e", "--radius", "1"]
        )
        assert code == 2
        assert "CONJLAB_DEFAULT_BUDGET" in err

    @pytest.mark.parametrize("argv", [
        ["graph", "--model", "h3", "--base", "e", "--radius", "1"],
        ["bc", "--model", "h3", "--k", "e"],
        ["stabilise", "--potential", "p.json", "--base", "e", "--radius", "1",
         "--radii", "0"],
        ["bound-probe", "--potential", "p.json", "--radius", "1"],
    ])
    def test_negative_budget_nodes_exits_2(self, capsys, argv):
        code, err = usage_exit(capsys, argv + ["--budget-nodes", "-1"])
        assert code == 2 and "--budget-nodes" in err

    def test_non_integer_truncation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({"model": "h3", "table": [],
                                    "closed_form": "appendix_harmonic",
                                    "truncation": 10.5}))
        code, out, err = run(
            capsys, ["character", "--potential", str(path),
                     "--u", "H3(1,-2,-2)", "--v", "e"])
        assert code == 2 and out == "" and "truncation" in err

    @pytest.mark.parametrize("argv, option", [
        (["bound-probe", "--potential", "p.json", "--radius", "-1"], "--radius"),
        (["bc", "--model", "h3", "--k", "e", "--cayley-radius", "-2"], "--cayley-radius"),
        (["bc", "--model", "h3", "--k", "e", "--diam-budget", "-1"], "--diam-budget"),
        (["inverse-seq", "--model", "free2", "--u", "x1", "--conjugator", "x2",
          "--budget", "-3"], "--budget"),
        (["inverse-seq", "--model", "free2", "--u", "x1", "--conjugator", "x2",
          "--k-max", "-1"], "--k-max"),
        (["leibniz", "--potential", "p.json", "--samples", "-5"], "--samples"),
        (["quasi-inner", "--potential", "p.json", "--samples", "-2"], "--samples"),
    ])
    def test_negative_count_exits_2(self, capsys, argv, option):
        code, err = usage_exit(capsys, argv)
        assert code == 2 and option in err

    @pytest.mark.parametrize("data", [
        {"model": "h3", "table": [["H3(1,0,0)", "1/x"]]},
        {"model": "h3", "table": [["H3(1,0,0)", "1/0"]]},
        {"model": "h3", "table": [["H3(1,0,0)"]]},
        {"model": "h3", "table": [["H3(1,0,0)", "1", "2"]]},
        {"model": "h3", "table": [["H3(1,0,0)", 0.1]]},
        {"model": "h3", "table": [[1, "1"]]},
        {"model": "h3", "table": {"H3(1,0,0)": "1"}},
        {"model": 3, "table": []},
        {"table": []},
        {"model": "h3", "table": [], "closed_form": ["appendix_harmonic"]},
        {"model": "*".join(["h3"] * 3001), "table": []},
        [["H3(1,0,0)", "1"]],
        "h3",
    ], ids=["bad-rational", "zero-denominator", "short-row", "long-row",
            "number-value", "number-element", "table-object", "model-number",
            "no-model", "closed-form-list", "3001-factors", "top-level-list",
            "top-level-string"])
    def test_malformed_potential_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["derive", "--potential", str(path),
                                      "--element", "e"])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot load potential file {path}:")

    @pytest.mark.parametrize("model, first, second, canonical", [
        ("h3", "H3(1,0,0)", "H3(1,0,0)", "H3(1,0,0)"),
        ("h3", "H3(1,0,0)", "H3(01,0,0)", "H3(1,0,0)"),
        ("dsemi", "bac", "ba;c", "ba;c"),
        ("dsemi*h3semi", "(c|e)", "(e;c|H3(0,0,0))", "(e;c|H3(0,0,0))"),
    ])
    def test_element_named_twice_exits_2(self, capsys, tmp_path, model, first, second,
                                         canonical):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"model": model, "table": [[first, "1"], [second, "-1"]]}))
        code, out, err = run(capsys, ["derive", "--potential", str(path),
                                      "--element", "e"])
        assert code == 2 and out == ""
        assert err == (f"error: cannot load potential file {path}: bad table entry: "
                       f"{second!r} names {canonical} a second time\n")

    @pytest.mark.parametrize("model, base, message", [
        ("free" + "1" * 5000, "e", "integer literal too long: 5000 characters"),
        ("h3", f"H3({'1' * 5000},0,0)", "integer literal too long: 5000 characters"),
        ("free2", "x" + "1" * 5000, "integer literal too long: 5000 characters"),
        ("free65537", "e", "a free group has rank at most 65536, not 65537"),
        ("free100000000", "e", "a free group has rank at most 65536, not 100000000"),
    ], ids=["free-rank-digits", "h3-digits", "free-letter-digits", "free-rank-2^16+1",
            "free-rank-10^8"])
    def test_oversized_integer_exits_2(self, capsys, model, base, message):
        code, out, err = run(capsys, ["graph", "--model", model, "--base", base,
                                      "--radius", "0"])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_non_utf8_potential_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, ["derive", "--potential", str(path),
                                      "--element", "e"])
        assert code == 2 and out == "" and str(path) in err

    def test_budget_env_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("CONJLAB_DEFAULT_BUDGET", "3")
        code, out, _ = run(
            capsys,
            ["graph", "--model", "h3", "--base", "H3(1,0,0)", "--radius", "9",
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["complete"] is False



BUDGET = 10**6
COMMANDS = cli._commands(BUDGET)


def parse_outcome(parse, argv):
    """(outcome, stdout, stderr) of parse(argv): the exit code of a
    SystemExit, or the repr of the parsed namespace, which lists its
    attributes in the order they were set."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = repr(parse(list(argv)))
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


def full_parse(argv):
    return cli.build_parser(BUDGET).parse_args(argv)


def parser_cases():
    """Help and error argv for every subcommand, from its argument table."""
    for name, (_, _, arguments) in COMMANDS.items():
        required = [flags[0] for flags, kw in arguments if kw.get("required")]
        valid = [name] + [tok for flag in required for tok in (flag, "1")]
        yield name + "-help", [name, "-h"]
        if required:
            yield name + "-missing", [name]
        if any("choices" in kw for _, kw in arguments):
            yield name + "-choice", valid + ["--format", "nope"]
        counts = [flags[0] for flags, kw in arguments if kw.get("type") is cli._count]
        if counts:
            yield name + "-negative", valid + [counts[0], "-1"]
        yield name + "-unrecognized", valid + ["--bogus", "extra"]
        yield name + "-after-dashes", valid + ["--", "x"]
        # a prefix of the first option, with its value missing
        yield name + "-abbreviated", [name, arguments[0][0][0][:5]]
    for argv in ([], ["-h"], ["nope"], ["deriv"], ["--", "appendix"]):
        yield "top" + "".join(argv), argv


class TestParser:
    @pytest.mark.parametrize("columns", ["40", "120"])
    @pytest.mark.parametrize("argv", [c[1] for c in parser_cases()],
                             ids=[c[0] for c in parser_cases()])
    def test_main_prints_what_the_full_parser_prints(self, monkeypatch, columns, argv):
        # main parses a named command with that command's parser alone;
        # help and errors must read as the full tree's
        monkeypatch.setenv("COLUMNS", columns)
        ours = parse_outcome(main, argv)
        assert ours == parse_outcome(full_parse, argv)
        assert ours[0] in (0, 2)

    def test_misspelt_command_is_an_invalid_choice(self, capsys):
        code, err = usage_exit(capsys, ["deriv"])
        assert code == 2
        assert "error: argument command: invalid choice: 'deriv'" in err

    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of every ArgumentParser built, subparsers included."""
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            progs.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return progs

    FULL_TREE = ["conjlab"] + [f"conjlab {name}" for name in COMMANDS]

    # a named command builds one parser, its own, standing alone where its
    # subparser would be; the full tree only when it leaves an argument over
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_a_command_builds_one_subparser(self, capsys, built, name):
        with pytest.raises(SystemExit):
            main([name, "-h"])
        assert built == [f"conjlab {name}"]

    def test_a_run_builds_one_subparser(self, capsys, built):
        assert main(["appendix", "--m-max", "2"]) == 0
        assert built == ["conjlab appendix"]

    def test_top_level_help_builds_every_subparser(self, capsys, built):
        with pytest.raises(SystemExit):
            main(["-h"])
        assert built == self.FULL_TREE and len(built) == 12

    def test_a_leftover_argument_builds_the_full_tree(self, capsys, built):
        with pytest.raises(SystemExit):
            main(["appendix", "--m-max", "2", "--bogus"])
        assert built == ["conjlab appendix"] + self.FULL_TREE


@st.composite
def command_argv(draw):
    """A command, half the time its required options set to "1", then a
    few tokens: options, their prefixes, numbers and junk."""
    name = draw(st.sampled_from(list(COMMANDS)))
    arguments = COMMANDS[name][2]
    options = [flag for flags, _ in arguments for flag in flags]
    prefixes = [flag[:5] for flag in options if len(flag) > 5]
    token = st.one_of(
        st.sampled_from(options + prefixes + ["-h", "--"]),
        st.integers(min_value=-10**6, max_value=10**6).map(str),
        st.sampled_from(["x", "1,x", "-", "--bogus", "nan", "inf", "1.5", "e", ""]),
        st.text(max_size=4),
    )
    required = [flags[0] for flags, kw in arguments if kw.get("required")]
    head = [tok for flag in required for tok in (flag, "1")] if draw(st.booleans()) else []
    return [name] + head + draw(st.lists(token, max_size=6))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(command_argv())
def test_fuzzed_argv_parses_as_with_the_full_parser(argv):
    ours = parse_outcome(lambda argv: cli.parse(argv, BUDGET), argv)
    assert ours == parse_outcome(full_parse, argv)
    assert isinstance(ours[0], str) or ours[0] in (0, 2)


def source_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(conjlab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_conjlab_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "conjlab", "appendix", "--m-max", "2"],
                          capture_output=True, text=True, env=source_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[3].split() == ["2", "5/6", "0.707106781187",
                                                   "0.316227766017"]


def test_closed_pipe_exits_0_quietly():
    # the JSON ball is about 290 kB, far more than a pipe buffers, so the
    # CLI is still writing when the reader goes away
    env = source_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "conjlab.cli", "graph", "--model", "free2",
         "--base", "x1", "--radius", "6", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        head = os.read(proc.stdout.fileno(), 100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert head.startswith(b"{")
    assert (code, err) == (0, b"")


# ---------------------------------------------------------------------------
# Argv fuzz through the search commands themselves


FUZZ_MODELS = ["h3", "free2", "dinf", "dsemi", "h3semi", "h3*dinf"]


@st.composite
def element_text(draw, model):
    """An element encoding of `model`: a random word's normal form, or now
    and then a malformed string."""
    m = conjlab.get_model(model)
    letters = draw(st.lists(st.sampled_from(m.gen_triples), max_size=4))
    text = m.normal_form([gen for gen, _, _ in letters]).encode()
    return draw(st.sampled_from([text] * 5 + ["", "e", "x9", "H3(1,0)", "ab;"]))


@st.composite
def search_argv(draw):
    """(argv, env budget or None) for bc, graph or inverse-seq with radii and
    budgets <= 4 and node budgets <= 50."""
    model = draw(st.sampled_from(FUZZ_MODELS))
    small = st.integers(0, 4).map(str)
    command = draw(st.sampled_from(["bc", "graph", "inverse-seq"]))
    argv = [command, "--model", model]
    if command == "bc":
        for _ in range(draw(st.integers(1, 3))):
            argv += ["--k", draw(element_text(model))]
        argv += ["--cayley-radius", draw(small), "--diam-budget", draw(small)]
    elif command == "graph":
        argv += ["--base", draw(element_text(model)), "--radius", draw(small),
                 "--format", draw(st.sampled_from(["dot", "json"]))]
        if draw(st.booleans()):
            argv.append("--suppress-loops")
    else:
        gids = sorted(conjlab.get_model(model).generator_payloads())
        letter = st.sampled_from(gids).flatmap(lambda g: st.sampled_from([g, g + "^-1"]))
        word = st.lists(letter, min_size=1, max_size=2).map(".".join)
        argv += ["--u", draw(element_text(model)), "--conjugator", draw(word),
                 "--tail", draw(st.one_of(st.just("e"), word)),
                 "--k-max", draw(small), "--budget", draw(small), "--format", "json"]
    if draw(st.booleans()):
        argv += ["--budget-nodes", str(draw(st.integers(0, 50)))]
    env = draw(st.one_of(st.none(), st.integers(0, 50).map(str)))
    return argv, env


def run_fuzzed(argv, env):
    """(exit code, stdout, stderr) of one in-process run, `env` in
    CONJLAB_DEFAULT_BUDGET; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("CONJLAB_DEFAULT_BUDGET")
    if env is None:
        os.environ.pop("CONJLAB_DEFAULT_BUDGET", None)
    else:
        os.environ["CONJLAB_DEFAULT_BUDGET"] = env
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            os.environ.pop("CONJLAB_DEFAULT_BUDGET", None)
        else:
            os.environ["CONJLAB_DEFAULT_BUDGET"] = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(search_argv())
def test_fuzzed_search_commands_keep_the_exit_contract(case):
    argv, env = case
    code, out, err = run_fuzzed(argv, env)
    assert code in (0, 2, 3, 4), (argv, env, err)
    assert "Traceback" not in err
    assert "unknown generator" not in err  # words are drawn from the model's ids
    assert run_fuzzed(argv, env) == (code, out, err)
    if code == 0 and argv[0] in ("graph", "bc"):
        assert out == oracle_stdout(argv, int(env) if env is not None else 10**6)


# ---------------------------------------------------------------------------
# Potential-file fuzz through the potential commands


@st.composite
def potential_json(draw):
    """(model name, JSON text) of a small potential file over a model's own
    elements and small rationals, with at most one fault: a malformed value,
    row, model name, closed form, truncation or file, or an element named
    twice.  The harmonic closed form gets a truncation <= 20, so no example
    takes more than milliseconds."""
    model = draw(st.sampled_from(FUZZ_MODELS))
    fault = draw(st.sampled_from([None] * 4 + ["value", "row", "model", "closed_form",
                                               "truncation", "file", "duplicate"]))
    m = conjlab.get_model(model)
    element = st.lists(st.sampled_from(m.all_gens()), max_size=4).map(
        lambda w: m.normal_form(w).encode())
    value = st.sampled_from(["1", "-1/2", "3/7", "2.5", "-4", "1e40", "1e-40", "0"])
    rows = draw(st.lists(st.tuples(element, value).map(list), max_size=3))
    data = {"model": model, "table": rows}
    if model == "h3" and draw(st.booleans()):
        data["closed_form"] = "appendix_harmonic"
        data["truncation"] = draw(st.sampled_from([1, 7, 20]))
    if fault == "value":
        rows.append([draw(element), draw(st.sampled_from(["1/0", "x", "", "1/2/3"]))])
    elif fault == "row":
        data["table"] = draw(st.sampled_from([[["e"]], [[1, "1"]], [["x9", "1"]], "rows"]))
    elif fault == "model":
        data["model"] = draw(st.sampled_from(["h4", "free0", "", "h3*"]))
    elif fault == "closed_form":
        data["closed_form"] = draw(st.sampled_from(["appendix_harmonic", "nope", 3]))
        data["truncation"] = 20
    elif fault == "truncation":
        data["truncation"] = draw(st.sampled_from([0, -3, "7", True, 2.5]))
    elif fault == "duplicate":
        twice, at = draw(element), draw(st.integers(0, len(rows)))
        rows[at:at] = [[twice, draw(value)], [twice, draw(value)]]
    text = json.dumps(data)
    if fault == "file":
        text = draw(st.sampled_from(["[]", "{", '"h3"', ""]))
    return model, text


@st.composite
def potential_argv(draw):
    """(potential JSON text, argv without its --potential option) for derive,
    character, leibniz, quasi-inner, bound-probe --radius 1, limit with
    --k-max <= 3, or stabilise with radii <= 2."""
    model, text = draw(potential_json())
    command = draw(st.sampled_from(["derive", "character", "leibniz", "quasi-inner",
                                    "bound-probe", "limit", "stabilise"]))
    argv = [command]
    if command == "derive":
        argv += ["--element", draw(element_text(model))]
    elif command == "character":
        argv += ["--u", draw(element_text(model)), "--v", draw(element_text(model))]
    elif command == "bound-probe":
        argv += ["--radius", "1"]
    elif command == "limit":
        gids = sorted(conjlab.get_model(model).generator_payloads())
        word = draw(st.lists(st.sampled_from(gids), min_size=1, max_size=2))
        argv += ["--conjugator", ".".join(word),
                 "--k-max", draw(st.sampled_from(["1", "2", "3", "0"])),
                 "--q", draw(st.sampled_from(["1", "2", "2.5", "inf"])),
                 "--format", draw(st.sampled_from(["json", "table"]))]
    elif command == "stabilise":
        argv += ["--base", draw(element_text(model)),
                 "--radius", str(draw(st.integers(0, 2))),
                 "--radii=" + draw(st.sampled_from(["0", "0,1", "1,2", "0,1,2", "2,1",
                                                    "1,1", "-1,0"]))]
    else:
        argv += ["--samples", str(draw(st.integers(0, 5))),
                 "--seed", str(draw(st.integers(0, 9)))]
    if command in ("derive", "bound-probe") and draw(st.booleans()):
        argv += ["-p", draw(st.sampled_from(["1", "2.5", "inf", "0.5", "nan"]))]
    return text, argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=potential_argv())
def test_fuzzed_potential_commands_keep_the_exit_contract(tmp_path_factory, case):
    text, argv = case
    path = tmp_path_factory.getbasetemp() / "fuzzed_potential.json"
    path.write_text(text)
    argv = [argv[0], "--potential", str(path), *argv[1:]]
    code, out, err = run_fuzzed(argv, None)
    assert code in (0, 2, 3, 4), (text, argv, err)
    assert "Traceback" not in err
    assert "unknown generator" not in err  # conjugators are drawn from the model's ids
    assert run_fuzzed(argv, None) == (code, out, err)
