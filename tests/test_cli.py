import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conjlab
from conjlab import cli
from conjlab import derivations as dv
from conjlab.cli import main
from conjlab.experiments import fmt_float
from conjlab.groups import DEFAULT_NODE_BUDGET
from conjlab.ring import GroupRingVector
from conjlab.groups import random_loop, random_payload

from conftest import (_cli_json, all_models, delta, inner_derivation_apply, oracle_stdout,
                      random_potential, traced_peak)


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


# 2200 digits decode under Python's default 4300-digit limit; B^2 does not print
BIG = "9" * 2200


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

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_unprintable_vertex_exits_2(self, capsys, fmt):
        # sigma makes H3(B,B,0) into H3(B,B,B^2), whose B^2 cannot be printed
        base = f"H3({BIG},{BIG},0)"
        result = run(capsys, ["graph", "--model", "h3semi", "--base", base,
                              "--radius", "1", "--format", fmt])
        assert result == (2, "", "error: an element is too large to print\n")


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

        monkeypatch.setattr(dv, "_harmonic_support", out_of_memory)
        code, out, err = run(
            capsys,
            ["derive", "--potential", harmonic_potential, "--element", "H3(1,0,0)"],
        )
        assert (code, out) == (3, "")
        assert err == "resource budget exceeded: out of memory\n"

    def test_unprintable_image_exits_2(self, capsys, tmp_path):
        # d(H3(B,0,0)) has a term at H3(2B,B,B^2), which cannot be printed
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"model": "h3", "table": [[f"H3({BIG},{BIG},0)", "1"]]}))
        result = run(capsys, ["derive", "--potential", str(path),
                              "--element", f"H3({BIG},0,0)"])
        assert result == (2, "", "error: an element is too large to print\n")


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
        def tiny_residual(phi, gp, hp):
            return {gp: Fraction(1, 10**400)}

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

    def test_out_of_memory_exits_3(self, capsys, monkeypatch, harmonic_potential):
        # the cross-check lists the closed-form support, as derive does
        def out_of_memory(trunc_k):
            raise MemoryError

        monkeypatch.setattr(dv, "_harmonic_support", out_of_memory)
        assert run(capsys, ["character", "--potential", harmonic_potential,
                            "--u", "H3(1,-3,-3)", "--v", "H3(0,1,0)"]) == (
            3, "", "resource budget exceeded: out of memory\n")

    @pytest.mark.parametrize("u, v, hits", [
        ("H3(1,-3,-3)", "H3(0,1,0)", [(1, -4, -4)]),  # s v = u only
        ("H3(1,-3,-4)", "H3(0,1,0)", [(1, -4, -4)]),  # v s = u only
        ("H3(1,-3,2)", "H3(0,0,5)", [(1, -3, -3)] * 2),  # both: v is central
        ("H3(1,-30,-30)", "H3(0,1,0)", []),  # past the cutoff
    ])
    def test_cross_check_reads_phi_at_its_hits_only(self, capsys, monkeypatch,
                                                    harmonic_potential, u, v, hits):
        # the support is listed without a value: no phi column is built, and
        # phi is read twice by the lookup route and then once per hit
        reads, value = [], dv.Potential.value
        monkeypatch.setattr(dv.Potential, "value",
                            lambda phi, p: reads.append(p) or value(phi, p))
        monkeypatch.setattr(dv.Potential, "_columns",
                            property(lambda phi: pytest.fail("phi column built")))
        code, _, _ = run(capsys, ["character", "--potential", harmonic_potential,
                                  "--u", u, "--v", v])
        assert code == 0 and reads[2:] == hits

    def test_mismatch_exits_4(self, capsys, monkeypatch, two_point_potential):
        # a fault planted in the lookup route alone: the termwise cross-check
        # over the support still reads d(v)[u] = 1
        character = dv.character
        monkeypatch.setattr(dv, "character", lambda phi, up, vp: character(phi, up, vp) + 1)
        assert run(capsys, ["character", "--potential", two_point_potential,
                            "--u", "H3(1,2,2)", "--v", "H3(0,2,0)"]) == (
            4, "", "internal consistency failure: character mismatch at "
                   "(H3(1,2,2),H3(0,2,0)): potential 2 vs derivation 1\n")


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

    def test_witness_is_the_first_nonzero_loop(self, capsys, monkeypatch,
                                               two_point_potential):
        # a potential's character vanishes on every loop, so only a patched
        # character reaches the witness
        monkeypatch.setattr(dv, "character", lambda phi, up, vp: Fraction(1, 3))
        code, out, err = run(capsys, ["quasi-inner", "--potential", two_point_potential,
                                      "--samples", "5", "--seed", "3"])
        h3 = conjlab.get_model("h3")
        up, vp = random_loop(h3, Random(3))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"ok": False, "loops": 5, "witness": {
            "u": h3.encode_payload(up), "v": h3.encode_payload(vp), "value": "1/3"}}


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

    def test_builds_no_element_per_vertex(self, capsys, two_point_potential):
        # the probe reads the ball's payloads, on a ball of 5 vertices and
        # one of 17
        for radius in ("2", "8"):
            code, out, _ = run(
                capsys,
                ["stabilise", "--potential", two_point_potential,
                 "--base", "H3(1,0,0)", "--radius", radius, "--radii", "0,1"],
            )
            assert code == 0 and json.loads(out)["rows"] == [[0, "1/2"], [1, "0"]]

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

    @pytest.mark.parametrize("p", ["1", "2", "inf"])
    def test_identity_norm_is_not_computed(self, capsys, monkeypatch, harmonic_potential, p):
        # e fixes every generator and d(e) = 0, so its norm is known: the
        # all-zero coefficient list of d(e) never reaches float_norm
        argv = ["bound-probe", "--potential", harmonic_potential, "--radius", "2", "-p", p]
        want = run(capsys, argv)
        float_norm = dv.float_norm

        def no_zero_list(values, p, power_sum=None):
            assert any(values), "float_norm of an all-zero coefficient list"
            return float_norm(values, p, power_sum)

        monkeypatch.setattr(dv, "float_norm", no_zero_list)
        assert run(capsys, argv) == want
        assert json.loads(want[1])["argmax"] != "H3(0,0,0)"

    def test_builds_only_the_table_and_the_argmax(self, capsys, sup_three_potential):
        # the 7-level ball is sorted on payloads, and the table entries and
        # the argmax stay payloads
        code, out, _ = run(capsys, ["bound-probe", "--potential", sup_three_potential,
                                    "--radius", "7"])
        assert code == 0
        data = json.loads(out)
        assert (data["max_norm"], data["argmax"]) == ("4.30116263352", "H3(0,-2,0)")

    def test_harmonic_conjugates_by_the_closed_form(self, capsys, monkeypatch, tmp_path):
        # h3 finds the probe's hits from its (a, b) fibres and conjugates
        # the generators by its closed form: no translate of the support,
        # nor the base class's conjugate-and-look-up hit finder or two-product
        # conjugation, runs
        def refuse(name):
            def run_refused(*args, **kwargs):
                raise AssertionError(f"{name} ran")
            return run_refused

        monkeypatch.setattr(conjlab.Heisenberg, "mul_all", refuse("mul_all"))
        monkeypatch.setattr(conjlab.GroupModel, "conj_hits", refuse("GroupModel.conj_hits"))
        monkeypatch.setattr(conjlab.GroupModel, "conj_step", refuse("GroupModel.conj_step"))
        path = tmp_path / "harmonic.json"
        path.write_text(json.dumps({"model": "h3", "table": [],
                                    "closed_form": "appendix_harmonic", "truncation": 200}))
        assert run(capsys, ["bound-probe", "--potential", str(path), "--radius", "2"]) == (
            0, _cli_json({"argmax": "H3(-1,0,0)", "max_norm": "1.81104751236",
                          "p": "2", "radius": 2}), "")


NEGATION_FREE_POTENTIALS = {
    "harmonic": {"model": "h3", "table": [], "closed_form": "appendix_harmonic",
                 "truncation": 200},
    "three-row": {"model": "h3", "table": [["H3(1,0,0)", "1"], ["H3(1,0,-1)", "1/2"],
                                           ["H3(2,1,0)", "-3/4"]]},
}


@pytest.mark.parametrize("name, argv, want", [
    ("harmonic", ["character", "--u", "H3(1,-1,-1)", "--v", "H3(0,2,0)"],
     {"u": "H3(1,-1,-1)", "v": "H3(0,2,0)", "value": "1/3"}),
    ("harmonic", ["character", "--u", "H3(1,-5,-4)", "--v", "H3(0,-2,1)"],
     {"u": "H3(1,-5,-4)", "v": "H3(0,-2,1)", "value": "1/3"}),
    ("harmonic", ["bound-probe", "--radius", "2"],
     {"argmax": "H3(-1,0,0)", "max_norm": "1.81104751236", "p": "2", "radius": 2}),
    ("harmonic", ["bound-probe", "--radius", "2", "-p", "1"],
     {"argmax": "H3(-1,0,0)", "max_norm": "11.7560618962", "p": "1", "radius": 2}),
    ("three-row", ["character", "--u", "H3(2,2,2)", "--v", "H3(0,1,0)"],
     {"u": "H3(2,2,2)", "v": "H3(0,1,0)", "value": "-3/4"}),
    ("three-row", ["character", "--u", "H3(1,1,0)", "--v", "H3(0,1,0)"],
     {"u": "H3(1,1,0)", "v": "H3(0,1,0)", "value": "-1/2"}),
    ("three-row", ["bound-probe", "--radius", "2"],
     {"argmax": "H3(0,-2,0)", "max_norm": "1.90394327647", "p": "2", "radius": 2}),
    ("three-row", ["bound-probe", "--radius", "2", "-p", "inf"],
     {"argmax": "H3(0,-1,0)", "max_norm": "1", "p": "inf", "radius": 2}),
], ids=lambda c: c if isinstance(c, str) else None)
def test_character_and_bound_probe_negate_nothing(capsys, monkeypatch, tmp_path,
                                                 name, argv, want):
    # the cross-check reads phi termwise and a norm reads only |c|: neither
    # command runs the derivation kernel, the one that negates phi
    def refuse(*args, **kwargs):
        raise AssertionError("negation work")

    monkeypatch.setattr(dv.Potential, "add_derivation", refuse)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(NEGATION_FREE_POTENTIALS[name]))
    argv = [argv[0], "--potential", str(path), *argv[1:]]
    assert run(capsys, argv) == (0, _cli_json(want), "")


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
        # once that no float holds the norm.  A potential file names it only
        # with Python's int/str digit limit off: the loader refuses an
        # exponent past that limit
        mul = Fraction.__mul__

        def small_mul(a, b):
            for x in (a, b):
                if isinstance(x, Fraction) and max(x.numerator.bit_length(),
                                                   x.denominator.bit_length()) > 10**5:
                    raise AssertionError("a Fraction product of over 10^5 bits")
            return mul(a, b)

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            path = potential("1e2000000")
            monkeypatch.setattr(Fraction, "__mul__", small_mul)
            code, out, err = run(capsys, ["bound-probe", "--potential", path, "--radius", "1"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert err == "error: norm exceeds the float range\n"

    @pytest.mark.parametrize("argv", [
        ["derive", "--element", "H3(0,1,0)"],
        ["character", "--u", "H3(1,1,0)", "--v", "H3(0,1,0)"],
    ])
    def test_rational_too_large_to_print_exits_2(self, capsys, potential, argv):
        # 1e4300 is read exactly, and has more digits than Python prints
        code, out, err = run(capsys, argv + ["--potential", potential("1e4300")])
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

    def test_unprintable_m_max_refused_before_its_sums(self, capsys):
        # the prefix sums up to 10^6 would take gigabytes
        tracemalloc.start()
        try:
            result = run(capsys, ["appendix", "--m-max", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, "", "error: a rational value is too large to print\n")
        assert peak < 10**6


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
        assert err == f"error: q must be >= 1, got {float(q)}\n"

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

    def test_builds_one_element_per_power(self, capsys, two_point_potential):
        # a^k steps and the hit finder conjugates the support on payloads,
        # and the table entries are decoded to payloads, for any number of
        # powers; no d(a^k) is built
        code, out, _ = run(capsys, ["limit", "--potential", two_point_potential,
                                    "--conjugator", "Ax.Ap", "--k-max", "12",
                                    "--format", "json"])
        assert code == 0
        assert json.loads(out)["separation_index"] == 2


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

    # the stderr of the refusals that import argparse only once they happen,
    # byte for byte, at an 80-column terminal; python3.13 wraps usage lines
    # at option boundaries
    GRAPH_USAGE = ("usage: conjlab graph [-h] --model MODEL --base BASE --radius RADIUS\n"
                   "                     [--suppress-loops] [--format {dot,json}]\n"
                   "                     [--budget-nodes BUDGET_NODES]\n")
    STABILISE_USAGE = (
        "usage: conjlab stabilise [-h] --potential POTENTIAL --base BASE\n"
        "                         --radius RADIUS --radii RADII\n"
        "                         [--budget-nodes BUDGET_NODES]\n"
        if sys.version_info >= (3, 13) else
        "usage: conjlab stabilise [-h] --potential POTENTIAL --base BASE --radius\n"
        "                         RADIUS --radii RADII [--budget-nodes BUDGET_NODES]\n")

    @pytest.mark.parametrize("env, argv, err", [
        ("-1", ["graph", "--model", "h3", "--base", "e", "--radius", "1"],
         "error: bad CONJLAB_DEFAULT_BUDGET: '-1'\n"),
        ("abc", ["graph", "--model", "h3", "--base", "e", "--radius", "1"],
         "error: bad CONJLAB_DEFAULT_BUDGET: 'abc'\n"),
        (None, ["graph", "--model", "h3", "--base", "e", "--radius", "-1"],
         GRAPH_USAGE + "conjlab graph: error: argument --radius: must be >= 0, got -1\n"),
        (None, ["stabilise", "--potential", "p.json", "--base", "e", "--radius", "1",
                "--radii", "1,-1"],
         STABILISE_USAGE
         + "conjlab stabilise: error: argument --radii: must be >= 0, got -1\n"),
    ], ids=["budget-env-negative", "budget-env-text", "radius-negative", "radii-negative"])
    def test_refusals_print_pinned_bytes(self, capsys, monkeypatch, env, argv, err):
        monkeypatch.setenv("COLUMNS", "80")
        if env is None:
            monkeypatch.delenv("CONJLAB_DEFAULT_BUDGET", raising=False)
        else:
            monkeypatch.setenv("CONJLAB_DEFAULT_BUDGET", env)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", err)

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

    @pytest.mark.parametrize("value, exponent", [
        ("1e100000000", "100000000"), ("-2.5E+100000000", "+100000000"),
        ("1e-4301", "-4301"), (" 7e4301 ", "4301"),
    ])
    def test_exponent_past_the_digit_limit_exits_2_at_once(self, capsys, tmp_path, value,
                                                           exponent):
        # Fraction would build 10^(10^8) first, which takes minutes; the
        # exponent is refused as an entry with too many digits is
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"model": "h3", "table": [["H3(1,0,0)", value]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, ["leibniz", "--potential", str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == (f"error: cannot load potential file {path}: bad table entry: "
                       f"exponent {exponent} exceeds the limit ({limit} digits)\n")

    def test_exponent_at_the_digit_limit_loads(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        value = f"1e{sys.get_int_max_str_digits()}"
        path.write_text(json.dumps({"model": "h3", "table": [["H3(1,0,0)", value]]}))
        code, out, _ = run(capsys, ["leibniz", "--potential", str(path), "--samples", "5"])
        assert (code, out) == (0, "0 violations in 5 samples (max residual 0)\n")

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

    @pytest.mark.parametrize("argv", [
        ["derive", "--element", "e"],
        ["leibniz"],
        ["character", "--u", "e", "--v", "e"],
        ["quasi-inner"],
        ["stabilise", "--base", "e", "--radius", "0", "--radii", "0"],
        ["bound-probe", "--radius", "0"],
        ["limit", "--conjugator", "Ax"],
    ], ids=lambda argv: argv[0])
    def test_potential_nested_too_deep_exits_2(self, capsys, tmp_path, argv):
        # json.load raises RecursionError past the recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        code, out, err = run(capsys, argv[:1] + ["--potential", str(path)] + argv[1:])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot load potential file {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

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


def required_argv(name):
    """`name` with each of its required options set to "1"."""
    required = [flags[0] for flags, kw in COMMANDS[name][2] if kw.get("required")]
    return [name] + [tok for flag in required for tok in (flag, "1")]


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

    # a well-formed command is read from the command table and builds no
    # parser; its help builds the full tree alone
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_a_command_builds_one_subparser(self, capsys, monkeypatch, built, name):
        monkeypatch.setattr(cli, COMMANDS[name][0].__name__, lambda args: [args.command])
        assert main(required_argv(name)) == 0
        assert capsys.readouterr().out == name and built == []
        with pytest.raises(SystemExit):
            main([name, "-h"])
        assert built == self.FULL_TREE

    def test_a_run_builds_one_subparser(self, capsys, built):
        assert main(["appendix", "--m-max", "2"]) == 0
        assert built == []

    def test_top_level_help_builds_every_subparser(self, capsys, built):
        with pytest.raises(SystemExit):
            main(["-h"])
        assert built == self.FULL_TREE and len(built) == 12

    def test_a_leftover_argument_builds_the_full_tree(self, capsys, built):
        with pytest.raises(SystemExit):
            main(["appendix", "--m-max", "2", "--bogus"])
        assert built == self.FULL_TREE

    @pytest.mark.parametrize("argv", [
        ["appendix", "--m-max", "x"], ["appendix", "--format", "nope"],
        ["appendix", "--m-max"], ["derive", "--element", "e"], ["graph", "extra"],
    ])
    def test_an_error_builds_only_the_full_tree(self, capsys, built, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert built == self.FULL_TREE

    def test_no_string_default_is_converted(self):
        # argparse converts a string default by its `type`; the reader does not
        for name, (_, _, arguments) in COMMANDS.items():
            for flags, kw in arguments:
                assert not (isinstance(kw.get("default"), str) and "type" in kw), flags


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


VALUES = ["0", "7", "1_000", "1.5", "inf", "nan", "1e3", "", "x1^-1", "1,2"]


def converts(kw, text) -> bool:
    """Whether argparse takes `text` as the value of the option `kw`."""
    try:
        value = kw.get("type", str)(text)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return value in kw.get("choices", [value])


@st.composite
def table_argv(draw):
    """A command and its own option strings in full, in any order, repeats
    included, the required ones mostly present; each value is one of
    `VALUES` or a choice, and seldom one that fails its type."""
    name = draw(st.sampled_from(list(COMMANDS)))
    arguments = COMMANDS[name][2]
    required = [arg for arg in arguments if arg[1].get("required")]
    if draw(st.integers(0, 9)) == 0:
        required = required[1:]
    picked = draw(st.permutations(
        required + draw(st.lists(st.sampled_from(arguments), max_size=5))))
    argv = [name]
    for flags, kw in picked:
        argv.append(draw(st.sampled_from(flags)))
        if kw.get("action") != "store_true":
            values = VALUES + kw.get("choices", [])
            good = [text for text in values if converts(kw, text)]
            junk = [text for text in values if text not in good]
            bad = junk and draw(st.integers(0, 19)) == 0
            argv.append(draw(st.sampled_from(junk if bad else good)))
    return argv


def test_table_argv_parse_as_with_the_full_parser():
    fallbacks = []

    def ours(argv):
        with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as built:
            try:
                return cli.parse(argv, BUDGET)
            finally:
                fallbacks.append(built.call_count)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(table_argv())
    def check(argv):
        outcome = parse_outcome(ours, argv)
        assert outcome == parse_outcome(full_parse, argv)
        assert isinstance(outcome[0], str) or outcome[0] == 2

    check()
    # the reader, not the full tree, parsed most of them
    assert sum(fallbacks) < len(fallbacks) / 2


@pytest.mark.parametrize("argv", [
    ["appendix", "-h"],
    ["appendix", "--m-max", "2", "--"],
    ["appendix", "--", "--m-max", "2"],
    ["appendix", "--m-max=2"],
    ["derive", "--potential", "phi.json", "--element", "e", "-p2"],
    ["derive", "--pot", "phi.json", "--element", "e"],
    ["leibniz", "--potential", "phi.json", "--seed", "-5"],
    ["limit", "--potential", "phi.json", "--conjugator", "a", "--q", "-1"],
    ["inverse-seq", "--model", "free2", "--u", "-", "--conjugator", "x2"],
    ["appendix", "--m-max", "2", "extra"],
    ["appendix", "--bogus", "2"],
], ids=["help", "dashes-after", "dashes-before", "equals", "attached", "abbreviated",
        "negative-seed", "negative-q", "dash-value", "positional", "unknown"])
def test_declined_forms_reach_the_full_tree(argv):
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as built:
        outcome = parse_outcome(lambda argv: cli.parse(argv, BUDGET), argv)
    assert built.call_count == 1
    assert outcome == parse_outcome(full_parse, argv)


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
    text = m.encode_payload(reduce(m.mul_payload, [x for _, x, _ in letters],
                                   m.identity_payload()))
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
    element = st.lists(st.sampled_from([x for _, x, _ in m.gen_triples]), max_size=4).map(
        lambda w: m.encode_payload(reduce(m.mul_payload, w, m.identity_payload())))
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


# ---------------------------------------------------------------------------
# The JSON writer against json.dumps, and `derive` against the convolution
# oracle, byte for byte


def written(obj, chunk=cli._CHUNK) -> str:
    """What `cli._emit` writes for `obj`, `chunk` text pieces per write."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(cli, "_CHUNK", chunk):
        cli._emit(obj)
    return out.getvalue()


TEXT = st.text() | st.text(alphabet='"\\/\x00\x07\x1f\x7f\u00e9\u2028\u2603\U0001d11e ab')
SCALARS = st.none() | st.booleans() | st.integers(-10**40, 10**40) | TEXT
ROWS = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.tuples(*[TEXT] * width) | st.lists(TEXT, min_size=width,
                                                                 max_size=width),
                           max_size=6))
MIXED_ROWS = st.lists(st.lists(SCALARS, max_size=4) | st.tuples(TEXT, SCALARS), max_size=6)


class RowsInput:
    """A `cli._Rows` of `width` cells a row, its rows given as a generator
    where `lazy`; `writer_inputs` builds it."""

    def __init__(self, width, rows, lazy):
        self.width, self.rows, self.lazy = width, rows, lazy

    def __repr__(self):
        return f"RowsInput({self.width}, {self.rows!r}, {self.lazy})"


TEXT_ROWS = st.integers(1, 4).flatmap(lambda width: st.builds(
    RowsInput, st.just(width), st.lists(st.tuples(*[TEXT] * width), max_size=6), st.booleans()))
JSON_VALUES = st.recursive(
    SCALARS | ROWS | MIXED_ROWS | TEXT_ROWS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(TEXT, kids, max_size=4)
                  | st.dictionaries(st.integers(-3, 3), kids, max_size=3)),
    max_leaves=30)


def writer_inputs(obj):
    """(what `_emit` is given, what json.dumps is given) for `obj`: each
    `RowsInput` is a `cli._Rows` for the one and its rows as lists for the
    other, where a cell that is not a str is an object json.dumps refuses."""
    if isinstance(obj, RowsInput):
        rows = (row for row in obj.rows) if obj.lazy else obj.rows
        return cli._Rows(obj.width, rows), [
            [c if isinstance(c, str) else object() for c in row] for row in obj.rows]
    if isinstance(obj, dict):
        pairs = [(k, writer_inputs(v)) for k, v in obj.items()]
        return {k: v[0] for k, v in pairs}, {k: v[1] for k, v in pairs}
    if isinstance(obj, (list, tuple)):
        pairs = [writer_inputs(v) for v in obj]
        return type(obj)(v[0] for v in pairs), type(obj)(v[1] for v in pairs)
    return obj, obj


def text_or_type_error(write, obj) -> str:
    try:
        return write(obj)
    except TypeError:
        return "TypeError"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(JSON_VALUES, st.sampled_from([1, 2, 5, cli._CHUNK]))
@example(RowsInput(1, [("a",), ('"\\\x00\u00e9\U0001d11e',)], lazy=True), 1)
@example({"image": RowsInput(3, [("H3(1,0,0)", "-1/2", "0")] * 3, lazy=False)}, 2)
@example([RowsInput(3, [], lazy=True), {"e": RowsInput(1, [], lazy=False)}], 1)
@example({"rows": RowsInput(2, [("a", "b"), ("c", 1)], lazy=True)}, cli._CHUNK)
def test_writer_matches_json_dumps(obj, chunk):
    # _Rows: width 1 and 3, no rows, a generator read once, quotes,
    # backslashes, control characters and non-ASCII text, and a cell that
    # is not a str, which both refuse with TypeError
    fast, plain = writer_inputs(obj)
    assert text_or_type_error(lambda obj: written(obj, chunk), fast) == text_or_type_error(
        _cli_json, plain)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ROWS | MIXED_ROWS, st.sampled_from([1, 3, cli._CHUNK]))
def test_writer_reads_an_iterator_as_its_list(rows, chunk):
    assert written({"rows": iter(rows), "n": len(rows)}, chunk) == _cli_json(
        {"rows": rows, "n": len(rows)})


@pytest.mark.parametrize("obj", [{"norm": 1.5}, [0.0], {2.5: "x"}])
def test_writer_refuses_a_float(obj):
    with pytest.raises(TypeError):
        written(obj)


def test_writer_writes_in_chunks():
    rows = [(f"H3(1,{-k},{-k})", f"1/{k}", "0") for k in range(1, 5001)]
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    with contextlib.redirect_stdout(Recorder()):
        cli._emit({"image": rows})
    assert "".join(writes) == _cli_json({"image": rows})
    assert len(writes) > len(rows) // cli._CHUNK
    assert max(map(len, writes)) < len("".join(writes)) // 4


class Unwritable:
    """A stdout that fails the test on any write."""

    def write(self, text):
        raise AssertionError(f"wrote {text!r}")


# one argv per command, each format of a command that has two; PHI stands
# for the two-point potential's path
HANDLER_ARGVS = [
    ["graph", "--model", "h3", "--base", "H3(1,0,0)", "--radius", "2"],
    ["graph", "--model", "h3", "--base", "H3(1,0,0)", "--radius", "2", "--format", "json"],
    ["bc", "--model", "h3", "--k", "H3(1,0,0)", "--k", "H3(1,0,1)",
     "--cayley-radius", "2", "--diam-budget", "4"],
    ["derive", "--potential", "PHI", "--element", "H3(0,1,0)"],
    ["leibniz", "--potential", "PHI", "--samples", "5"],
    ["character", "--potential", "PHI", "--u", "H3(1,0,0)", "--v", "H3(0,1,0)"],
    ["quasi-inner", "--potential", "PHI", "--samples", "5"],
    ["stabilise", "--potential", "PHI", "--base", "H3(1,0,0)", "--radius", "2",
     "--radii", "0,1"],
    ["bound-probe", "--potential", "PHI", "--radius", "1"],
    ["appendix", "--m-max", "4", "--n-max", "2"],
    ["appendix", "--m-max", "4", "--n-max", "2", "--format", "json"],
    ["limit", "--potential", "PHI", "--conjugator", "Ax", "--k-max", "3"],
    ["limit", "--potential", "PHI", "--conjugator", "Ax", "--k-max", "3", "--format", "json"],
    ["inverse-seq", "--model", "free2", "--u", "x1", "--conjugator", "x2", "--k-max", "2"],
    ["inverse-seq", "--model", "free2", "--u", "x1", "--conjugator", "x2", "--k-max", "2",
     "--format", "json"],
]


@pytest.mark.parametrize("argv", HANDLER_ARGVS, ids=" ".join)
def test_handlers_return_what_main_writes(capsys, two_point_potential, argv):
    argv = [two_point_potential if a == "PHI" else a for a in argv]
    with contextlib.redirect_stdout(Unwritable()):
        args = cli.parse(argv, DEFAULT_NODE_BUDGET)
        out = args.fn(args)
        # a JSON document is a dict, whose lists may be iterators and whose
        # objects may be `_Members` streams; text is an iterable of pieces;
        # either is read here without a write
        def stream(obj):
            if isinstance(obj, cli._Members):
                return dict(obj.pairs)
            return list(obj.rows if isinstance(obj, cli._Rows) else obj)

        text = (json.dumps(out, sort_keys=True, ensure_ascii=False, indent=2, default=stream)
                + "\n" if isinstance(out, dict) else "".join(out))
    assert run(capsys, argv) == (0, text, "")


def oracle_derive_stdout(phi, g, p):
    """`derive`'s stdout for an exact potential at the payload g:
    d(g) = a g - g a, a the potential's table as a vector, by convolution."""
    image = inner_derivation_apply(GroupRingVector(phi.model, dict(phi.table)),
                                   delta(phi.model, g))
    encode = phi.model.encode_payload
    return _cli_json({
        "element": encode(g),
        "image": sorted([encode(u), str(c), "0"] for u, c in image.terms.items()),
        "norm_p": fmt_float(image.lp_norm(p)),
        "p": fmt_float(p),
        "exact": True,
        "truncation": None,
    })


DERIVE_MODELS = all_models()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(range(len(DERIVE_MODELS))), st.integers(0, 2**32),
       st.sampled_from(["1", "2", "2.5", "inf"]), st.booleans())
def test_derive_matches_the_convolution_oracle(tmp_path_factory, index, seed, p, central):
    model, rng = DERIVE_MODELS[index], Random(seed)
    phi = random_potential(model, rng, size=rng.randint(0, 4), max_len=3)
    g = model.identity_payload() if central else random_payload(model, rng, max_len=3)
    path = tmp_path_factory.getbasetemp() / "derive_oracle.json"
    encode = model.encode_payload
    path.write_text(json.dumps({"model": model.name,
                                "table": [[encode(p), str(v)] for p, v in phi.table.items()]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["derive", "--potential", str(path), "--element", model.encode_payload(g),
                     "-p", p])
    assert code == 0
    assert out.getvalue() == oracle_derive_stdout(phi, g, float(p))


def test_derive_of_a_central_element_prints_an_empty_image(capsys, two_point_potential):
    # A1 is central in h3, so d(A1) = 0
    code, out, _ = run(capsys, ["derive", "--potential", two_point_potential,
                                "--element", "H3(0,0,1)"])
    phi = dv.Potential.load(two_point_potential)
    assert code == 0 and '"image": []' in out
    assert out == oracle_derive_stdout(phi, phi.model.decode_payload("H3(0,0,1)"), 2.0)


def test_derive_memory_is_bounded_by_its_rows(tmp_path):
    # the image's 4000 rows are formatted once; building the document as
    # one string through json's pure-Python indent encoder peaks at 3.9 MB
    path = tmp_path / "harmonic.json"
    path.write_text(json.dumps({"model": "h3", "table": [],
                                "closed_form": "appendix_harmonic", "truncation": 2000}))
    assert traced_peak(["derive", "--potential", str(path), "--element", "H3(0,2,0)"]) < 3.2e6


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, code", [
    (["graph", "--model", "dinf", "--base", "a", "--radius", "1"], 0),
    (["graph", "--model", "dinf", "--base", "aa", "--radius", "1"], 2),
    (["graph", "--model", "dinf", "--base", "a", "--radius", "-1"], ("exit", 2)),
    (["bc", "--model", "h3", "--k", "H3(1,0,0)", "--cayley-radius", "3",
      "--budget-nodes", "2"], 3),
    (["character", "--u", "H3(1,0,0)", "--v", "H3(0,1,0)"], 4),
], ids=["0", "2", "2-argparse", "3", "4"])
def test_main_restores_the_collector_state(capsys, monkeypatch, two_point_potential,
                                           enabled, argv, code):
    if argv[0] == "character":
        argv = argv[:1] + ["--potential", two_point_potential] + argv[1:]
        monkeypatch.setattr(dv, "character", lambda phi, up, vp: Fraction(7))
    seen = []
    monkeypatch.setattr(cli, "_default_node_budget",
                        lambda: seen.append(gc.isenabled()) or DEFAULT_NODE_BUDGET)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            got = main(argv)
        except SystemExit as exc:
            got = ("exit", exc.code)
        assert (got, gc.isenabled(), seen) == (code, enabled, [False])
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_paused_collector_holds_no_garbage_that_grows_with_the_support(capsys, tmp_path):
    # a command's data are freed by reference counts while the collector
    # is paused: what it finds afterwards is the same at either truncation
    def garbage_after_derive(trunc):
        path = tmp_path / f"harmonic{trunc}.json"
        path.write_text(json.dumps({"model": "h3", "table": [],
                                    "closed_form": "appendix_harmonic", "truncation": trunc}))
        gc.collect()
        assert main(["derive", "--potential", str(path), "--element", "H3(1,0,0)"]) == 0
        return gc.collect()

    garbage_after_derive(50)  # first-call caches
    assert garbage_after_derive(50) == garbage_after_derive(5000)
    capsys.readouterr()
