import json

import pytest

from conjlab.cli import main


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


class TestLeibniz:
    def test_zero_violations(self, capsys, two_point_potential):
        code, out, _ = run(
            capsys,
            ["leibniz", "--potential", two_point_potential, "--samples", "50"],
        )
        assert code == 0
        assert out.strip() == "0 violations in 50 samples (max residual 0)"


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

    def test_decreasing_radii_exit_2(self, capsys, two_point_potential):
        code, _, _ = run(
            capsys,
            ["stabilise", "--potential", two_point_potential,
             "--base", "H3(1,0,0)", "--radius", "4", "--radii", "2,1"],
        )
        assert code == 2


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


class TestLimit:
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

    def test_budget_env_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("CONJLAB_DEFAULT_BUDGET", "3")
        code, out, _ = run(
            capsys,
            ["graph", "--model", "h3", "--base", "H3(1,0,0)", "--radius", "9",
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["complete"] is False
