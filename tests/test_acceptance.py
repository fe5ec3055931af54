"""End-to-end acceptance checks, one per headline claim.

Each test prints a single "ACCEPTANCE n: PASS" line on success and enforces
the stated runtime budget where one applies.
"""

import itertools
import json
import math
import time
from fractions import Fraction
from random import Random

from conjlab import (
    Derivation,
    DihedralInf,
    Potential,
    parse_word,
    bc_probe,
    conj_distance,
    explore_component,
    get_model,
    leibniz_residual,
    run_appendix,
    run_limit_experiment,
)
from conjlab.ring import GroupRingVector
from conjlab.derivations import g_boundedness_probe
from conjlab.groups import random_payload

from conftest import (all_models, character_from_potential, compose_morphisms, delta,
                      inner_derivation_apply, mat_inv, mat_mul, mat_of, random_composable_pair,
                      random_potential, triple_of)


def test_acceptance_01_heisenberg_exhaustive_matrix_oracle(h3):
    start = time.perf_counter()
    box = list(itertools.product(range(-3, 4), repeat=3))
    mats = {p: mat_of(p) for p in box}
    for p in box:
        assert h3.inv_payload(p) == triple_of(mat_inv(mats[p]))
    for p1 in box:
        m1 = mats[p1]
        m1_inv = mat_inv(m1)
        for p2 in box:
            prod = h3.multiply(p1, p2)
            assert prod == triple_of(mat_mul(m1, mats[p2]))
            conj = h3.conjugate(p1, p2)
            assert conj == triple_of(mat_mul(mat_mul(m1, mats[p2]), m1_inv))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1: PASS — exhaustive [-3,3]^3 multiply/invert/conjugate "
          f"match the matrix oracle in {elapsed:.2f}s")


def test_acceptance_02_component_ball_matches_golden(h3):
    # the DOT bytes of this ball are the command corpus's `graph --model h3
    # --base H3(1,0,0) --radius 5`; here the graph is rebuilt independently
    ball = explore_component(h3, (1, 0, 0), radius=5)
    assert ball.vertices == {(1, 0, k) for k in range(-5, 6)}
    expected_edges = set()
    for k in range(-5, 6):
        for label in ("Ap", "Ap^-1", "A1", "A1^-1"):
            expected_edges.add((f"H3(1,0,{k})", label, f"H3(1,0,{k})"))
        if k - 1 >= -5:
            expected_edges.add((f"H3(1,0,{k})", "Ax", f"H3(1,0,{k - 1})"))
        if k + 1 <= 5:
            expected_edges.add((f"H3(1,0,{k})", "Ax^-1", f"H3(1,0,{k + 1})"))
    assert set(ball.edge_rows()) == expected_edges
    print("ACCEPTANCE 2: PASS — 11-vertex component ball is graph-identical "
          "to its independent rebuild")


def test_acceptance_03_bc_plateau_one(h3):
    start = time.perf_counter()
    K = [(1, 0, 0), (1, 0, 1)]
    report = bc_probe(h3, K, max_cayley_radius=6, diam_budget=8)
    assert all(d == 1 for _, d in report.shells)
    assert report.verdict == "Plateau(1)"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3: PASS — bc probe plateaus at diameter 1 over cayley "
          f"radius 6 in {elapsed:.2f}s")


def test_acceptance_04_semidirect_bc_violation():
    m = get_model("h3semi")
    Ap = m.decode_payload("H3(1,0,0)")
    Ax = m.decode_payload("H3(0,1,0)")
    for k in range(1, 9):
        shifter = m.identity_payload()
        for _ in range(k):
            shifter = m.multiply(shifter, Ax)
        moved = m.conjugate(shifter, Ap)
        assert conj_distance(m, Ap, moved, budget=12) == k
    report = bc_probe(m, [Ax, Ap], max_cayley_radius=4, diam_budget=16)
    assert report.verdict == "Growing"
    print("ACCEPTANCE 4: PASS — conjugation by Ax^k moves Ap exactly k steps "
          "for k=1..8 and the bc probe reports Growing")


def test_acceptance_05_infinite_dihedral_structure():
    d = DihedralInf()
    cls = explore_component(d, d.decode_payload("ababab"), radius=10)
    assert cls.closed and cls.complete
    assert set(map(d.encode_payload, cls.vertices)) == {"ababab", "bababa"}

    ray = explore_component(d, d.decode_payload("a"), radius=6)
    assert len(ray.vertices) == 7
    by_dist = {}
    for v, dv in ray.depths.items():
        by_dist.setdefault(dv, []).append(v)
    assert sorted(by_dist) == list(range(7))
    assert all(len(vs) == 1 for vs in by_dist.values())
    assert conj_distance(d, d.decode_payload("a"), d.decode_payload("bab"), budget=4) == 1
    print("ACCEPTANCE 5: PASS — [(ab)^3] = {(ab)^3, (ba)^3} and the component "
          "of a is a ray with rho(a, bab) = 1")


def test_acceptance_06_character_additivity():
    violations = 0
    for model in all_models():
        rng = Random(601)
        phi = random_potential(model, rng)
        for _ in range(500):
            psi, chi_m = random_composable_pair(model, rng)
            lhs = character_from_potential(phi, compose_morphisms(psi, chi_m))
            rhs = character_from_potential(phi, chi_m) + character_from_potential(
                phi, psi
            )
            if lhs != rhs:
                violations += 1
    assert violations == 0
    print("ACCEPTANCE 6: PASS — character additivity exact on 500 composable "
          "pairs for each of the 6 models (0 violations)")


def test_acceptance_07_leibniz_and_inner_identification():
    for model in all_models():
        rng = Random(701)
        for _ in range(10):
            phi = random_potential(model, rng)
            for _ in range(50):
                g = random_payload(model, rng, max_len=4)
                h = random_payload(model, rng, max_len=4)
                assert leibniz_residual(phi, g, h) == {}
        table = {
            random_payload(model, rng, max_len=3): Fraction(
                rng.randint(-4, 4), rng.randint(1, 4)
            )
            for _ in range(4)
        }
        x = GroupRingVector(model, {p: c for p, c in table.items() if c})
        d_pot = Derivation(Potential(model, table))
        for _ in range(100):
            g = random_payload(model, rng)
            assert inner_derivation_apply(x, delta(model, g)) == d_pot.apply(g)
    print("ACCEPTANCE 7: PASS — Leibniz residual exactly 0 on 500 pairs/model "
          "for 10 random potentials, and inner = potential-induced on 100 g/model")


def test_acceptance_08_window_sum_certificate():
    start = time.perf_counter()
    report = run_appendix(64, 64)  # hard-fails internally on engine mismatch

    def harmonic(n):
        return sum(Fraction(1, j) for j in range(1, n + 1))

    for row in report.rows:
        m = row.m
        for n, value in row.coeff_table:
            if n <= m + 1:
                # independent route: the window sum telescopes into
                # harmonic-number differences
                want = harmonic(m + n) - harmonic(max(n - m - 1, 0)) - Fraction(1, n)
            else:
                want = sum(
                    Fraction(1, k + n)
                    for k in range(max(-n + 1, -m), m + 1)
                    if k != 0
                )
            assert value == want
    assert dict(report.rows[1].coeff_table)[1] == Fraction(5, 6)

    ratios = {row.m: row.ratio_lower_bound for row in report.rows}
    checkpoints = [4, 8, 16, 32, 64]
    for m in checkpoints:
        exact = math.sqrt(m) * float(harmonic(m) - 1) / math.sqrt(2 * m + 1)
        assert abs(ratios[m] - exact) < 1e-9
    seq = [ratios[m] for m in checkpoints]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert ratios[64] > 2.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 8: PASS — 64x64 coefficient grid matches the exact "
          f"rational sums; ratio certificate climbs {seq[0]:.3f} -> "
          f"{seq[-1]:.3f} > 2 in {elapsed:.2f}s")


def _h3_mul(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])


def _h3_inv(p):
    return (-p[0], -p[1], p[0] * p[1] - p[2])


def test_acceptance_09_norm_limit(h3):
    table = {(1, 0, 0): 1, (1, 0, -1): Fraction(1, 2)}
    phi = Potential(h3, table)
    phi_raw = {(1, 0, 0): Fraction(1), (1, 0, -1): Fraction(1, 2)}
    for q in (1, 2, 3):
        report = run_limit_experiment(phi, parse_word(h3, "Ax"), q, k_max=8)
        assert report.separation_index == 2
        want_pow = 2 * (1 + Fraction(1, 2**q))
        for k, norm, exact in report.samples:
            if k >= 2:
                assert exact == want_pow
                assert norm == float(want_pow) ** (1.0 / q)
            # brute force: sum |phi(a t a^-1) - phi(t)|^q over the support
            # union, using plain triple arithmetic
            a = (0, k, 0)
            a_inv = _h3_inv(a)
            union = set(phi_raw)
            union.update(
                _h3_mul(_h3_mul(a_inv, t), a) for t in phi_raw
            )
            brute = Fraction(0)
            for t in union:
                conj_t = _h3_mul(_h3_mul(a, t), a_inv)
                c = phi_raw.get(conj_t, Fraction(0)) - phi_raw.get(t, Fraction(0))
                brute += abs(c) ** q
            assert brute == exact
    print("ACCEPTANCE 9: PASS — ||d(Ax^k)||_q = 2^(1/q)(1+2^-q)^(1/q) exactly "
          "for q in {1,2,3}, k >= 2, separation index 2, brute-force confirmed")


def test_acceptance_10_bounded_but_not_norm_bounded(h3):
    trunc = 400
    phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=trunc)
    max_norm, argmax = g_boundedness_probe(phi, radius=6, p=2)
    lq_pow = sum(v * v for v in phi._columns[1])
    bound = 2.0 * float(lq_pow + Fraction(1, phi.trunc_k)) ** 0.5  # sum_{k>K} 1/k^2 <= 1/K
    assert max_norm <= bound + 1e-9

    appendix = run_appendix(64, 1)
    ratios = [r.ratio_lower_bound for r in appendix.rows]
    assert all(b > a for a, b in zip(ratios[3:], ratios[4:]))
    assert ratios[-1] > 2.0

    report = {
        "g_bounded": {
            "radius": 6,
            "max_norm": max_norm,
            "argmax": h3.encode_payload(argmax),
            "bound_2phi2_plus_tail": bound,
        },
        "norm_unbounded": {
            "ratio_checkpoints": {m: ratios[m - 1] for m in (4, 8, 16, 32, 64)},
        },
    }
    print("ACCEPTANCE 10: PASS — " + json.dumps(report, sort_keys=True))
