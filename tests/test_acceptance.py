"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines while the
suite runs.
"""

import dataclasses

import numpy as np
import pytest

from conftest import (
    measured_records,
    random_ket,
    random_orthonormal_filters,
    random_preparation,
)
from reference_kernels import brute_force_visibility, eigh_fidelity, mixed_state
from whichway import (
    FringeDataset,
    Preparation,
    block_choi,
    distinguishability,
    environment_states,
    explicit_transpose_dilation,
    fit_fringes,
    fractional_visibility,
    generalized_visibility,
    identity_channel,
    ket,
    pauli_mixture_channel,
    pauli_noise_program,
    program_channel,
    random_path_channel,
    rectilinear_filters,
    rectilinear_preparations,
    replace_channel,
    simulate_fringes,
    single_preparation_certificate,
    swap_certificate,
    transpose_channel,
    verify_inequality,
    verify_noise_program,
)
from whichway.interferometer import CONVENTION

H, V = ket(0, 2), ket(1, 2)
SWAP_CELLS = (("hh", "hh"), ("hv", "vh"), ("vh", "hv"), ("vv", "vv"))


def _criterion(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}]: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_theory_grid():
    ch = pauli_mixture_channel()
    preps, filters = rectilinear_preparations(), rectilinear_filters()
    bright = set(SWAP_CELLS)
    ok = True
    for mu in preps:
        for nu in filters:
            rec = fractional_visibility(ch, preps[mu], filters[nu], mu=mu)
            target = 0.5 if (mu, nu) in bright else 0.0
            ok &= abs(rec.p - 0.5) <= 1e-10
            ok &= abs(abs(rec.visibility) - target) <= 1e-10
    _criterion(1, "theory grid: V = 1/2 on the four bright cells, 0 elsewhere, p = 1/2", ok)


def test_criterion_02_worked_channel_closed_forms():
    rng = np.random.default_rng(202)
    ok = True
    for d in (2, 3):
        prep = random_preparation(d, rng)
        ok &= abs(generalized_visibility(identity_channel(d), prep) - 1.0) <= 1e-9
    for _ in range(100):
        d = int(rng.integers(2, 4))
        prep = random_preparation(d, rng)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sigma0 = g @ g.conj().T
        sigma0 /= np.trace(sigma0).real
        vg = generalized_visibility(replace_channel(sigma0), prep)
        ok &= abs(vg - eigh_fidelity(mixed_state(prep, 0), mixed_state(prep, 1))) <= 1e-9
    pure = Preparation.pure(random_ket(2, rng), random_ket(2, rng))
    ok &= abs(generalized_visibility(transpose_channel(2), pure) - 0.5) <= 1e-9
    mixed = Preparation.completely_mixed(2)
    ok &= abs(generalized_visibility(transpose_channel(2), mixed) - 1.0) <= 1e-9
    _criterion(2, "closed forms: identity -> 1, replace -> fidelity (100 pairs), "
                  "transpose -> 1/2 pure and 1 mixed", ok)


def test_criterion_03_erasure_by_mixing():
    ch = explicit_transpose_dilation()
    ok = True

    e0, e1 = environment_states(ch, Preparation.pure(H, H))
    ref0 = np.zeros((4, 4), dtype=complex); ref0[0, 0] = ref0[1, 1] = 0.5
    ref1 = np.zeros((4, 4), dtype=complex); ref1[0, 0] = ref1[2, 2] = 0.5
    ok &= np.max(np.abs(e0 - ref0)) <= 1e-10
    ok &= np.max(np.abs(e1 - ref1)) <= 1e-10
    ok &= abs(distinguishability(e0, e1) - 0.5) <= 1e-9

    f0, f1 = environment_states(ch, Preparation.pure(V, V))
    ref0 = np.zeros((4, 4), dtype=complex); ref0[2, 2] = ref0[3, 3] = 0.5
    ref1 = np.zeros((4, 4), dtype=complex); ref1[1, 1] = ref1[3, 3] = 0.5
    ok &= np.max(np.abs(f0 - ref0)) <= 1e-10
    ok &= np.max(np.abs(f1 - ref1)) <= 1e-10

    g0, g1 = environment_states(ch, Preparation.completely_mixed(2))
    ok &= np.max(np.abs(g0 - np.eye(4) / 4)) <= 1e-10
    ok &= np.max(np.abs(g1 - np.eye(4) / 4)) <= 1e-10
    ok &= distinguishability(g0, g1) <= 1e-9
    _criterion(3, "which-way erasure: D = 1/2 for |h>, D = 0 for the mixed ensemble, "
                  "environment states entrywise correct", ok)


def test_criterion_04_inequality_property_suite():
    rng = np.random.default_rng(404)
    violations = 0
    for d in (2, 3):
        for _ in range(500):
            ch = random_path_channel(d, int(rng.integers(1, 5)),
                                     seed=int(rng.integers(2**31)))
            prep = random_preparation(d, rng)
            rep = verify_inequality(ch, prep)
            if rep.slack < -1e-8:
                violations += 1
    _criterion(4, "trade-off D^2 + V_G^2 <= 1 + 1e-8 on 1000 random instances "
                  f"(violations: {violations})", violations == 0)


def test_criterion_05_search_matches_closed_form():
    rng = np.random.default_rng(505)
    worst = 0.0
    for d, count in ((2, 100), (3, 25)):
        for _ in range(count):
            ch = random_path_channel(d, int(rng.integers(1, 4)),
                                     seed=int(rng.integers(2**31)))
            prep = random_preparation(d, rng)
            closed = generalized_visibility(ch, prep)
            res = brute_force_visibility(ch, prep, seed=int(rng.integers(2**31)))
            worst = max(worst, abs(res.value - closed))
            if not res.converged:
                worst = np.inf
    _criterion(5, f"unitary search matches the closed form within 1e-6 "
                  f"(worst |diff| = {worst:.2e})", worst <= 1e-6)


def test_criterion_06_measured_bounds():
    records = measured_records()
    cert = swap_certificate(records)
    row = [r for r in records if r.mu == "hh"]
    one = single_preparation_certificate("hh", row)
    ok = abs(cert.vg_lower - 0.9605) <= 5e-4
    ok &= abs(cert.d_upper - 0.279) <= 2e-3
    ok &= abs(one.vg_lower - 0.580) <= 5e-4
    ok &= abs(one.d_upper - 0.815) <= 5e-3
    _criterion(6, f"measured records: V_G >= {cert.vg_lower:.4f}, D <= {cert.d_upper:.4f}; "
                  f"single row V_G >= {one.vg_lower:.4f}, D <= {one.d_upper:.4f}", ok)


def test_criterion_07_certificate_verification_and_soundness():
    cert = swap_certificate(measured_records())
    ok = cert.contraction_slack <= 1e-9
    gram = cert.u_hat.conj().T @ cert.u_hat
    ok &= np.max(np.abs(gram - np.eye(4))) <= 1e-9

    rng = np.random.default_rng(707)
    worst = -np.inf
    for _ in range(500):
        ch = random_path_channel(2, int(rng.integers(1, 4)),
                                 seed=int(rng.integers(2**31)))
        psi0, psi1 = random_ket(2, rng), random_ket(2, rng)
        filters = random_orthonormal_filters(2, rng)
        records = [
            fractional_visibility(ch, (psi0, psi1), filters[nu], mu="m")
            for nu in filters
        ]
        c = single_preparation_certificate("m", records,
                                           preps={"m": (psi0, psi1)}, filters=filters)
        vg = generalized_visibility(ch, Preparation.pure(psi0, psi1))
        worst = max(worst, c.vg_lower - vg)
        ok &= c.vg_lower <= vg + 1e-8
    _criterion(7, "swap coefficients give a unitary contraction (slack <= 1e-9); "
                  f"500 random certificates sound (worst excess {worst:.2e})", ok)


def test_criterion_08_wave_plate_table():
    rows = verify_noise_program(pauli_noise_program())
    deviation = max(r.deviation for r in rows)
    ok = deviation <= 1e-9
    row = {r.target: r for r in rows}["Y,-Y"]
    ok &= np.max(np.abs(row.effective_pair[0] + row.effective_pair[1])) <= 1e-9
    avg = program_channel(rows)
    ref = pauli_mixture_channel()
    ok &= np.max(np.abs(block_choi(avg, 0, 1) - block_choi(ref, 0, 1))) <= 1e-9
    _criterion(8, f"plate table realizes all four pairs "
                  f"(convention: {CONVENTION}; dev {deviation:.1e}) "
                  "and averages to the half-transpose cross block", ok)


def _swap_pipeline_bound(contrast: float, seed: int) -> float:
    ch = pauli_mixture_channel()
    preps, filters = rectilinear_preparations(), rectilinear_filters()
    records = []
    for i, (mu, nu) in enumerate(SWAP_CELLS):
        ds = simulate_fringes(
            ch, preps[mu], filters[nu], shots_per_phase=10_000,
            contrast=contrast, seed=(seed, i),
        )
        records.append(dataclasses.replace(fit_fringes(ds), mu=mu, nu=nu))
    return swap_certificate(records).vg_lower


def test_criterion_09_monte_carlo_end_to_end():
    hits_96 = sum(
        0.94 <= _swap_pipeline_bound(0.96, seed) <= 0.98 for seed in range(100)
    )
    hits_100 = sum(
        0.99 <= _swap_pipeline_bound(1.0, 1_000 + seed) <= 1.0 for seed in range(100)
    )
    _criterion(9, f"simulated pipeline bound in band: contrast 0.96 -> {hits_96}/100 "
                  f"in [0.94, 0.98]; contrast 1.0 -> {hits_100}/100 in [0.99, 1.0]",
               hits_96 >= 95 and hits_100 >= 95)


def test_criterion_10_fit_coverage():
    rng = np.random.default_rng(1010)
    phases = np.linspace(0.0, 2 * np.pi, 13)
    n = 10_000
    p_true, v_true, delta = 0.5, 0.48, 0.7
    hits = 0
    for _ in range(100):
        mean_plus = n * 0.5 * (p_true + v_true * np.cos(phases + delta))
        mean_minus = n * 0.5 * (p_true - v_true * np.cos(phases + delta))
        counts = [rng.poisson(mean_plus), rng.poisson(mean_minus),
                  rng.poisson(np.full(len(phases), n * 0.25)),
                  rng.poisson(np.full(len(phases), n * 0.25))]
        ds = FringeDataset(tuple(phases), np.array(counts), n, (0,), (1.0,) * 4)
        fit = fit_fringes(ds)
        if (abs(fit.p - p_true) <= 3 * fit.sigma_p
                and abs(abs(fit.visibility) - v_true) <= 3 * fit.sigma_v):
            hits += 1
    _criterion(10, f"fit recovers (p, |V|) within 3 sigma in {hits}/100 "
                   "Poisson trials", hits >= 95)
