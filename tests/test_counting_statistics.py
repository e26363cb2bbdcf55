"""The law of the simulated counts, checked against exact moments.

For each channel, the 16 rectilinear cells of ``run_experiment`` are drawn
under many seeds at unequal efficiencies, so every detector is thinned to the
lowest one. The exact law of one cell and phase is a sum over arm-unitary rows
r of multinomials over the four detectors, n_r shots each with the
probabilities p_r of ``_probability_tables`` thinned by that efficiency m:
q_r = m p_r, mean sum_r n_r q_r and covariance
sum_r n_r (diag(q_r) - q_r q_r^T). The tests compare the seeded counts with
those moments cell by cell, pool them into one chi-square statistic and check
that the cells are independent of each other. They test the law of the draws,
not the layout of the random streams, so they hold for any seeding that draws
from that law.
"""

import functools

import numpy as np
import pytest
from scipy import stats

from whichway import (
    pauli_mixture_channel,
    random_path_channel,
    rectilinear_filters,
    rectilinear_preparations,
)
from whichway.channels import pure_pair
from whichway.interferometer import _probability_tables, _simulate_cells

SEEDS = 400
SHOTS = 2000
CONTRAST = 0.96
EFFICIENCIES = (0.9, 1.0, 0.75, 0.8)
CHANNELS = {
    "pauli": pauli_mixture_channel,  # four arm-unitary rows
    "pooled(2,3,17)": lambda: random_path_channel(2, 3, 17),  # one pooled row
}


@functools.cache
def _sample(label):
    """Seeded counts (seeds, cells, phases, 4) and their exact mean
    (cells, phases, 4) and covariance (cells, phases, 4, 4)."""
    ch = CHANNELS[label]()
    preps, filters = rectilinear_preparations(), rectilinear_filters()
    draws = []
    for s in range(SEEDS):
        phases, counts, _ = _simulate_cells(ch, preps, filters, None, SHOTS, EFFICIENCIES,
                                            CONTRAST, (2024, s))
        draws.append(counts.transpose(0, 2, 1))
    kets = [pure_pair(preps[mu], 2) for mu in sorted(preps)]
    chis = [(filters[nu].chi0, filters[nu].chi1) for nu in sorted(filters)]
    shots, tables = _probability_tables(ch, kets, chis, phases, CONTRAST, SHOTS)
    n = np.asarray(shots, dtype=float)
    q = min(EFFICIENCIES) * tables
    mean = np.einsum("r,cjri->cji", n, q)
    cov = -np.einsum("r,cjri,cjrk->cjik", n, q, q)
    cov[..., range(4), range(4)] += mean
    return np.array(draws), mean, cov


@pytest.mark.parametrize("label", list(CHANNELS))
def test_counts_have_the_multinomial_mean_and_covariance(label):
    x, mean, cov = _sample(label)
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    live = var > 0
    # a detector that sees no photons counts none
    assert not x[:, ~live].any() and not mean[~live].any()
    z_mean = (x.mean(axis=0) - mean)[live] / np.sqrt(var[live] / SEEDS)
    assert np.abs(z_mean).max() < 5

    # sample covariance against the exact one, in units of its normal-theory
    # standard error sqrt((S_ii S_kk + S_ik^2) / seeds)
    dev = x - mean
    sample = np.einsum("scji,scjk->cjik", dev, dev) / SEEDS
    se = np.sqrt((var[..., :, None] * var[..., None, :] + cov**2) / SEEDS)
    pair = live[..., :, None] & live[..., None, :]
    z_cov = (sample - cov)[pair] / se[pair]
    assert np.abs(z_cov).max() < 5
    assert abs(np.mean(z_cov**2) - 1) < 0.15


@pytest.mark.parametrize("label", list(CHANNELS))
def test_pooled_counts_pass_a_chi_square_test(label):
    # the counts of each cell and phase summed over every seed, against
    # seeds x mean with covariance seeds x cov; one statistic over all cells
    x, mean, cov = _sample(label)
    dev = x.sum(axis=0) - SEEDS * mean
    chi2 = dof = 0
    for d, c in zip(dev.reshape(-1, 4), cov.reshape(-1, 4, 4)):
        w, v = np.linalg.eigh(SEEDS * c)
        keep = w > 1e-9 * w.max()
        proj = v[:, keep].T @ d
        chi2 += np.sum(proj**2 / w[keep])
        dof += keep.sum()
    p_value = stats.chi2.sf(chi2, dof)
    assert 1e-3 < p_value < 1 - 1e-3, (chi2, dof)


@pytest.mark.parametrize("label", list(CHANNELS))
def test_cells_draw_independently(label):
    # for each phase and detector, the correlation over seeds of every pair
    # of cells; independent cells give sqrt(seeds) * r close to N(0, 1)
    x, mean, cov = _sample(label)
    live = (np.diagonal(cov, axis1=-2, axis2=-1) > 0).transpose(1, 2, 0)  # (phases, 4, cells)
    dev = x - x.mean(axis=0)
    z = dev / np.where(live.transpose(2, 0, 1), dev.std(axis=0), 1.0)
    r = np.einsum("scji,sdji->jicd", z, z) / SEEDS
    pairs = np.triu(live[..., :, None] & live[..., None, :], k=1)
    scaled = np.sqrt(SEEDS) * r[pairs]
    assert scaled.size > 1000
    assert np.abs(scaled).max() < 5
    assert stats.chi2.sf(np.sum(scaled**2), scaled.size) > 1e-3
