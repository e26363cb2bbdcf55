"""Shared helpers for the test suite."""

import numpy as np

from whichway import FilterPair, FractionalVisibilityRecord, Preparation

# Measured filtering probabilities and fractional visibilities from the
# single-photon run of the four-unitary noise mixture (uncertainties are
# below 0.003 for every value). Keys are (preparation, filter) labels.
MEASURED_VALUES = {
    ("hh", "hh"): (0.489, 0.476),
    ("hv", "vh"): (0.513, 0.488),
    ("vh", "hv"): (0.511, 0.479),
    ("vv", "vv"): (0.489, 0.478),
    ("hh", "vv"): (0.512, 0.104),
    ("hv", "hv"): (0.490, 0.039),
    ("vh", "vh"): (0.490, 0.032),
    ("vv", "hh"): (0.512, 0.100),
}


def measured_records(sigma: float = 0.003) -> list[FractionalVisibilityRecord]:
    return [
        FractionalVisibilityRecord(mu=mu, nu=nu, p=p, visibility=complex(v),
                                   sigma_p=sigma, sigma_v=sigma)
        for (mu, nu), (p, v) in MEASURED_VALUES.items()
    ]


def random_ket(d: int, rng) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_preparation(d: int, rng) -> Preparation:
    if rng.random() < 0.5:
        return Preparation.pure(random_ket(d, rng), random_ket(d, rng))
    m = int(rng.integers(2, 4))
    weights = rng.dirichlet(np.ones(m))
    pairs = [(random_ket(d, rng), random_ket(d, rng)) for _ in range(m)]
    return Preparation.ensemble(weights, pairs)


def random_orthonormal_filters(d: int, rng) -> dict[str, FilterPair]:
    q0 = random_unitary(d, rng)
    q1 = random_unitary(d, rng)
    return {
        f"f{k}": FilterPair(q0[:, k], q1[:, k], label=f"f{k}") for k in range(d)
    }


def same_certificate(got, want):
    """Assert two certificates equal bit for bit: coefficients, U-hat bytes,
    slack and bounds."""
    assert got.alphas == want.alphas
    assert got.u_hat.dtype == want.u_hat.dtype and got.u_hat.tobytes() == want.u_hat.tobytes()
    for name in ("contraction_slack", "vg_lower", "sigma_vg", "d_upper", "sigma_d"):
        assert getattr(got, name) == getattr(want, name), name
