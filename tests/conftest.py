"""Shared builders for randomized packets and grids."""

from __future__ import annotations

import numpy as np
import pytest

from volkovfp.clifford import lightcone_operators
from volkovfp.modes import WavePacket

PI_MINUS = lightcone_operators()[3]


def random_pi_minus(rng, n=1):
    raw = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    proj = raw @ PI_MINUS.T
    return proj / np.linalg.norm(proj, axis=1, keepdims=True)


def random_packet(rng, n_nodes=12, m=1.0, u_sign=-1.0):
    u = u_sign * np.exp(rng.uniform(np.log(0.1), np.log(2.0), n_nodes))
    u += np.linspace(0.0, 1e-9, n_nodes)
    k2 = rng.normal(0.0, 0.5, n_nodes)
    k3 = rng.normal(0.0, 0.5, n_nodes)
    chi0 = random_pi_minus(rng, n_nodes)
    weights = rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)
    quad_weights = rng.uniform(0.1, 1.0, n_nodes)
    return WavePacket(m=m, u=u, k2=k2, k3=k3, chi0=chi0,
                      weights=weights, quad_weights=quad_weights)


def companion_packet(rng, packet):
    """Second packet on the same grid with fresh amplitudes and weights."""
    n = packet.n_nodes
    return WavePacket(
        m=packet.m, u=packet.u, k2=packet.k2, k3=packet.k3,
        chi0=random_pi_minus(rng, n),
        weights=rng.normal(size=n) + 1j * rng.normal(size=n),
        quad_weights=packet.quad_weights,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
