"""Shared builders for randomized packets, mass families and grids, and a
spy on the CSV writer's Python fallback."""

from __future__ import annotations

import numpy as np
import pytest

from volkovfp import csvformat
from volkovfp.clifford import lightcone_operators
from volkovfp.modes import MassFamily, WavePacket, smooth_bump
from volkovfp.quadrature import gl_panels

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


def grid_family(rng, eta_support=(0.8, 1.2), *, n_masses=13,
                u_grid=(-0.1, -0.05, 5), k_grid=(-0.3, 0.3, 2)):
    """Family over masses 0.8 ... 1.2 on a Gauss-Legendre (u, k2, k3) grid
    (k2 and k3 share k_grid): one random Pi_minus amplitude per node shared
    by every mass, unit weights, and eta a bump on eta_support."""
    interval = (0.8, 1.2)
    masses = np.linspace(*interval, n_masses)
    u, uw = gl_panels(*u_grid)
    k, kw = gl_panels(*k_grid)
    uu, kk2, kk3 = np.meshgrid(u, k, k, indexing="ij")
    qw = np.einsum("i,j,k->ijk", uw, kw, kw).ravel()
    chi0 = random_pi_minus(rng, uu.size)
    return MassFamily(interval=interval, masses=masses, eta=smooth_bump(masses, *eta_support),
                      mass_quad_weights=np.full(n_masses, 0.4 / (n_masses - 1)),  # spacing
                      u=uu.ravel(), k2=kk2.ravel(), k3=kk3.ravel(), quad_weights=qw,
                      chi0=np.repeat(chi0[None], n_masses, axis=0),
                      weights=np.ones((n_masses, uu.size), complex))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def python_cells(monkeypatch):
    """The cells each block sends to Python's own % operator."""
    sent = []
    original = csvformat._python_cells

    def spy(values, fmt, cells, slots):
        sent.extend(values.tolist())
        return original(values, fmt, cells, slots)

    monkeypatch.setattr(csvformat, "_python_cells", spy)
    return sent
