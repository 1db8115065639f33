"""Numerics for the Dirac equation in a plane electromagnetic wave.

The library constructs the exact single-mode solutions obtained by
separating the Dirac equation in null coordinates s = t+x, l = t-x
(Volkov modes), assembles the momentum-space kernel of the fermionic
projector from retarded/advanced Green's functions, and provides the
spectral diagnostics (sideband spectra, windowed frequency transforms,
null-direction decay fits) used to verify the structural identities of
that construction numerically.

Subpackages
-----------
clifford    fixed Dirac matrices, light-cone operators, spin inner product
potential   plane-wave potential profiles and their cumulative phase
modes       single modes, wavepackets, null-surface scalar products
projector   Green's functions, signature sign, projector kernel
quadrature  the checked Gauss-Legendre panel rule for the s integrals
spectral    sidebands, windowed transforms, decay-order fits
cli         batch scenario runner
"""

__version__ = "0.1.0"
