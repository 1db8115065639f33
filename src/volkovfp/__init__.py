"""Numerics for the Dirac equation in a plane electromagnetic wave.

The library constructs the exact single-mode solutions obtained by
separating the Dirac equation in null coordinates s = t+x, l = t-x
(Volkov modes), evaluates the momentum-space kernel of the fermionic
projector as a table of scalar coefficients on fixed spin matrices,
checked against the causal kernel of the retarded/advanced Green's
functions, and provides the spectral diagnostics (sideband spectra,
windowed frequency transforms, null-direction decay fits) used to verify
the structural identities of that construction numerically.

Modules
-------
clifford    fixed Dirac matrices, light-cone operators, spin inner product
potential   plane-wave potential profiles and their cumulative phase
modes       single modes, wavepackets, null-surface scalar products
projector   Green's functions, signature sign, projector kernel
quadrature  the checked Gauss-Legendre panel rule for the s integrals
schema      key tables that check every JSON config and descriptor
spectral    sidebands, windowed transforms, decay-order fits
csvformat   the block CSV cell formatter of cli's writer
cli         batch scenario runner
"""

__version__ = "0.1.0"
