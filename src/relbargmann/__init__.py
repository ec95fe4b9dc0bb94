"""Relativistic Bargmann-type transforms on the Poincare disk.

The package connects two spectral families: the eigenstates of a
relativistic pseudoharmonic oscillator on the half line (continuous dual
Hahn polynomials dressed with gamma weights) and the hyperbolic Landau
eigenspaces of weighted Maass Laplacians on the unit disk.  Coherent states
built from the disk eigenbasis define integral transforms between the two
sides; their kernels close up in terms of a Kampe de Feriet hypergeometric
function, with every identity in the chain verified numerically by the test
and verification suites.
"""

__version__ = "0.1.0"

from .bargmann import (SampledFunction, TransformResult, classical_bargmann,
                       isometry_check, oscillator_mode, relativistic_transform,
                       relativistic_transform_grid, relativistic_transform_m0,
                       relativistic_transform_m0_grid)
from .coherent import (CoherentLabel, cs_distance, cs_wavefunction,
                       cs_wavefunction_oracle, normalization, overlap,
                       overlap_series, transform_kernel, transform_kernel_series)
from .disk import (LandauIndex, basis_gram, basis_phi, basis_phi_batch,
                   bergman_distance, landau_level, maass_apply_fd,
                   measure_density, wirtinger_dzbar_fd)
from .errors import (DomainError, InputFormatError, NonConvergenceError,
                     PoleError, RelBargmannError)
from .hypergeom import (F5Args, appell_f1, gauss_2f1, hyp3f2_terminating_unit,
                        kdf_f5, kdf_f5_integral, kdf_f5_series, ln_gamma,
                        pochhammer, reciprocal_gamma)
from .orthopoly import cdhahn_s, jacobi_connection, jacobi_p, laguerre_l
from .oscillator import (ModelParams, OscParams, eigenfunction,
                         eigenfunction_batch, energy, gamma_of_c,
                         oscillator_gram)
from .quadrature import (QuadratureRule, gauss_jacobi, gauss_legendre,
                         integrate_disk, integrate_halfline)

__all__ = [
    "__version__",
    "SampledFunction", "TransformResult", "classical_bargmann",
    "isometry_check", "oscillator_mode", "relativistic_transform",
    "relativistic_transform_grid", "relativistic_transform_m0",
    "relativistic_transform_m0_grid",
    "CoherentLabel", "cs_distance", "cs_wavefunction",
    "cs_wavefunction_oracle", "normalization", "overlap", "overlap_series",
    "transform_kernel", "transform_kernel_series",
    "LandauIndex", "basis_gram", "basis_phi", "basis_phi_batch",
    "bergman_distance", "landau_level", "maass_apply_fd", "measure_density",
    "wirtinger_dzbar_fd",
    "DomainError", "InputFormatError", "NonConvergenceError", "PoleError",
    "RelBargmannError",
    "F5Args", "appell_f1", "gauss_2f1", "hyp3f2_terminating_unit", "kdf_f5",
    "kdf_f5_integral", "kdf_f5_series", "ln_gamma", "pochhammer",
    "reciprocal_gamma",
    "cdhahn_s", "jacobi_connection", "jacobi_p", "laguerre_l",
    "ModelParams", "OscParams", "eigenfunction", "eigenfunction_batch",
    "energy", "gamma_of_c", "oscillator_gram",
    "QuadratureRule", "gauss_jacobi", "gauss_legendre", "integrate_disk",
    "integrate_halfline",
]
