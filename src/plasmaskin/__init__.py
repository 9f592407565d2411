"""Analytic solution of the plasma skin-effect boundary problem with
displacement current, plus independent direct solvers and a CLI.

The public surface mirrors the module layout:

* :mod:`plasmaskin.specfun`    -- Gaussian Hilbert transform and friends
* :mod:`plasmaskin.numerics`   -- quadrature, Newton, winding numbers
* :mod:`plasmaskin.dispersion` -- parameters and the dispersion function
* :mod:`plasmaskin.spectrum`   -- zero counting and location
* :mod:`plasmaskin.solution`   -- coefficients, fields, impedance
* :mod:`plasmaskin.oracle`     -- Fourier and finite-difference checks
* :mod:`plasmaskin.cli`        -- sweep / profile / selfcheck commands
"""

from .dispersion import (
    BoundaryValues,
    PlasmaParams,
    lam,
    lam_asymptotic,
    lam_boundary,
    lam_imag_axis,
    lam_prime,
    make_params,
)
from .errors import (
    BoundaryProximityError,
    ContourZeroError,
    CutoffError,
    DegenerateImpedanceError,
    DomainError,
    NewtonError,
    PlasmaSkinError,
    QuadratureError,
    SpectralDegeneracyError,
    WindingError,
)
from .numerics import (
    QuadratureSpec,
    integrate_finite,
    integrate_principal_value,
    integrate_semi_infinite,
    newton_refine,
    winding_number,
)
from .oracle import OracleConfig, fd_profile, fourier_impedance
from .solution import (
    FieldProfile,
    ImpedanceResult,
    SolutionCoefficients,
    check_residue_identity,
    compute_J,
    compute_J_many,
    compute_coefficients,
    continuum_coefficient,
    field_e,
    field_h,
    identity_residuals,
    impedance,
    impedance_reduced_form,
)
from .specfun import erfcx, gauss_hilbert, lambda0, p_func
from .spectrum import Region, SpectrumInfo, analyze, count_zeros, find_zeros

__version__ = "0.1.0"
