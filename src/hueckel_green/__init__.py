"""Exact and numeric Green's functions for tight-binding chains, rings and
hypercubic lattices.

The zero-energy Green's function is minus the inverse of the hopping
Hamiltonian.  This package computes it several independent ways -- closed
forms with entries in {0, +-1} and {0, +-1/2}, the Usmani tridiagonal
engine, circulant inversion by recurrence and by symbol factorization,
spectral sums -- and decides existence in d dimensions with an exact
number-theoretic predicate backed by a cyclotomic-integer oracle.

numpy is imported inside the eigenvalue and array routines only, so the
exact routes, the float LU, single spectral entries (an O(N) sum over two
rows of the analytic eigenbasis) and spectral matrices up to 128 sites (the
same sum over every pair of rows), and the command-line requests built on
them, never pay its import.
"""

from .chains import (ChainSpec, Topology, build_hamiltonian,
                     spectral_resolvent_entry, spectral_resolvent_matrix,
                     transmission_proxy)
from .circulant import (CirculantSpec, circulant_inverse_dft,
                        cyclic_inverse_first_column, cyclic_kernel_basis,
                        det_cyclic, symbol_factorization_inverse)
from .closed_form import (GreenEntryQuery, det_open, green_entry,
                          green_matrix, harmonic_sum_identity_check)
from .errors import (AlternatingOddN, BudgetExhausted, CycleTooSmall,
                     DegenerateAngle, EnergyAtPole, HueckelError,
                     IllConditioned, IndexOutOfRange, InvalidSize,
                     NearSingularAngle,
                     NotSingular, NumericallySingular,
                     SingularLattice, SingularMatrix, TooLarge,
                     UnsupportedCouplings, ZeroCoupling)
from .exact import ExactMatrix, det_fraction_free, inverse_exact, mat_vec
from .lattice import (LatticeSpec, MultiIndex, build_lattice_hamiltonian,
                      flatten, lattice_eigenvalue, lattice_green_entry,
                      lattice_green_matrix, lattice_spectrum, unflatten)
from .oracle import lu_inverse
from .tridiagonal import (ThetaPhiTables, TridiagonalSpec, theta_phi,
                          usmani_entry, usmani_inverse)
from .trig import (direct_green_matrix, direct_green_sum, kahan_sum,
                   parity_zero_sum, sine_ratio_sign, sum_cos, sum_sin)
from .vanishing_sums import (CosineWitness, InvertibilityQuery,
                             cosine_sum_is_zero_exact, cyclotomic_polynomial,
                             find_vanishing_witness, is_invertible,
                             roots_of_unity_sum_is_zero,
                             smallest_prime_divisor)

__version__ = "0.1.0"
