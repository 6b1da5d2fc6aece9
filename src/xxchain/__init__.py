"""Two-qubit quantum state transfer through XX spin chains with barrier fields.

The package computes exact one- and two-excitation transfer amplitudes,
Haar-averaged and worst-case transfer fidelities, degenerate perturbation
theory for the edge-localized quadruplet, and optimal readout times, with a
brute-force sector oracle cross-validating every fast-path quantity.
"""

__version__ = "0.1.0"

from .chain import ChainSpec, SymTridiag, TwoQubitState, build_single_particle
from .spectral import (
    SpectralData,
    classify_chain,
    diagonalize,
    edge_modes,
    extended_indices,
    localization_profile,
    localized_indices,
)
from .amplitudes import (
    AmplitudeSet,
    channel_occupation,
    propagator,
)
from .sector_oracle import (
    EvolvedState,
    SectorBasis,
    build_sector_hamiltonians,
    evolve,
    reduced_receiver_state,
    state_fidelity,
    verify,
)
from .fidelity import (
    FidelityBreakdown,
    WorstCaseBudgetWarning,
    average_fidelity_approx,
    average_fidelity_exact,
    fidelity_from_edge_amplitudes,
    haar_average_mc,
    worst_case_fidelity,
)
from .perturbation import (
    PerturbativeSpectrum,
    RabiFrequencies,
    cubic_roots,
    perturbative_energies,
    rabi_frequencies,
    transfer_time_estimate,
)
from .protocol import (
    TransferTimeResult,
    find_transfer_time,
    re_f_truncated,
    scan,
)
