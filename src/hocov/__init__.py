"""Truncated-Fock simulation of multiphoton down-conversion and higher-order
covariance entanglement criteria.

The package is organized bottom-up:

``fock``
    mode layouts, the truncated ladder rule that builds every operator,
    initial states
``quadratures``
    nonlinear quadratures Q^m, P^m and the commutator polynomials f_m
``dynamics``
    the interaction Hamiltonian and its exact time evolution, chain by chain
``covariance``
    4x4 higher-order covariance matrices: one type holds the covariance of
    one state or a (T, 4, 4) stack along a trajectory; standard form,
    invariants
``criteria``
    uncertainty and PPT inequalities, the nu-tilde witness, separability
    lemmas, the Nha-Zubairy comparator
``sweep``
    trajectory sweeps over the interaction parameter, CSV/plot emission,
    convergence checking (CLI in ``cli``)

The package needs numpy only.
"""

from .fock import (
    DegenerateStateError,
    ModeLayout,
    QuantumState,
    TruncatedOperator,
    TruncationError,
    coherent_state,
    fock_state,
    product_state,
    thermal_state,
    top_level_population,
    top_level_populations,
    vacuum_state,
)
from .quadratures import (
    MAX_ORDER,
    QuadraturePair,
    UnsupportedOrderError,
    f_operator,
    f_values,
    nonlinear_quadratures,
)
from .dynamics import (
    EvolutionConfig,
    IntegratorError,
    InteractionSpec,
    build_hamiltonian,
    evolve,
)
from .covariance import (
    HigherOrderCovariance,
    Invariants,
    StandardForm,
    build_covariance,
    covariance_stack,
    invariants,
    mirror_reflect,
    standard_form,
)
from .criteria import (
    Lemma2Result,
    NumericalConsistencyError,
    WitnessReport,
    evaluate_criteria,
    evaluate_stack,
    inequality7_margin,
    inequality8_margin,
    lemma1_check,
    lemma2_transform,
    nha_zubairy,
    nz_values,
    uncertainty_margin,
    witness_nu_minus,
)
from .sweep import (
    SweepConfig,
    SweepResult,
    SweepRow,
    config_from_file,
    convergence_check,
    emit_plot_data,
    load_config,
    read_csv,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"
