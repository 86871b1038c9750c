"""Truncated-Fock simulation of multiphoton down-conversion and higher-order
covariance entanglement criteria.

The package is organized bottom-up:

``fock``
    mode layouts, ladder operators, embeddings, initial states
``quadratures``
    nonlinear quadratures Q^m, P^m and the commutator polynomials f_m
``dynamics``
    interaction Hamiltonians and exact charge-sector time evolution
``covariance``
    4x4 higher-order covariance matrices: one type holds the covariance of
    one state or a (T, 4, 4) stack along a trajectory; standard form,
    invariants, coskewness / cokurtosis blocks
``criteria``
    uncertainty and PPT inequalities, the nu-tilde witness, separability
    lemmas, the Nha-Zubairy comparator
``sweep``
    trajectory sweeps over the interaction parameter, CSV/plot emission,
    convergence checking (CLI in ``cli``)
"""

from .fock import (
    DegenerateStateError,
    ModeLayout,
    QuantumState,
    TruncatedOperator,
    TruncationError,
    annihilation,
    coherent_state,
    creation,
    embed,
    fock_state,
    number_operator,
    product_state,
    thermal_state,
    top_level_population,
    top_level_populations,
    vacuum_state,
)
from .quadratures import (
    MAX_ORDER,
    FPolynomial,
    QuadraturePair,
    UnsupportedOrderError,
    expectation,
    f_operator,
    f_polynomial,
    nonlinear_quadratures,
    symmetrized_covariance,
)
from .dynamics import (
    EvolutionConfig,
    IntegratorError,
    InteractionSpec,
    build_classical_pump_hamiltonian,
    build_hamiltonian,
    evolve,
)
from .covariance import (
    HigherOrderCovariance,
    Invariants,
    StandardForm,
    build_covariance,
    cokurtosis,
    covariance_stack,
    coskewness_block,
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
