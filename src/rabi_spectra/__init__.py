"""Block-diagonal spectra of the two-qubit quantum Rabi model.

Displaced-frame rotating-wave treatment with per-qubit displacement roots,
closed four-state blocks at joint resonance, exact-diagonalization
cross-checks, and a pseudomode-reservoir extension with dark states.

The exports are lazy (PEP 562): `import rabi_spectra` loads no submodule,
and the first read of an exported name imports the module that _EXPORTS
names for it.  A command that runs only the resonant spectra never
compiles the oracle or the reservoir.
"""
import importlib

__version__ = "0.1.0"

# each exported name -> the module that binds it, in __all__ order
_EXPORTS = {
    "AsymmetricParamsError": "reservoir",
    "Block4": "fockspace",
    "ChainState": "fockspace",
    "CoefficientMode": "model",
    "ConvergenceFailureError": "numerics",
    "ConvergenceReport": "oracle",
    "DegenerateDesignError": "resonance",
    "DeviationRow": "oracle",
    "DiscrepancyReport": "reservoir",
    "EigenDecomposition": "numerics",
    "EntryMismatch": "reservoir",
    "ModelParams": "model",
    "NoBracketError": "numerics",
    "NonFiniteError": "numerics",
    "ParityChain": "fockspace",
    "ReservoirChain": "reservoir",
    "ReservoirChainState": "reservoir",
    "ReservoirCoefficients": "reservoir",
    "ReservoirParams": "reservoir",
    "ResonantDesign": "resonance",
    "SingularDenominatorError": "numerics",
    "SingularError": "resonance",
    "SingularEtaError": "numerics",
    "SpectrumRow": "fockspace",
    "SpectrumTable": "fockspace",
    "SymmetricMatrix": "numerics",
    "TrwaExactComparison": "oracle",
    "TrwaParams": "model",
    "WindowScanRow": "resonance",
    "block_eigenvector_to_wavefunction": "fockspace",
    "block_leakage": "fockspace",
    "build_block4": "fockspace",
    "build_effective_chain_matrix": "fockspace",
    "build_full_pseudomode": "reservoir",
    "build_full_rabi": "oracle",
    "build_h_2w1_2w": "reservoir",
    "build_parity_chain": "fockspace",
    "build_parity_sector": "oracle",
    "build_reservoir_chain": "reservoir",
    "build_reservoir_matrix": "reservoir",
    "build_rotated_rabi": "oracle",
    "chain_n_max_for_blocks": "fockspace",
    "closed_block_index_groups": "fockspace",
    "coeff_f1": "model",
    "coeff_g0": "model",
    "compare_trwa_exact": "oracle",
    "compute_K": "reservoir",
    "constant_offset": "model",
    "dark_state_energy": "reservoir",
    "dark_state_residual": "reservoir",
    "design_resonant": "resonance",
    "eigh": "numerics",
    "eigvals_sym": "numerics",
    "eq24_vector": "reservoir",
    "eval_laguerre": "numerics",
    "exact_spectrum": "oracle",
    "find_root": "numerics",
    "laguerre_table": "numerics",
    "lorentzian_density": "reservoir",
    "quasi_exact_subspace": "reservoir",
    "reservoir_constant": "reservoir",
    "resonance_residual": "model",
    "residual_eq8": "model",
    "residual_eq9": "model",
    "scan_delta1_window": "resonance",
    "scan_lambda2_window": "resonance",
    "solve_lambda1": "resonance",
    "solve_lambda2": "resonance",
    "spectrum_vs_g1": "fockspace",
    "trwa_block_energies": "fockspace",
    "verify_eq24": "reservoir",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
