"""Minimum relay transmit power in a lattice-coded two-way relay channel
with power-splitting wireless energy transfer.

The core pipeline: generate a channel (`scenario`), optimize the relay
beamformer, receive combiner and per-user power splits (`design`,
`optimizer`: a global 1-D search along the two-user gain frontier with a
closed-form beamformer at each combiner angle), verify
the rate targets, and aggregate Monte Carlo sweeps (`harness`). The paper's
semidefinite relaxation of the beamformer step
(`design.min_power_beamformer`, solved by the `sdp` interior-point method
with `numerics`) is kept only as a certificate of the optimal power value,
which the tests use. `lattice` holds the nested-lattice compute-and-forward
primitives. See the README for the CLI.
"""

from .design import (RateReport, SystemParams, TransceiverDesign,
                     complete_design, constraint_rhs, rank_one_extract,
                     recover_beta, required_power, solve_beamformer,
                     solve_combiner, verify_rates)
from .errors import (BracketError, CofRelayError, ConfigError,
                     DegenerateChannelError, DimensionError, InfeasibleError,
                     NestingError, SolverFailureError, UnboundedError)
from .harness import (SweepSummary, TrialRecord, lattice_demo, oracle_grid,
                      run_sweep)
from .lattice import (CodebookEntry, Lattice, NestedChain, cof_roundtrip,
                      enumerate_codebook, mmse_alpha, mod_lattice, quantize,
                      second_moment)
from .numerics import eig_hermitian, real_embed, trace_inner
from .optimizer import (AlternationTrace, SchemeId, alternate,
                        equal_gain_vector, run_scheme)
from .scenario import (ChannelRealization, ScenarioConfig, fig2_preset,
                       fig3_preset, gen_channel, parse_config, render_config,
                       trial_seed, units_from_config)
from .sdp import SdpInstance, SdpSolution, solve_sdp

__version__ = "0.1.0"

__all__ = [
    "AlternationTrace", "BracketError", "ChannelRealization", "CodebookEntry",
    "CofRelayError", "ConfigError", "DegenerateChannelError", "DimensionError",
    "InfeasibleError", "Lattice", "NestedChain", "NestingError", "RateReport",
    "ScenarioConfig", "SchemeId", "SdpInstance", "SdpSolution",
    "SolverFailureError", "SweepSummary", "SystemParams", "TransceiverDesign",
    "TrialRecord", "UnboundedError", "alternate", "cof_roundtrip",
    "complete_design", "constraint_rhs", "eig_hermitian", "enumerate_codebook",
    "equal_gain_vector", "fig2_preset", "fig3_preset", "gen_channel",
    "lattice_demo", "mmse_alpha", "mod_lattice", "oracle_grid", "parse_config",
    "quantize", "rank_one_extract", "real_embed", "recover_beta",
    "render_config", "required_power", "run_scheme", "run_sweep",
    "second_moment", "solve_beamformer", "solve_combiner", "solve_sdp",
    "trace_inner", "trial_seed", "units_from_config", "verify_rates",
]
