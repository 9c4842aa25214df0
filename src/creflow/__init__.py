"""Finite-trace LTL constraint monitoring and credit-masked corrective
flow-matching RL, with an exact discrete-support verification oracle and a
synthetic manipulation world for end-to-end online training."""

from .flow import LinearVelocity, MLPVelocity, ModelBundle, interpolate
from .ltlf import (
    ClauseProgram,
    Formula,
    TemplateFamily,
    Witness,
    classify_template,
    eval_bruteforce,
    eval_clause,
    parse_formula,
    print_formula,
)
from .mask import CreditMask, LatentLayout, build_group_mask
from .monitor import Verdict, run_group_monitor, run_monitor
from .objectives import (
    LossConfig,
    RolloutGroup,
    loss_corrective_reflow,
    loss_corrective_weighted,
    loss_kl,
    loss_nft,
    loss_nft_credit_aware,
    loss_total,
    nft_branches,
)
from .oracle import DiscreteWorld, PopulationPoint, population_point
from .simworld import RolloutDecoder, WorldConfig, decode_trace, run_online_loop
from .trace import (
    TaskSpec,
    TraceGroup,
    build_atlas,
    eval_group_predicate,
    eval_predicate,
)

__version__ = "0.1.0"
