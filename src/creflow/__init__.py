"""Finite-trace LTL constraint monitoring and credit-masked corrective
flow-matching RL, with an exact discrete-support verification oracle and a
synthetic manipulation world for end-to-end online training."""

__version__ = "0.1.0"
