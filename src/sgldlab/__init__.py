"""Numerical laboratory for stochastic gradient Langevin dynamics.

Subpackages cover certified loss families, the SGLD engine, derived
theoretical constants, generalization-bound calculators, Monte Carlo
estimators, a closed-form Gaussian oracle, and a one-dimensional
Fokker-Planck grid solver, plus a command line front end.
"""

import time

__version__ = "0.1.0"

# where a process's clock starts where its start time cannot be read (see
# `cli._process_start`)
_import_time = time.monotonic()
