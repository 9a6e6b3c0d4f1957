"""Amortized variational estimation for graded response models.

Four estimators over one decoder: VAE and IWAE with a Gaussian inference
network, AVB and IWAVB with an implicit (noise-injecting) inference network
trained against an adversarial density-ratio discriminator.

This module imports no numpy, so `main`, the `gradedvi` console command, can
set the BLAS thread count before numpy loads BLAS.
"""

import os

__version__ = "0.1.0"

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    """The `gradedvi` command: `gradedvi.cli.main` with BLAS on one thread.

    Each of `BLAS_THREAD_VARIABLES` that is not set is set to "1" before
    the CLI imports numpy, so a seeded fit writes the same bytes on any
    number of CPUs (a multi-threaded BLAS cuts products by their size).  A
    variable already set is left as it is.  Importing `gradedvi.cli` as a
    library changes nothing in the environment.
    """
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main
    return cli_main()
