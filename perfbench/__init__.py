"""perfbench: the repository's benchmark (see README.md, run.py)."""

# Execution pins, written to the environment before numpy or repro load:
# one kernel thread, one BLAS/OpenMP thread, so a run measures one core.
PINNED_ENV = {
    "REPRO_NOC_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
