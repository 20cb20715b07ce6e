"""fdrkit's benchmark: workloads, tracing and metrics (see README.md)."""

#: environment variables that set the BLAS thread count; the benchmark
#: pins them to 1 before numpy is imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
