"""Support code for the repository benchmark (``perfbench/run.py``).

The package holds the benchmark's own pieces: percentile and sample
helpers, a span tracer, the wrappers that put spans around each
layer's public entry points, the Tarjan oracle, the load generator and
the three workloads.  Nothing here is imported by ``src/``.
"""
