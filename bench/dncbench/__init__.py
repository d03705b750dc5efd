"""Harness of the dnccap benchmark; bench/run.py is the entry point.

    gen      seeded inputs (cases) for each workload
    loop     the measured loop, run in a process of its own
    ops      one operation per case, and fresh-process helpers
    refs     reference answers computed without the program's routes
    gate     checks every answer against those references
    tracing  spans around the program's public entry points
    layers   per-layer metrics from the spans
    child    traced stand-in for `python -m dnccap`
"""
