"""The repo benchmark: four workloads across the simulator, the threaded
engine and the slate store, measured end to end with tracing off and
layer by layer in a second, traced run. See ``bench/README.md``.

Run with ``python -m bench`` from the repository root.
"""
