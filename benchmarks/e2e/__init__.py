"""End-to-end benchmark: four workloads, end-to-end metrics, per-layer trace.

See README.md in this directory.
"""
