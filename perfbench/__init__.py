"""Benchmark of the ALISA reproduction: see ``perfbench/README.md``."""
