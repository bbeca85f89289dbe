"""Benchmark for kingkernel; ``run.py`` is the entry point."""
