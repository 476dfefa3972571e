"""Benchmark for optstab; run it with ``python3 perfbench/run.py --help``."""
