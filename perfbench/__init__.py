"""Benchmark harness for the lcapa package; run ``python3 perfbench/run.py --help``."""
