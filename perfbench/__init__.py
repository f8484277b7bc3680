"""Benchmark of the polyadic CLI; entry point perfbench/run.py."""
