"""Benchmark for the drafttube pipeline; entry point ``perfbench/run.py``."""
