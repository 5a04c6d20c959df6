"""Benchmark of cogret's retract routes and command line; run perfbench/run.py."""
