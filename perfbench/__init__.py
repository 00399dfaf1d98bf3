"""Benchmark of the icecomp compiler, sampler and certifier.

See README.md in this directory for the workloads and metrics, and run.py
for the command line.
"""
