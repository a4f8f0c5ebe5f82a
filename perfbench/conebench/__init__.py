"""Benchmark support for conesphere: workload plans, output checks, tracing."""
