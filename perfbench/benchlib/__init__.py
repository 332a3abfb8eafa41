"""Benchmark library: spans, layer wrappers, inputs, workloads."""
