"""Benchmark harness for netinv; see perfbench/README.md."""
