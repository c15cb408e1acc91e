"""Benchmark harness: one module per paper table/figure (PAPER.md, §4)."""
