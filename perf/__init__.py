"""The served-request benchmark (see perf/README.md)."""
