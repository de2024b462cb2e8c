"""The repository benchmark (see README.md); run ``perfbench/run.py``."""
